"""Command-line driver: prepare, train, eval, crossval, gridsearch, compare.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
Every run is reproducible from its --seed; wall-clock numbers live in
dedicated *_seconds JSON keys so rerun outputs differ only there.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, replace
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from . import corpus, features, resample, sgd
from .artifacts import atomic_write, read_json
from .corpus import LabeledCorpus
from .evaluation import (
    AVERAGED,
    CrossValidationError,
    CvReport,
    confusion,
    cross_validate,
    per_class_metrics,
    render_class_report,
    render_cv_line,
    report_to_dict,
)
from .pipeline import FittedPipeline, PipelineConfig, fit_pipeline, predict_pipeline
from .search import (
    TUNED_FIELDS,
    GridSpec,
    candidate_to_dict,
    grid_search,
    load_grid_spec,
    params_from_dict,
    params_label,
    params_to_dict,
    render_grid_table,
    winner_params,
)
from .seeds import substream

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4

# The four TF-IDF fields of a PipelineConfig, which tfidf.json records.
TFIDF_FIELDS = TUNED_FIELDS[:4]


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a fraction in (0, 1), got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _fold_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"expected at least 2 folds, got {text!r}")
    return value


def _ngram_pair(text: str) -> features.NgramRange:
    try:
        lo, hi = (int(part) for part in text.split(","))
        return features.NgramRange(lo, hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected LO,HI with 1 <= LO <= HI, got {text!r}") from exc


# Each pipeline flag by the PipelineConfig field it sets, which is also its
# argparse dest. A flag left off is absent from the namespace, so every
# default is PipelineConfig's own.
PIPELINE_FLAGS = {
    "loss": ("--loss", {"choices": sgd.LOSSES}),
    "ngram_range": ("--ngram", {"type": _ngram_pair, "metavar": "LO,HI", "help": "n-gram range"}),
    "norm": ("--norm", {"choices": features.NORMS}),
    "use_idf": ("--use-idf", {"action": argparse.BooleanOptionalAction}),
    "smooth_idf": ("--smooth-idf", {"action": argparse.BooleanOptionalAction}),
    "penalty": ("--penalty", {"choices": sgd.PENALTIES}),
    "alpha": ("--alpha", {"type": _positive_float}),
    "epochs": ("--epochs", {"type": _positive_int}),
    "smote": ("--smote", {"action": "store_true", "help": "oversample training data"}),
    "smote_k": ("--smote-k", {"type": _positive_int, "metavar": "K", "help": "SMOTE neighbors"}),
}


def _config_from_args(args: argparse.Namespace, stream: str) -> PipelineConfig:
    """The pipeline flags given, as one PipelineConfig seeded with substream(--seed, stream)."""
    given = {name: getattr(args, name) for name in PIPELINE_FLAGS if hasattr(args, name)}
    return PipelineConfig(**given, seed=substream(args.seed, stream))


def _train_split(out_dir: Path) -> tuple[list[list[str]], list[int]]:
    """Documents and labels of the training side of a prepared split."""
    loaded, sides = _load_prepared(out_dir)
    return (
        [loaded.documents[i] for i in sides["train"]],
        [loaded.labels[i] for i in sides["train"]],
    )


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def _write_json(path: Path, data: dict) -> None:
    _write_text(path, json.dumps(data, sort_keys=True, indent=2) + "\n")


def _split_sides(manifest: object, n: int) -> dict[str, list[int]]:
    """A split manifest's "train" and "test" sides: disjoint lists of distinct ints in [0, n)."""
    sides = {}
    for side in ("train", "test"):
        indices = manifest.get(f"{side}_indices") if isinstance(manifest, dict) else None
        if not (isinstance(indices, list) and all(type(i) is int and 0 <= i < n for i in indices)):
            raise ValueError(f"{side}_indices must be a list of integers in [0, {n})")
        if len(set(indices)) != len(indices):
            raise ValueError(f"{side}_indices lists an index twice")
        sides[side] = indices
    if not set(sides["train"]).isdisjoint(sides["test"]):
        raise ValueError("an index is on both the train and the test side")
    return sides


# The keys of a corpus.jsonl row, as cmd_prepare writes it.
_ROW_KEYS = frozenset(("label", "tokens"))


def _object_once(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object's dict, or ValueError if any key repeats (json.loads keeps the last)."""
    row = dict(pairs)
    if len(row) != len(pairs):
        raise ValueError("a key repeats")
    return row


def _one_row_per_line(parsed: object, n: int) -> tuple[list[list[str]], list[int]] | None:
    """The documents and labels of n lines parsed as [[line 1],[line 2],...], or None.

    None unless parsed holds n one-element lists, each of a row with only an
    integer label >= 0 and a list of string tokens, the tokens keeping the
    token rule.
    """
    if not (type(parsed) is list and len(parsed) == n and set(map(type, parsed)) == {list}
            and set(map(len, parsed)) == {1}):
        return None
    rows = list(chain.from_iterable(parsed))
    if not (set(map(type, rows)) == {dict} and set(map(frozenset, rows)) == {_ROW_KEYS}):
        return None
    labels = list(map(itemgetter("label"), rows))
    documents = list(map(itemgetter("tokens"), rows))
    # Every token is a str before any set of tokens is built.
    if (set(map(type, labels)) == {int} and min(labels) >= 0
            and set(map(type, documents)) == {list}
            and set(map(type, chain.from_iterable(documents))) <= {str}
            and not features.breaks_token_rule(set(chain.from_iterable(documents)))):
        return documents, labels
    return None


def _load_prepared(out_dir: Path) -> tuple[LabeledCorpus, dict[str, list[int]]]:
    """The prepared corpus and its checked split sides, keyed "train" and "test".

    corpus.jsonl is parsed in one json.loads and checked a batch at a time;
    only a file that fails is read line by line, to name its first bad line.
    """
    corpus_path = out_dir / "corpus.jsonl"
    # Read as bytes, so a line that is not UTF-8 fails json.loads like one that is not JSON.
    data = corpus_path.read_bytes()
    # The nonblank lines, split on b"\n" as iterating the file splits them.
    # Each "],[" follows its line's b"\n", so no string or number spans two
    # lines. No object may repeat a key, so no parsed value is dropped, and a
    # checked row holds no container but its token list: none of those spans
    # two lines either, and n one-element lists are the n lines' rows.
    lines = list(filter(bytes.strip, data.split(b"\n")))
    try:
        batch = _one_row_per_line(json.loads(b"[[" + b"\n],[".join(lines) + b"]]",
                                             object_pairs_hook=_object_once), len(lines))
    except (ValueError, RecursionError):
        batch = None
    if batch is not None:
        documents, labels = batch
    else:
        documents, labels, line_numbers = [], [], []
        for line_number, line in enumerate(io.BytesIO(data), start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except (ValueError, RecursionError):
                row = None
            tokens = row.get("tokens") if isinstance(row, dict) else None
            # A list of tokens means row is a dict.
            if not (type(tokens) is list and type(row.get("label")) is int and row["label"] >= 0
                    and set(map(type, tokens)) <= {str}):
                raise ValueError(f"{corpus_path}: line {line_number} needs an integer label >= 0 "
                                 "and a list of string tokens")
            documents.append(tokens)
            labels.append(row["label"])
            line_numbers.append(line_number)
        # The distinct tokens are checked at once; only a failure looks for its line.
        if features.breaks_token_rule(set(chain.from_iterable(documents))):
            line_number = next(n for n, tokens in zip(line_numbers, documents)
                               if features.breaks_token_rule(tokens))
            raise ValueError(f"{corpus_path}: line {line_number}: {features.TOKEN_RULE}")
    sides = read_json(out_dir / "split.json", parse=lambda data: _split_sides(data, len(labels)))
    return LabeledCorpus(documents, labels), sides


def cmd_prepare(args: argparse.Namespace) -> int:
    stop_words = frozenset() if args.no_stopwords else corpus.load_stop_words(args.stopwords)
    result = corpus.load_corpus(args.input, corpus.SCHEMAS[args.schema], stop_words)
    loaded = result.corpus
    if len(loaded) < 2:
        raise corpus.CorpusError(
            f"only {len(loaded)} usable rows after cleaning; need at least 2"
        )
    plan = corpus.split(loaded.labels, args.split, substream(args.seed, "split"))
    # Only a prepare that got this far creates its output directory.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # One encoder for every row: json.dumps with sort_keys builds one per call.
    encode = json.JSONEncoder(sort_keys=True).encode
    text = "".join(encode({"label": label, "tokens": tokens}) + "\n"
                   for label, tokens in zip(loaded.labels, loaded.documents))
    _write_text(out_dir / "corpus.jsonl", text)

    sides = {"train": plan.train_indices, "test": plan.test_indices}
    tally = {side: Counter(loaded.labels[i] for i in indices) for side, indices in sides.items()}
    histogram = {str(cls): {side: tally[side][cls] for side in sides} for cls in loaded.classes()}
    totals = {side: len(indices) for side, indices in sides.items()}
    _write_json(
        out_dir / "split.json",
        {
            "seed": args.seed,
            "train_fraction": args.split,
            "row_count": result.total_rows,
            "drop_count": result.dropped,
            "class_histogram": histogram,
            "totals": totals,
            "train_indices": plan.train_indices,
            "test_indices": plan.test_indices,
        },
    )

    lines = ["Class\tTraining Set\tTesting Set"]
    for cls in loaded.classes():
        lines.append(f"{cls}\t{tally['train'][cls]}\t{tally['test'][cls]}")
    lines.append(f"Totals\t{totals['train']}\t{totals['test']}")
    _write_text(out_dir / "histogram.txt", "\n".join(lines) + "\n")

    print(
        f"prepared {len(loaded)} documents ({result.dropped} dropped) -> "
        f"{totals['train']} train / {totals['test']} test"
    )
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    config = _config_from_args(args, "pipeline")
    documents, labels = _train_split(out_dir)
    started = time.perf_counter()
    fitted = fit_pipeline(features.count(documents, config.ngram_range), labels, config)
    elapsed = time.perf_counter() - started
    # The model goes last: a run cut short leaves no new model.json beside
    # an older tfidf.json or train_meta.json.
    features.save_tfidf(fitted.tfidf, out_dir / "tfidf.json")
    _write_json(
        out_dir / "train_meta.json",
        {
            "loss": config.loss,
            "params": params_to_dict(config),
            "epochs": config.epochs,
            "smote": config.smote,
            "smote_k": config.smote_k,
            "seed": args.seed,
            "elapsed_seconds": elapsed,
        },
    )
    sgd.save_model(fitted.model, out_dir / "model.json")
    print(
        f"trained {config.loss} on {len(fitted.model.classes)} classes, "
        f"{fitted.model.feature_dim} features"
    )
    return EXIT_OK


def _load_run(out_dir: Path) -> tuple[FittedPipeline, PipelineConfig]:
    """The train run in out_dir: its fitted pipeline and the PipelineConfig it recorded.

    Reads tfidf.json, then model.json, whose width is checked against the
    vocabulary before its weights are allocated, then train_meta.json. The
    config's seed is train's --seed. Raises ValueError naming the file for a
    train_meta.json that does not make a PipelineConfig, or naming both for
    one whose TF-IDF settings are not tfidf.json's.
    """
    tfidf_path, meta_path = out_dir / "tfidf.json", out_dir / "train_meta.json"
    tfidf = features.load_tfidf(tfidf_path)
    model = sgd.load_model(out_dir / "model.json", (tfidf_path, len(tfidf.grams)))
    meta = read_json(meta_path)
    try:
        fields = ("loss", "epochs", "smote", "smote_k", "seed")
        base = PipelineConfig(**{name: meta[name] for name in fields})
        recorded = params_from_dict(meta["params"], base)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{meta_path} is malformed: {exc!r}") from exc
    if any(getattr(recorded, name) != getattr(tfidf, name) for name in TFIDF_FIELDS):
        raise ValueError(f"{meta_path} and {tfidf_path} record different TF-IDF settings; "
                         "they are not from the same train run")
    return FittedPipeline(tfidf, model), recorded


def cmd_eval(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    fitted, recorded = _load_run(out_dir)
    for name, value in vars(args).items():
        if (name in PIPELINE_FLAGS or name == "seed") and value != getattr(recorded, name):
            flag = PIPELINE_FLAGS[name][0] if name in PIPELINE_FLAGS else f"--{name}"
            path = out_dir / ("tfidf.json" if name in TFIDF_FIELDS else "train_meta.json")
            raise ValueError(f"eval was given {flag} {value!r} but {path} "
                             f"records {getattr(recorded, name)!r} from the train run")
    loaded, sides = _load_prepared(out_dir)

    indices = sides[args.on]
    if not indices:
        raise corpus.CorpusError(f"the {args.on} side of the split is empty")
    started = time.perf_counter()
    counts = features.count((loaded.documents[i] for i in indices), fitted.tfidf.ngram_range)
    predictions = predict_pipeline(fitted, counts)
    elapsed = time.perf_counter() - started

    true_labels = [loaded.labels[i] for i in indices]
    classes = sorted(set(fitted.model.classes) | set(true_labels))
    report = per_class_metrics(confusion(true_labels, predictions, classes))

    _write_json(
        out_dir / "eval_report.json",
        {
            "on": args.on,
            "report": report_to_dict(report),
            "summary": {"accuracy": report.accuracy, **dict(zip(AVERAGED, report.weighted_avg))},
            "elapsed_seconds": elapsed,
        },
    )
    summary = "\t".join(f"{value:.5f}" for value in (report.accuracy, *report.weighted_avg))
    text = f"accuracy\t{report.accuracy:.5f}\n{render_class_report(report)}summary\t{summary}\n"
    _write_text(out_dir / "eval_report.txt", text)
    print(f"accuracy on {args.on}: {report.accuracy:.5f}")
    return EXIT_OK


def _cross_validate_one(documents: list[list[str]], labels: list[int], config: PipelineConfig,
                        k: int) -> CvReport:
    """config's CvReport from a call of its own, after the one-time kernel load and SMOTE probe."""
    sgd._compiled()
    if config.smote:
        resample._probe()
    [report] = cross_validate(documents, labels, [config], k)
    if isinstance(report, CrossValidationError):
        raise report  # main takes the exit code from its cause
    return report


def cmd_crossval(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    config = _config_from_args(args, "crossval")
    documents, labels = _train_split(out_dir)
    report = _cross_validate_one(documents, labels, config, args.k)
    _write_json(
        out_dir / "cv_report.json",
        {
            "loss": config.loss,
            "params": params_to_dict(config),
            "k": args.k,
            "seed": args.seed,
            **asdict(report),
        },
    )
    line = f"{config.loss}\t{render_cv_line(report)}"
    _write_text(out_dir / "cv_report.txt", line + "\n")
    print(line)
    return EXIT_OK


def cmd_gridsearch(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    config = _config_from_args(args, "grid")
    documents, labels = _train_split(out_dir)
    spec = load_grid_spec(args.grid) if args.grid else GridSpec()
    started = time.perf_counter()
    candidates = grid_search(documents, labels, config, spec, jobs=args.jobs)
    elapsed = time.perf_counter() - started
    _write_json(
        out_dir / "grid_results.json",
        {
            "loss": config.loss,
            "seed": args.seed,
            "inner_folds": spec.inner_folds,
            "dev_fraction": spec.dev_fraction,
            "candidates": [candidate_to_dict(c) for c in candidates],
            "elapsed_seconds": elapsed,
        },
    )
    _write_text(out_dir / "grid_results.txt", render_grid_table(candidates, config.loss))
    winner = candidates[0]
    # Failed candidates rank last, so a failed winner means every one failed.
    if winner.error is not None:
        raise ValueError(f"all {len(candidates)} grid candidates failed; first: {winner.error}")
    print(f"best: {params_label(winner.params)} mean={winner.mean:.5f} (+/-{winner.std:.5f})")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    config = _config_from_args(args, "compare")
    documents, labels = _train_split(out_dir)
    tuned = (read_json(args.tuned_from, parse=lambda results: winner_params(results, config))
             if args.tuned_from else config)
    # The default arm keeps loss, epochs and SMOTE; its six tuned values are the defaults.
    default = replace(config, **{f: getattr(PipelineConfig(), f) for f in TUNED_FIELDS})
    # Each arm is timed in a call of its own, on the fold plan of their one seed.
    default_report, tuned_report = (_cross_validate_one(documents, labels, arm, args.k)
                                    for arm in (default, tuned))
    mean_delta = tuned_report.mean - default_report.mean
    _write_json(
        out_dir / "compare.json",
        {
            "loss": config.loss,
            "k": args.k,
            "seed": args.seed,
            "default_params": params_to_dict(default),
            "tuned_params": params_to_dict(tuned),
            "default": asdict(default_report),
            "tuned": asdict(tuned_report),
            "mean_delta": mean_delta,
            "time_delta_seconds": tuned_report.total_seconds - default_report.total_seconds,
        },
    )
    lines = [
        "Arm\tClassifier\tAccuracy",
        f"default\t{config.loss}\t{render_cv_line(default_report)}",
        f"tuned\t{config.loss}\t{render_cv_line(tuned_report)}",
        f"delta\t{config.loss}\t{mean_delta:+.5f}",
    ]
    _write_text(out_dir / "compare.txt", "\n".join(lines) + "\n")
    print(lines[1])
    print(lines[2])
    return EXIT_OK


def _add_pipeline_flags(
    parser: argparse.ArgumentParser, names: Sequence[str] = tuple(PIPELINE_FLAGS)
) -> None:
    """Add the flags of the named PipelineConfig fields, by default all ten."""
    for name in names:
        flag, options = PIPELINE_FLAGS[name]
        parser.add_argument(flag, dest=name, default=argparse.SUPPRESS, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgdtext",
        description="Train and evaluate one-vs-rest linear text classifiers with SGD.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    prepare = sub.add_parser("prepare", help="clean a CSV corpus and write a split manifest")
    prepare.add_argument("--input", required=True, help="labeled CSV file")
    prepare.add_argument("--schema", choices=sorted(corpus.SCHEMAS), default="generic")
    stop = prepare.add_mutually_exclusive_group()
    stop.add_argument("--stopwords", help="stop-word file; defaults to the packaged list")
    stop.add_argument("--no-stopwords", action="store_true", help="disable stop-word removal")
    prepare.add_argument("--split", type=_fraction, default=0.7, metavar="FRACTION")
    prepare.add_argument("--seed", type=int, default=0)
    prepare.add_argument("--out", required=True, help="output directory")
    prepare.set_defaults(func=cmd_prepare)

    train = sub.add_parser("train", help="fit the vectorizer and model on the training split")
    _add_pipeline_flags(train)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True, help="directory with prepare outputs")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser(
        "eval",
        help="score a trained model on the held-out split",
        description="Score a trained model. Pipeline flags and --seed, where given, must "
        "match what train recorded in tfidf.json and train_meta.json.",
    )
    _add_pipeline_flags(evaluate, [name for name in PIPELINE_FLAGS if name != "smote_k"])
    evaluate.add_argument("--on", choices=("test", "train"), default="test")
    evaluate.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    evaluate.add_argument("--out", required=True, help="directory with prepare+train outputs")
    evaluate.set_defaults(func=cmd_eval)

    crossval = sub.add_parser("crossval", help="stratified k-fold CV on the training split")
    _add_pipeline_flags(crossval)
    crossval.add_argument("--k", type=_fold_count, default=10)
    crossval.add_argument("--seed", type=int, default=0)
    crossval.add_argument("--out", required=True)
    crossval.set_defaults(func=cmd_crossval)

    gridsearch = sub.add_parser("gridsearch", help="exhaustive hyperparameter sweep")
    # The grid sets the six tuned fields.
    _add_pipeline_flags(gridsearch, ("loss", "epochs", "smote", "smote_k"))
    gridsearch.add_argument("--grid", help="JSON grid spec; omit for the default grid")
    gridsearch.add_argument("--jobs", type=_positive_int, default=1)
    gridsearch.add_argument("--seed", type=int, default=0)
    gridsearch.add_argument("--out", required=True)
    gridsearch.set_defaults(func=cmd_gridsearch)

    compare = sub.add_parser("compare", help="default-vs-tuned CV comparison")
    _add_pipeline_flags(compare)
    compare.add_argument("--tuned-from", help="grid_results.json to take the winner from")
    compare.add_argument("--k", type=_fold_count, default=10)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--out", required=True)
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    given = vars(args)
    if "smote_k" in given and "smote" not in given:
        parser.error("--smote-k is read only with --smote")
    tuned = [PIPELINE_FLAGS[name][0] for name in TUNED_FIELDS if name in given]
    if given.get("tuned_from") and tuned:
        parser.error(f"--tuned-from sets the tuned values; drop {' '.join(tuned)}")
    try:
        return args.func(args)
    except sgd.NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CrossValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.__cause__
        return EXIT_NUMERIC if isinstance(cause, sgd.NumericError) else EXIT_DATA
    except FileNotFoundError as exc:
        print(f"error: required file is missing: {exc.filename}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, corpus.CorpusError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
