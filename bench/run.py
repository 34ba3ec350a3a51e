"""Benchmark for the sgdtext CLI: seeded synthetic corpora, timed commands, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload flow --seed 0 --seconds 40 --trace 0

It generates the workload's corpus from --seed, then repeats the
workload's command sequence through ``sgdtext.cli.main`` in this process
(one thread, ``--jobs 1``) until --seconds is spent, each repetition in a
fresh output directory. Timings are medians over the repetitions, in
reference seconds: hostspeed.py samples the host's speed throughout the
run and scales every interval to a fixed host speed, so that the shared
machine's drift cancels out. Raw wall times are printed beside them.

Every command must exit 0, every artifact must match across repetitions
(ignoring wall-clock keys), the workload's sanity checks must hold, and at
the default seed the headline results must equal ``reference.json``.

With ``--trace 1`` repetitions alternate between untraced and traced; the
traced ones wrap each layer's public functions (see spans.py) and give the
per-layer metrics, and the difference of the two medians is the tracing
overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_REPS = 5
COMMANDS = ("prepare", "train", "eval", "crossval", "gridsearch", "compare")
# Wall-clock values the program writes; everything else must repeat exactly.
# compare.json stores time_delta outside the *_seconds convention.
TIMING_KEYS = ("time_delta",)


@dataclass(frozen=True)
class Workload:
    n_docs: int
    prior: tuple[float, ...]
    # Set per workload so that the headline accuracy varies little from seed
    # to seed (quartile spread under 3% over ten seeds) and stays below 1.0.
    topic_share: float
    commands: tuple[tuple[str, ...], ...]


# Shaped like the attack-type prior of the GTD export the paper uses.
GTD_PRIOR = (0.47, 0.36, 0.09, 0.04, 0.02, 0.02)
STEEP_PRIOR = (0.60, 0.25, 0.06, 0.04, 0.03, 0.02)

# Why each workload exists is recorded in BENCHMARK.json; sizes are chosen
# so one repetition takes a few seconds on a 2-core machine.
WORKLOADS = {
    "flow": Workload(
        n_docs=3000,
        prior=GTD_PRIOR,
        topic_share=0.25,
        commands=(
            ("prepare",),
            ("train", "--ngram", "1,2"),
            ("eval", "--ngram", "1,2"),
            ("crossval", "--ngram", "1,2", "--k", "5"),
        ),
    ),
    "grid": Workload(
        n_docs=150,
        prior=GTD_PRIOR,
        topic_share=0.5,
        commands=(
            ("prepare",),
            ("gridsearch",),
            # The tuned arm is fixed rather than taken from the grid winner
            # (--tuned-from): the winner changes with the seed, and with it
            # compare's cost, by up to 1.8x between seeds.
            ("compare", "--ngram", "1,2", "--penalty", "l1", "--alpha", "0.001"),
        ),
    ),
    "smote": Workload(
        n_docs=800,
        prior=STEEP_PRIOR,
        topic_share=0.3,
        commands=(
            ("prepare",),
            ("crossval", "--smote", "--ngram", "1,2", "--k", "5"),
        ),
    ),
}

# Counters computed from call arguments and results: they must repeat exactly.
COUNT_KEYS = (
    "corpus.rows",
    "corpus.dropped",
    "features.fit_calls",
    "features.fit_distinct_ratio",
    "features.transform_docs",
    "features.vocab_size",
    "features.mean_nnz",
    "resample.knn_queries",
    "resample.synthetic",
    "sgd.fit_calls",
    "sgd.sample_updates",
    "sgd.predict_docs",
    "evaluation.folds",
    "search.candidates",
    "search.candidates_failed",
)

# Per-layer busy (self) times: metric name -> span name.
BUSY_KEYS = {
    "corpus.load_s": "corpus.load_corpus",
    "corpus.split_s": "corpus.split",
    "features.fit_s": "features.fit",
    "features.transform_s": "features.transform",
    "features.save_s": "features.save_tfidf",
    "features.load_s": "features.load_tfidf",
    "resample.smote_s": "resample.smote",
    "resample.knn_s": "resample.knn_indices",
    "resample.interpolate_s": "resample.interpolate",
    "sgd.fit_s": "sgd.fit_multiclass",
    "sgd.predict_s": "sgd.predict",
    "sgd.save_s": "sgd.save_model",
    "sgd.load_s": "sgd.load_model",
    "pipeline.fit_self_s": "pipeline.fit_pipeline",
    "pipeline.predict_self_s": "pipeline.predict_pipeline",
    "evaluation.cv_self_s": "evaluation.cross_validate",
    "evaluation.kfold_s": "evaluation.stratified_kfold",
    "search.grid_self_s": "search.grid_search",
    **{f"cli.{c}.self_s": f"cli.{c}" for c in COMMANDS},
}
TIME_KEYS = (*BUSY_KEYS, "sgd.fit_l1_s", "sgd.fit_l2_s")


@dataclass
class Rep:
    traced: bool
    # perf_counter (start, end) of each command; seconds are filled in from
    # them, in reference seconds, once the run is over.
    intervals: dict[str, tuple[float, float]] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    failed: list[tuple[str, str]] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    fits_by_command: dict[str, tuple[int, int]] = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    @property
    def raw_wall(self) -> float:
        return sum(end - start for start, end in self.intervals.values())


def _strip_timings(value):
    if isinstance(value, dict):
        return {
            k: _strip_timings(v)
            for k, v in value.items()
            if not (k.endswith("_seconds") or k in TIMING_KEYS)
        }
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        stripped = _strip_timings(json.loads(data))
        data = json.dumps(stripped, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    if not directory.is_dir():
        return {}
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size) for p in directory.iterdir()}


def run_command(cli, argv: list[str], tracer=None) -> tuple[tuple[float, float], object, str]:
    """Run one CLI command in-process; returns ((start, end), exit code or error, stdout)."""
    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = tracer.span(f"cli.{argv[0]}", cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed operation, not a crash of the bench
        code = f"{type(exc).__name__}: {exc}"
    return (started, time.perf_counter()), code, out.getvalue()


def run_rep(cli, workload: Workload, csv_path: Path, out_dir: Path, tracer=None) -> Rep:
    rep = Rep(traced=tracer is not None)
    for command in workload.commands:
        name = command[0]
        argv = list(command)
        if name == "prepare":
            argv += ["--input", str(csv_path)]
        argv += ["--out", str(out_dir), "--seed", "0"]
        before = _snapshot(out_dir)
        rep.intervals[name], code, stdout = run_command(cli, argv, tracer)
        if code != 0:
            rep.failed.append((name, f"exit {code!r}"))
            continue
        rep.digests[f"{name}:stdout"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        for fname, stamp in sorted(_snapshot(out_dir).items()):
            if before.get(fname) != stamp:
                rep.digests[f"{name}:{fname}"] = _digest(out_dir / fname)
    return rep


def layer_metrics(spans: list, own: list[float]) -> tuple[dict[str, float], dict[str, tuple[int, int]]]:
    """Per-layer busy times and counters of one traced repetition, given each span's self time."""
    busy: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for span, seconds in zip(spans, own):
        busy[span.name] += seconds
        calls[span.name] += 1
    metrics = {key: busy[name] for key, name in BUSY_KEYS.items()}

    def infos(name: str) -> list:
        return [s.info for s in spans if s.name == name]

    # Distinct vectorizers are counted within each command: separate
    # commands run as separate processes, so they cannot share a fit.
    root = []
    fit_keys: dict[str, list] = {}
    for i, span in enumerate(spans):
        root.append(i if span.parent < 0 else root[span.parent])
        if span.name == "features.fit":
            command = spans[root[i]].name.removeprefix("cli.")
            fit_keys.setdefault(command, []).append(span.info[0])
    fits_by_command = {c: (len(set(keys)), len(keys)) for c, keys in fit_keys.items()}
    fit_calls = calls["features.fit"]
    distinct = sum(d for d, _ in fits_by_command.values())
    vocab = [size for _, size in infos("features.fit")]
    transforms = calls["features.transform"]
    sgd_fits = infos("sgd.fit_multiclass")
    for penalty in ("l1", "l2"):
        metrics[f"sgd.fit_{penalty}_s"] = sum(
            t for s, t in zip(spans, own) if s.name == "sgd.fit_multiclass" and s.info[0] == penalty
        )
    loads = infos("corpus.load_corpus")
    grids = infos("search.grid_search")
    metrics.update(
        {
            "corpus.rows": sum(rows for rows, _ in loads),
            "corpus.dropped": sum(dropped for _, dropped in loads),
            "features.fit_calls": fit_calls,
            "features.fit_distinct_ratio": distinct / fit_calls if fit_calls else 0.0,
            "features.transform_docs": transforms,
            "features.vocab_size": statistics.fmean(vocab) if vocab else 0.0,
            "features.mean_nnz": sum(infos("features.transform")) / transforms if transforms else 0.0,
            "resample.knn_queries": calls["resample.knn_indices"],
            "resample.synthetic": sum(infos("resample.smote")),
            "sgd.fit_calls": len(sgd_fits),
            "sgd.sample_updates": sum(updates for _, updates in sgd_fits),
            "sgd.predict_docs": calls["sgd.predict"],
            "evaluation.folds": sum(infos("evaluation.stratified_kfold")),
            "search.candidates": sum(n for n, _ in grids),
            "search.candidates_failed": sum(f for _, f in grids),
        }
    )
    return metrics, fits_by_command


def _load_json(path: Path):
    return json.loads(path.read_text("utf-8"))


def _param_label(params: dict) -> str:
    lo, hi = params["ngram_range"]
    return (
        f"{lo},{hi}/{params['norm']}/{params['use_idf']}/{params['smooth_idf']}"
        f"/{params['penalty']}/{params['alpha']!r}"
    )


# The command whose artifact gives each workload's accuracy, and the
# commands behind the other reference values.
SCORED_BY = {"flow": "eval", "grid": "gridsearch", "smote": "crossval"}
REFERENCE_SOURCES = {
    "cv_fold_accuracies": "crossval",
    "rank_order": "gridsearch",
    "compare_delta": "compare",
}


def headline(name: str, out_dir: Path) -> dict:
    """The results checked against reference.json; 'accuracy' is the reported metric."""
    if name == "flow":
        accuracy = _load_json(out_dir / "eval_report.json")["summary"]["accuracy"]
        folds = _load_json(out_dir / "cv_report.json")["fold_accuracies"]
        return {"accuracy": accuracy, "cv_fold_accuracies": folds}
    if name == "grid":
        grid = _load_json(out_dir / "grid_results.json")["candidates"]
        ranked = sorted(grid, key=lambda c: c["rank"])
        compare = _load_json(out_dir / "compare.json")
        return {
            "accuracy": ranked[0]["mean"],
            "rank_order": [_param_label(c["params"]) for c in ranked],
            "compare_delta": compare["mean_delta"],
        }
    cv = _load_json(out_dir / "cv_report.json")
    return {"accuracy": cv["mean"], "cv_fold_accuracies": cv["fold_accuracies"]}


def sanity_problems(
    name: str, out_dir: Path, top: dict, n_docs: int, n_noise: int
) -> list[tuple[str, str]]:
    """Checks that hold at every seed: row accounting, shapes, and beating the majority class."""
    problems: list[tuple[str, str]] = []
    split = _load_json(out_dir / "split.json")
    if split["row_count"] != n_docs + n_noise or split["drop_count"] != n_noise:
        problems.append((
            "prepare",
            f"{split['row_count']} rows / {split['drop_count']} dropped, "
            f"expected {n_docs + n_noise} / {n_noise}",
        ))
    hist = split["class_histogram"]
    majority = max(row["train"] + row["test"] for row in hist.values()) / n_docs
    if not top["accuracy"] > majority:
        problems.append(
            (SCORED_BY[name], f"accuracy {top['accuracy']} does not beat the majority share {majority}")
        )
    if name == "grid":
        grid = _load_json(out_dir / "grid_results.json")["candidates"]
        if [c["rank"] for c in grid] != list(range(1, 97)) or any(c["error"] for c in grid):
            problems.append(("gridsearch", "expected 96 ranked candidates without errors"))
        compare = _load_json(out_dir / "compare.json")
        if _param_label(compare["tuned_params"]) != "1,2/l2/True/True/l1/0.001":
            problems.append(("compare", "tuned parameters are not the ones given"))
    else:
        folds = _load_json(out_dir / "cv_report.json")["fold_accuracies"]
        if len(folds) != 5:
            problems.append(("crossval", f"{len(folds)} folds, expected 5"))
    return problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(cli, spans, workload: Workload, csv_path: Path, work: Path,
            seconds: float, trace: bool) -> list[Rep]:
    """Repeat the workload until the next repetition would overrun the time budget.

    With trace, odd repetitions run with the span wrappers installed.
    Repetition 0 keeps its output directory for the checks.
    """
    reps: list[Rep] = []
    started = time.perf_counter()
    min_reps = 4 if trace else 2
    while True:
        tracer = spans.Tracer() if trace and len(reps) % 2 == 1 else None
        out_dir = work / f"rep{len(reps)}"
        gc.collect()
        if tracer is None:
            rep = run_rep(cli, workload, csv_path, out_dir)
        else:
            with tracer:
                rep = run_rep(cli, workload, csv_path, out_dir, tracer)
            rep.spans = tracer.spans
        reps.append(rep)
        if len(reps) > 1:
            shutil.rmtree(out_dir, ignore_errors=True)
        elapsed = time.perf_counter() - started
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


class Checks:
    """Operations attempted and the failures charged to each."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[tuple, list[str]] = {}

    def record(self, op: tuple, ok: bool, message: str) -> None:
        if not ok:
            self.failures.setdefault(op, []).append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def messages(self) -> list[str]:
        return [f"{' '.join(map(str, op))}: {m}" for op, ms in self.failures.items() for m in ms]


def check_reps(checks: Checks, reps: list[Rep], workload_name: str, out_dir: Path,
               n_docs: int, n_noise: int, seed: int, scale: float) -> dict:
    """Charge every failed command or output check to its command; returns the headline."""
    workload = WORKLOADS[workload_name]
    base = reps[0]
    for index, rep in enumerate(reps):
        checks.attempted += len(workload.commands)
        for command, message in rep.failed:
            checks.record(("rep", index, command), False, message)
        for key, digest in rep.digests.items():
            command, artifact = key.split(":", 1)
            checks.record(("rep", index, command), base.digests.get(key) == digest,
                          f"{artifact} differs from repetition 0")
    traced = [r for r in reps if r.traced]
    for index, rep in enumerate(traced[1:], start=1):
        checks.attempted += 1
        changed = [k for k in COUNT_KEYS if rep.layers[k] != traced[0].layers[k]]
        checks.record(("counters", index), not changed,
                      f"{changed} differ from the first traced repetition")
    top = {"accuracy": 0.0}
    if base.failed:
        return top
    scored_by = SCORED_BY[workload_name]
    try:
        top = headline(workload_name, out_dir)
        problems = sanity_problems(workload_name, out_dir, top, n_docs, n_noise)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [(scored_by, f"unreadable artifact: {type(exc).__name__}: {exc}")]
    for command, message in problems:
        checks.record(("rep", 0, command), False, message)
    if seed == DEFAULT_SEED and scale == 1.0:
        reference = json.loads(REFERENCE_PATH.read_text("utf-8"))[workload_name]
        for key, expected in reference.items():
            command = REFERENCE_SOURCES.get(key, scored_by)
            checks.record(("rep", 0, command), top.get(key) == expected,
                          f"{key} = {top.get(key)!r}, expected {expected!r} (reference.json)")
    return top


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply corpus sizes (the self-test uses a tiny scale)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sgdtext" / "cli.py").is_file():
        print(f"error: no sgdtext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One thread: BLAS worker pools on a small shared machine would time the scheduler.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH))
    import hostspeed

    with hostspeed.HostSpeed() as host:
        return run(args, host)


def import_program():
    """Import sgdtext.cli with every sgdtext module loaded afresh."""
    for name in [n for n in sys.modules if n.split(".")[0] == "sgdtext"]:
        del sys.modules[name]
    from sgdtext import cli

    return cli


def run(args: argparse.Namespace, host) -> int:
    """Set up, measure and check one run while host samples the host's speed.

    Intervals are converted to reference seconds once the run is over, when
    the speed samples on both sides of each interval exist.
    """
    import spans
    import synth

    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    n_docs = max(60, round(workload.n_docs * args.scale))
    spec = synth.CorpusSpec(n_docs, workload.prior, topic_share=workload.topic_share)
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    csv_path = work / "input.csv"

    # Set-up is timed SETUP_REPS times, each importing the program afresh;
    # the benchmark runs the last import.
    checks = Checks()
    setup_intervals = []
    first_csv = None
    for index in range(SETUP_REPS):
        started = time.perf_counter()
        cli = import_program()
        rows = synth.generate_rows(spec, args.seed)
        synth.write_csv(rows, csv_path)
        setup_intervals.append((started, time.perf_counter()))
        data = csv_path.read_bytes()
        first_csv = first_csv or data
        checks.attempted += 1
        checks.record(("setup", index), data == first_csv,
                      "the corpus CSV differs between generations from one seed")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported sgdtext from {cli.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    n_noise = len(rows) - n_docs

    started = time.perf_counter()
    reps = measure(cli, spans, workload, csv_path, work, args.seconds, bool(args.trace))
    elapsed = time.perf_counter() - started
    for rep in reps:
        rep.seconds = {c: host.reference_seconds(*iv) for c, iv in rep.intervals.items()}
        if rep.traced:
            own = spans.self_times(rep.spans, lambda s: host.reference_seconds(s.start, s.end))
            rep.layers, rep.fits_by_command = layer_metrics(rep.spans, own)
    setup_seconds = _median([host.reference_seconds(*iv) for iv in setup_intervals])
    top = check_reps(checks, reps, args.workload, work / "rep0", n_docs, n_noise,
                     args.seed, args.scale)
    shutil.rmtree(work / "rep0", ignore_errors=True)
    csv_path.unlink()

    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    walls = [r.wall for r in untraced]
    command_medians = {
        c: _median([r.seconds[c] for r in untraced if c in r.seconds]) for c in COMMANDS
    }
    print(f"workload {args.workload}: seed {args.seed}, {n_docs} documents, "
          f"{len(untraced)} untraced / {len(traced)} traced repetitions in {elapsed:.1f} s; "
          f"raw median wall {_median([r.raw_wall for r in untraced]):.6g} s, "
          f"reference kernel median {1000 * _median(host.durations):.4g} ms "
          f"over {len(host.durations)} samples")
    for message in checks.messages():
        print(f"  FAILED {message}")

    if args.trace:
        values = {key: _median([r.layers[key] for r in traced]) for key in TIME_KEYS}
        values.update({key: traced[0].layers[key] for key in COUNT_KEYS})
        values.update({f"cmd.{c}_s": command_medians[c] for c in COMMANDS})
        values["trace.overhead_s"] = _median([r.wall for r in traced]) - _median(walls)
        for command, (distinct, fits) in traced[0].fits_by_command.items():
            print(f"  features.fit distinct in {command}: {distinct}/{fits}")
        with (work / "spans.json").open("w", encoding="utf-8") as fh:
            json.dump([[[s.name, s.start, s.end, s.parent] for s in r.spans] for r in traced], fh)
    else:
        wall = _median(walls)
        values = {
            "setup_s": setup_seconds,
            "wall_s": wall,
            "docs_per_s": n_docs / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "accuracy": top["accuracy"],
        }
        # Commands a workload does not run have no time: printed here, not reported.
        for command in COMMANDS:
            if command_medians[command]:
                print(f"  {command + '_s':<28} {command_medians[command]:.6g} s")
    listed = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))[
        "per_layer" if args.trace else "end_to_end"
    ]
    if {m["name"] for m in listed} != set(values):
        raise SystemExit(f"error: metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for key, metric in metrics.items():
        print(f"  {key:<28} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<28} {checks.failed / checks.attempted:.6g} ratio "
          f"({checks.failed}/{checks.attempted}); timings are medians of "
          f"{len(traced) if args.trace else len(untraced)} repetitions")

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
