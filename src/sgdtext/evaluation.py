"""Confusion matrices, per-class metrics, stratified folds, and the CV runner."""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import features, sgd
from .corpus import by_class
from .pipeline import PipelineConfig, fit_group, predict_group
from .seeds import substream

# The averaged metrics, in the order of ClassReport's average tuples.
AVERAGED = ("precision", "recall", "f1")


class CrossValidationError(RuntimeError):
    """A fold failed; carries the fold index and the underlying cause."""

    def __init__(self, fold: int, message: str) -> None:
        super().__init__(f"fold {fold}: {message}")
        self.fold = fold


@dataclass(eq=False)
class ConfusionMatrix:
    """counts[i][j] = samples of true class classes[i] predicted as classes[j]."""

    counts: np.ndarray
    classes: list[int]


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class ClassReport:
    classes: list[int]
    per_class: dict[int, ClassMetrics]
    macro_avg: tuple[float, float, float]
    weighted_avg: tuple[float, float, float]
    accuracy: float
    total_support: int


@dataclass(frozen=True)
class FoldPlan:
    folds: list[list[int]]


@dataclass
class CvReport:
    """One config's fold accuracies and its call's fold times; asdict gives its JSON form.

    Wall-clock values sit in their own keys, so determinism checks can
    compare everything else byte for byte.
    """

    fold_accuracies: list[float]
    mean: float
    std: float
    fold_seconds: list[float]
    total_seconds: float


def confusion(
    true_labels: Sequence[int], predicted_labels: Sequence[int], classes: Sequence[int]
) -> ConfusionMatrix:
    """Count (true, predicted) pairs over the given class list."""
    if len(true_labels) != len(predicted_labels):
        raise ValueError("true and predicted labels must have equal length")
    class_list = [int(c) for c in classes]
    index = {c: i for i, c in enumerate(class_list)}
    if len(index) != len(class_list):
        raise ValueError(f"the class list {class_list} lists a class twice")
    counts = np.zeros((len(class_list), len(class_list)), dtype=np.int64)
    for t, p in zip(true_labels, predicted_labels):
        if int(t) not in index:
            raise ValueError(f"unknown true label {t!r}")
        if int(p) not in index:
            raise ValueError(f"unknown predicted label {p!r}")
        counts[index[int(t)], index[int(p)]] += 1
    return ConfusionMatrix(counts=counts, classes=class_list)


def _safe_div(numerator: float, denominator: float) -> float:
    # 0/0 is defined as 0 so absent classes report zero metrics.
    return numerator / denominator if denominator else 0.0


def per_class_metrics(cm: ConfusionMatrix) -> ClassReport:
    """Precision/recall/F1 per class plus macro, weighted, and accuracy rows.

    Macro averages are unweighted arithmetic means over classes; weighted
    averages scale each class by its support.
    """
    counts = cm.counts
    total = int(counts.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    per_class: dict[int, ClassMetrics] = {}
    for i, cls in enumerate(cm.classes):
        tp = float(counts[i, i])
        support = int(counts[i, :].sum())
        predicted = float(counts[:, i].sum())
        precision = _safe_div(tp, predicted)
        recall = _safe_div(tp, float(support))
        f1 = _safe_div(2.0 * precision * recall, precision + recall)
        per_class[cls] = ClassMetrics(precision, recall, f1, support)
    metrics = per_class.values()
    macro = tuple(sum(getattr(m, name) for m in metrics) / len(metrics) for name in AVERAGED)
    weighted = tuple(
        sum(getattr(m, name) * m.support for m in metrics) / total for name in AVERAGED
    )
    accuracy = float(np.trace(counts)) / total
    return ClassReport(
        classes=list(cm.classes),
        per_class=per_class,
        macro_avg=macro,
        weighted_avg=weighted,
        accuracy=accuracy,
        total_support=total,
    )


def stratified_kfold(labels: Sequence[int], k: int, seed: int) -> FoldPlan:
    """Partition indices into k folds preserving per-class proportions within one.

    Members of each class are shuffled with the seeded generator, then dealt
    round-robin. The dealing position carries over from class to class, so
    k = N degenerates to leave-one-out.
    """
    n = len(labels)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available samples")
    groups = by_class(labels)
    small = [c for c, members in groups.items() if len(members) < k]
    if small:
        warnings.warn(
            f"classes {small} have fewer than k={k} members; some folds will lack them",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    dealt = [i for members in groups.values() for i in rng.permutation(members).tolist()]
    folds = [sorted(dealt[f::k]) for f in range(k)]
    return FoldPlan(folds=folds)


def cross_validate(
    documents: Sequence[Sequence[str]],
    labels: Sequence[int],
    configs: Sequence[PipelineConfig],
    k: int,
) -> list[CvReport | CrossValidationError]:
    """Stratified k-fold accuracy of the full pipeline for each config, on one fold plan.

    The configs must share one seed, or this raises ValueError: the fold
    plan and each fold's training seed derive from it. The documents are
    counted once per distinct n-gram range, and each fold takes its rows of
    those counts once. Every fold refits the vectorizer (and the optional
    resampler) on its k-1 training folds only, so the held-out fold never
    leaks into the vocabulary. Each fold fits the configs that share an
    n-gram range and an sgd.pass_key as one group (pipeline.fit_group,
    one stacked SGD pass), predicts its held-out rows as one group
    (pipeline.predict_group), and frees the group before the next. Returns
    one CvReport per config, in order; a config whose fold
    fails gets that fold's CrossValidationError, with the failure as its
    __cause__, sits out the remaining folds, and the other configs carry on.
    std is the population value. Every report carries the call's k
    fold_seconds, one clock per fold around all of its work, and their sum,
    total_seconds; a config timed on its own takes a call of its own.
    """
    n = len(documents)
    if len(labels) != n:
        raise ValueError("documents and labels must have equal length")
    seeds = sorted({config.seed for config in configs})
    if len(seeds) != 1:
        raise ValueError(f"the configs need one seed, got {seeds}")
    plan = stratified_kfold(labels, k, substream(seeds[0], "folds"))
    ranges = dict.fromkeys(config.ngram_range for config in configs)
    counts = {r: features.count(documents, r) for r in ranges}
    all_indices = set(range(n))
    accuracies: list[list[float]] = [[] for _ in configs]
    fold_seconds: list[float] = []
    failed: dict[int, CrossValidationError] = {}
    groups: dict[tuple, list[int]] = {}
    for c, config in enumerate(configs):
        groups.setdefault((config.ngram_range, *sgd.pass_key(config)), []).append(c)
    for fold_index, held_out in enumerate(plan.folds):
        started = time.perf_counter()
        train_indices = sorted(all_indices.difference(held_out))
        train_labels = [labels[i] for i in train_indices]
        sides = {r: (c.take(train_indices), c.take(held_out)) for r, c in counts.items()}
        fold_seed = substream(seeds[0], f"fold-{fold_index}")
        for members in groups.values():
            live = [c for c in members if c not in failed]
            if not live:
                continue
            train_counts, held_out_counts = sides[configs[live[0]].ngram_range]
            group = [configs[c].reseed(fold_seed) for c in live]
            predicted = predict_group(fit_group(train_counts, train_labels, group), held_out_counts)
            for c, predictions in zip(live, predicted):
                if isinstance(predictions, Exception):  # a failed fit; the others carry on
                    failed[c] = CrossValidationError(fold_index, str(predictions))
                    failed[c].__cause__ = predictions
                    continue
                correct = sum(1 for i, pred in zip(held_out, predictions) if pred == labels[i])
                accuracies[c].append(correct / len(held_out))
        del sides  # free this fold's rows before the next fold takes its own
        fold_seconds.append(time.perf_counter() - started)
    return [
        failed[c] if c in failed else CvReport(
            fold_accuracies=accuracies[c],
            mean=float(np.mean(accuracies[c])),
            std=float(np.std(accuracies[c])),
            fold_seconds=list(fold_seconds),
            total_seconds=sum(fold_seconds),
        )
        for c in range(len(configs))
    ]


def report_to_dict(report: ClassReport) -> dict:
    return {
        "classes": report.classes,
        "per_class": {str(cls): asdict(m) for cls, m in report.per_class.items()},
        "macro_avg": dict(zip(AVERAGED, report.macro_avg)),
        "weighted_avg": dict(zip(AVERAGED, report.weighted_avg)),
        "accuracy": report.accuracy,
        "total_support": report.total_support,
    }


def render_class_report(report: ClassReport) -> str:
    """Tab-separated table: one 5-decimal row per class plus the avg / total row.

    Row names are cat<id> built from each class id, so integer labels 1..K
    render as cat1..catK.
    """
    lines = ["\tprecision\trecall\tf1-score\tsupport"]
    for cls in report.classes:
        m = report.per_class[cls]
        lines.append(f"cat{cls}\t{m.precision:.5f}\t{m.recall:.5f}\t{m.f1:.5f}\t{m.support}")
    wp, wr, wf = report.weighted_avg
    lines.append(f"avg / total\t{wp:.5f}\t{wr:.5f}\t{wf:.5f}\t{report.total_support}")
    return "\n".join(lines) + "\n"


def render_cv_line(report: CvReport) -> str:
    return f"{report.mean:.5f} (+/- {report.std:.5f})"
