"""Reference implementations the tests compare the library against.

None of these run in the library: they are slow, dense, per-document or
per-class versions of what src/ does, kept so a faster, batched or shared
path can be checked against them. loss_value gives the losses whose
subgradients the trainer uses, and binary_row is the binary classifier the
tests train through the one-vs-rest trainer.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from sgdtext.evaluation import ConfusionMatrix
from sgdtext.features import NORMS, Row, SparseRows, TfidfModel, extract_ngrams
from sgdtext.pipeline import PipelineConfig
from sgdtext.resample import squared_distance
from sgdtext.sgd import (
    LinearModel,
    NumericError,
    epoch_orders,
    fit_multiclass,
    loss_dmargin,
    schedule_t0,
)


def loss_value(loss: str, margin: float) -> float:
    """The loss at margin m = y * f(x) whose subgradient sgd.loss_dmargin is."""
    if loss == "svm":
        return max(0.0, 1.0 - margin)
    if loss == "logreg":
        if margin < -30.0:
            return -margin
        return math.log1p(math.exp(-margin))
    return max(0.0, -margin)


def normalize(v: Row, norm: str) -> Row:
    """Scale one row to unit L1 or L2 norm; 'none' and the empty row pass through."""
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")
    indices, values = v
    if norm == "none" or indices.size == 0:
        return v
    scale = float(np.abs(values).sum()) if norm == "l1" else float(math.sqrt(values @ values))
    scaled = values / scale
    keep = scaled != 0.0
    if bool(np.all(keep)):
        return indices, scaled
    return indices[keep], scaled[keep]


def transform_document(model: TfidfModel, tokens: Sequence[str]) -> Row:
    """One document at a time, as features.transform worked before it took a batch.

    features.transform must equal a batch of these rows byte for byte.
    """
    empty = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    counts = extract_ngrams(tokens, model.ngram_range)
    if not counts:
        return empty
    vocab = model.vocabulary
    pairs = [(j, count) for gram, count in counts.items() if (j := vocab.get(gram)) is not None]
    if not pairs:
        return empty
    pairs.sort()
    indices = np.asarray([p[0] for p in pairs], dtype=np.int64)
    values = np.asarray([p[1] for p in pairs], dtype=np.float64) * model.idf_array[indices]
    return normalize((indices, values), model.norm)


def transform_documents(model: TfidfModel, documents: Sequence[Sequence[str]]) -> SparseRows:
    return SparseRows.from_rows(transform_document(model, tokens) for tokens in documents)


def _max_feature(X: SparseRows) -> int:
    return int(X.indices.max()) if X.nnz else -1


def _settle_l1(w: np.ndarray, paid: np.ndarray, accrued: float, idx: np.ndarray) -> None:
    """Charge coordinates idx the penalty accrued since they last paid, clipping at zero."""
    owed = accrued - paid[idx]
    z = w[idx]
    w[idx] = np.sign(z) * np.maximum(0.0, np.abs(z) - owed)
    paid[idx] = accrued


def fit_binary_alone(
    X: SparseRows,
    y: Sequence[float],
    config: PipelineConfig,
    feature_dim: int | None = None,
) -> tuple[np.ndarray, float]:
    """One complete SGD run for a single {-1, +1} label vector.

    This is the trainer as it was before all one-vs-rest rows shared one
    pass; every row of sgd.fit_multiclass must equal it bit for bit.
    """
    y_arr = np.asarray(y, dtype=np.float64)
    if feature_dim is None:
        feature_dim = 1 + _max_feature(X)
    alpha = config.alpha
    loss = config.loss
    l1 = config.penalty == "l1"
    w = np.zeros(feature_dim, dtype=np.float64)
    b = 0.0
    wscale = 1.0
    paid = np.zeros(feature_dim, dtype=np.float64) if l1 else None
    accrued = 0.0
    t0 = schedule_t0(loss, alpha)
    t = 0
    for order in epoch_orders(len(X), config):
        for i in order:
            t += 1
            eta = 1.0 / (alpha * (t0 + t))
            idx, vals = X.row(i)
            yi = y_arr[i]
            if l1 and idx.size:
                _settle_l1(w, paid, accrued, idx)
            raw = float(w[idx] @ vals) if idx.size else 0.0
            margin = yi * (wscale * raw + b)
            g = loss_dmargin(loss, margin)
            if not l1:
                wscale *= 1.0 - eta * alpha
                if wscale < 1e-9:
                    w *= wscale
                    wscale = 1.0
            if g != 0.0:
                if idx.size:
                    w[idx] -= (eta * g * yi / wscale) * vals
                b -= eta * g * yi
            if l1:
                accrued += eta * alpha
                if idx.size:
                    _settle_l1(w, paid, accrued, idx)
    if l1:
        _settle_l1(w, paid, accrued, np.arange(feature_dim))
    elif wscale != 1.0:
        w *= wscale
    if not (np.all(np.isfinite(w)) and math.isfinite(b)):
        raise NumericError("training diverged to non-finite weights")
    return w, b


def binary_row(
    X: SparseRows,
    y: Sequence[float],
    config: PipelineConfig,
    feature_dim: int | None = None,
) -> tuple[np.ndarray, float]:
    """The binary classifier for {-1, +1} labels y: row +1 of the one-vs-rest fit.

    Returns (weights, intercept).
    """
    model = fit_multiclass(X, y, config, feature_dim=feature_dim)
    assert model.classes == [-1, 1]
    return model.weights[1], float(model.intercepts[1])


def fit_multiclass_per_class(
    X: SparseRows, labels: Sequence[int], config: PipelineConfig
) -> LinearModel:
    """One-vs-rest as K separate fit_binary_alone runs, one per sorted class."""
    classes = sorted(set(int(c) for c in labels))
    feature_dim = 1 + _max_feature(X)
    labels_arr = np.asarray(labels)
    weights = np.zeros((len(classes), feature_dim), dtype=np.float64)
    intercepts = np.zeros(len(classes), dtype=np.float64)
    for row, cls in enumerate(classes):
        y = np.where(labels_arr == cls, 1.0, -1.0)
        weights[row], intercepts[row] = fit_binary_alone(X, y, config, feature_dim)
    return LinearModel(
        weights=weights, intercepts=intercepts, classes=classes, feature_dim=feature_dim
    )


def regularized_objective(
    X: SparseRows,
    y: Sequence[float],
    w: np.ndarray,
    b: float,
    loss: str,
    alpha: float,
    penalty: str = "l2",
) -> float:
    """(1/N) sum loss(y_i * (w.x_i + b)) plus the penalty term."""
    n = len(X)
    total = 0.0
    for i, yi in enumerate(y):
        idx, vals = X.row(i)
        total += loss_value(loss, float(yi) * (float(w[idx] @ vals) + b))
    if penalty == "l2":
        reg = 0.5 * alpha * float(w @ w)
    else:
        reg = alpha * float(np.abs(w).sum())
    return total / n + reg


def batch_gd_oracle(
    X: SparseRows,
    y: Sequence[float],
    config: PipelineConfig,
    iterations: int,
    learning_rate: float | None = None,
) -> tuple[np.ndarray, float]:
    """Full-batch gradient descent on the same L2-regularized objective.

    For small problems only; the intercept is trained but not regularized,
    mirroring the SGD trainer. The default learning rate is the inverse of a
    smoothness bound for the log loss, which makes descent monotone on
    convex problems. Zero iterations returns zero weights.
    """
    if config.penalty != "l2":
        raise ValueError("the batch oracle covers the l2 penalty only")
    n = len(X)
    if n == 0:
        raise ValueError("need at least one training sample")
    dense = np.zeros((n, 1 + _max_feature(X)), dtype=np.float64)
    for i in range(n):
        idx, vals = X.row(i)
        dense[i, idx] = vals
    y_arr = np.asarray(y, dtype=np.float64)
    if learning_rate is None:
        # Log-loss curvature is at most 1/4 per sample; +1 covers the intercept column.
        bound = 0.25 * float(((dense * dense).sum(axis=1) + 1.0).max()) + config.alpha
        learning_rate = 1.0 / bound
    w = np.zeros(dense.shape[1], dtype=np.float64)
    b = 0.0
    for _ in range(iterations):
        margins = y_arr * (dense @ w + b)
        g = np.fromiter(
            (loss_dmargin(config.loss, float(m)) for m in margins), dtype=np.float64, count=n
        )
        gy = g * y_arr
        grad_w = dense.T @ gy / n + config.alpha * w
        grad_b = float(gy.mean())
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
    return w, b


def micro_averages(cm: ConfusionMatrix) -> tuple[float, float, float]:
    """Micro precision, recall, F1: pooled counts over all classes.

    On a square confusion matrix all three coincide with accuracy.
    """
    tp = float(np.trace(cm.counts))
    total = float(cm.counts.sum())
    precision = recall = tp / total if total else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def knn_indices_oracle(points: SparseRows, query: int, k: int) -> list[int]:
    """The k nearest points to row query of points by Euclidean distance, excluding itself.

    The per-query loop resample.neighbor_table replaced: every row of the
    table must equal it. k is clamped to len(points) - 1; exact distance
    ties resolve to the lower index.
    """
    n = len(points)
    if n < 2:
        raise ValueError("need at least 2 points to have neighbors")
    if not 0 <= query < n:
        raise IndexError(f"query index {query} out of range for {n} points")
    k = min(k, n - 1)
    d2 = np.empty(n, dtype=np.float64)
    for i in range(n):
        d2[i] = np.inf if i == query else squared_distance(points.row(query), points.row(i))
    order = np.argsort(d2, kind="stable")
    return [int(i) for i in order[:k]]
