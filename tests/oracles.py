"""Reference implementations the tests compare the library against.

None of these run in the library: they are slow, dense or per-class
versions of what src/ does, kept so a faster or shared path can be checked
against them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from sgdtext.evaluation import ConfusionMatrix
from sgdtext.features import SparseVector
from sgdtext.resample import squared_distance
from sgdtext.sgd import (
    LinearModel,
    LossKind,
    NumericError,
    TrainConfig,
    epoch_orders,
    loss_dmargin,
    loss_value,
    schedule_t0,
)


def _settle_l1(w: np.ndarray, paid: np.ndarray, accrued: float, idx: np.ndarray) -> None:
    """Charge coordinates idx the penalty accrued since they last paid, clipping at zero."""
    owed = accrued - paid[idx]
    z = w[idx]
    w[idx] = np.sign(z) * np.maximum(0.0, np.abs(z) - owed)
    paid[idx] = accrued


def fit_binary_alone(
    X: Sequence[SparseVector],
    y: Sequence[float],
    config: TrainConfig,
    feature_dim: int | None = None,
) -> tuple[np.ndarray, float]:
    """One complete SGD run for a single {-1, +1} label vector.

    This is the trainer as it was before all one-vs-rest rows shared one
    pass; sgd.fit_binary and every row of sgd.fit_multiclass must equal it
    bit for bit.
    """
    y_arr = np.asarray(y, dtype=np.float64)
    if feature_dim is None:
        feature_dim = 1 + max((int(x.indices[-1]) for x in X if x.nnz), default=-1)
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
            x = X[i]
            idx = x.indices
            yi = y_arr[i]
            if l1 and idx.size:
                _settle_l1(w, paid, accrued, idx)
            raw = float(w[idx] @ x.values) if idx.size else 0.0
            margin = yi * (wscale * raw + b)
            g = loss_dmargin(loss, margin)
            if not l1:
                wscale *= 1.0 - eta * alpha
                if wscale < 1e-9:
                    w *= wscale
                    wscale = 1.0
            if g != 0.0:
                if idx.size:
                    w[idx] -= (eta * g * yi / wscale) * x.values
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


def fit_multiclass_per_class(
    X: Sequence[SparseVector], labels: Sequence[int], config: TrainConfig
) -> LinearModel:
    """One-vs-rest as K separate fit_binary_alone runs, one per sorted class."""
    classes = sorted(set(int(c) for c in labels))
    feature_dim = 1 + max((int(x.indices[-1]) for x in X if x.nnz), default=-1)
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
    X: Sequence[SparseVector],
    y: Sequence[float],
    w: np.ndarray,
    b: float,
    loss: LossKind,
    alpha: float,
    penalty: str = "l2",
) -> float:
    """(1/N) sum loss(y_i * (w.x_i + b)) plus the penalty term."""
    n = len(X)
    total = sum(loss_value(loss, float(yi) * (x.dot(w) + b)) for x, yi in zip(X, y))
    if penalty == "l2":
        reg = 0.5 * alpha * float(w @ w)
    else:
        reg = alpha * float(np.abs(w).sum())
    return total / n + reg


def batch_gd_oracle(
    X: Sequence[SparseVector],
    y: Sequence[float],
    config: TrainConfig,
    iterations: int,
    learning_rate: float | None = None,
) -> tuple[np.ndarray, float]:
    """Full-batch gradient descent on the same L2-regularized objective.

    For small problems only; the intercept is trained but not regularized,
    mirroring fit_binary. The default learning rate is the inverse of a
    smoothness bound for the log loss, which makes descent monotone on
    convex problems. Zero iterations returns zero weights.
    """
    if config.penalty != "l2":
        raise ValueError("the batch oracle covers the l2 penalty only")
    n = len(X)
    if n == 0:
        raise ValueError("need at least one training sample")
    feature_dim = 1 + max((int(x.indices[-1]) for x in X if x.nnz), default=-1)
    dense = np.zeros((n, feature_dim), dtype=np.float64)
    for row, x in enumerate(X):
        dense[row, x.indices] = x.values
    y_arr = np.asarray(y, dtype=np.float64)
    if learning_rate is None:
        # Log-loss curvature is at most 1/4 per sample; +1 covers the intercept column.
        bound = 0.25 * float(((dense * dense).sum(axis=1) + 1.0).max()) + config.alpha
        learning_rate = 1.0 / bound
    w = np.zeros(feature_dim, dtype=np.float64)
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


def knn_indices_oracle(points: Sequence[SparseVector], query: int, k: int) -> list[int]:
    """The k nearest points to points[query] by Euclidean distance, excluding itself.

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
    for i, p in enumerate(points):
        d2[i] = np.inf if i == query else squared_distance(points[query], p)
    order = np.argsort(d2, kind="stable")
    return [int(i) for i in order[:k]]
