"""One-vs-rest linear classifiers trained by per-sample stochastic gradient descent.

Per sample t (1-based counter across all epochs) the update is

    eta_t = 1 / (alpha * (t0 + t))
    w    <- w - eta_t * (dloss/dmargin * y * x + penalty_gradient)
    b    <- b - eta_t * (dloss/dmargin * y)

with the intercept b never regularized and t0 anchored so the first step
cannot overshoot a typical weight (see schedule_t0). The L2 penalty
multiplies every coordinate by (1 - eta_t * alpha) each step, applied
through a scalar wscale so the per-step cost stays proportional to the
sample's nonzeros. The L1 penalty is applied lazily: each coordinate pays
the penalty accrued since it was last touched, clipped at zero, which on
dense inputs reduces exactly to per-step soft thresholding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .artifacts import atomic_write, read_json
from .features import SparseRows

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

MODEL_FORMAT_VERSION = 1

LOSSES = ("svm", "logreg", "perceptron")
PENALTIES = ("l1", "l2")


class ModelFormatError(ValueError):
    """A serialized model file is malformed or has the wrong version."""


class NumericError(ValueError):
    """Training produced or was fed non-finite values."""


@dataclass(eq=False)
class LinearModel:
    """Per-class weight rows and intercepts; score_k = w_k . x + b_k."""

    weights: np.ndarray
    intercepts: np.ndarray
    classes: list[int]
    feature_dim: int


def loss_dmargin(loss: str, margin: float) -> float:
    """Subgradient of the loss at margin m = y * f(x), with respect to m.

    The losses are "svm", the hinge max(0, 1 - m); "logreg", the log loss
    log(1 + exp(-m)); and "perceptron", max(0, -m). At the perceptron kink
    (margin 0) the subgradient is -1, not 0: training starts from zero
    weights, where every margin is exactly 0, and choosing 0 there would
    make the zero model a fixed point.
    """
    if loss == "svm":
        return -1.0 if margin < 1.0 else 0.0
    if loss == "logreg":
        if margin >= 0.0:
            em = math.exp(-margin)
            return -em / (1.0 + em)
        return -1.0 / (1.0 + math.exp(margin))
    return -1.0 if margin <= 0.0 else 0.0


def _check_feature_range(X: SparseRows, feature_dim: int) -> None:
    top = int(X.indices.max()) if X.nnz else -1
    if top >= feature_dim:
        raise IndexError(f"feature index {top} out of range for dimension {feature_dim}")


def decision(model: LinearModel, X: SparseRows) -> np.ndarray:
    """Per-class scores w_k . x + b_k: an n x K array, one row per sample."""
    _check_feature_range(X, model.feature_dim)
    scores = np.empty((len(X), len(model.classes)), dtype=np.float64)
    for i in range(len(X)):
        idx, vals = X.row(i)
        scores[i] = model.weights[:, idx] @ vals
    return scores + model.intercepts


def predict(model: LinearModel, X: SparseRows) -> list[int]:
    """Class id with the highest score per sample; ties break toward the lowest class index."""
    return [model.classes[k] for k in np.argmax(decision(model, X), axis=1).tolist()]


def schedule_t0(loss: str, alpha: float) -> float:
    """Anchor of the 1/(alpha*(t0+t)) schedule.

    Chooses the initial step so a typical-magnitude weight (1/alpha^(1/4),
    where the regularizer pins the optimum's scale) moves by at most its
    own size on step one: eta_1 * |dloss| <= typw for any unit feature.
    """
    typw = math.sqrt(1.0 / math.sqrt(alpha))
    eta0 = typw / max(1.0, -loss_dmargin(loss, -typw))
    return 1.0 / (alpha * eta0)


def epoch_orders(n: int, config: PipelineConfig) -> list[np.ndarray]:
    """Seeded visit order for each epoch: a fresh permutation of range(n) per epoch."""
    rng = np.random.default_rng(config.seed)
    return [rng.permutation(n) for _ in range(config.epochs)]


def _check_finite_inputs(X: SparseRows) -> None:
    bad = np.flatnonzero(~np.isfinite(X.values))
    if bad.size:
        position = int(np.searchsorted(X.indptr, bad[0], side="right")) - 1
        raise NumericError(f"sample {position} has non-finite feature values")


def _soft_threshold(z: np.ndarray, owed: np.ndarray | float) -> np.ndarray:
    return np.sign(z) * np.maximum(0.0, np.abs(z) - owed)


def _fit_rows(
    X: SparseRows, Y: np.ndarray, config: PipelineConfig, feature_dim: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Train one weight row and intercept per column of Y, an n x K matrix of +-1 labels.

    The visit order, step size, wscale and L1 accrual depend only on the step
    count, so all K rows share one pass. Each margin is its own dot product
    over a contiguous row, which keeps every row bitwise equal to a lone fit.
    """
    _check_finite_inputs(X)
    if feature_dim is None:
        feature_dim = 1 + (int(X.indices.max()) if X.nnz else -1)
    _check_feature_range(X, feature_dim)
    alpha = config.alpha
    loss = config.loss
    l1 = config.penalty == "l1"
    W = np.zeros((Y.shape[1], feature_dim), dtype=np.float64)
    B = [0.0] * Y.shape[1]
    label_rows = Y.tolist()
    wscale = 1.0
    paid = np.zeros(feature_dim, dtype=np.float64)
    accrued = 0.0
    t0 = schedule_t0(loss, alpha)
    t = 0
    indptr = X.indptr.tolist()
    for order in epoch_orders(len(X), config):
        for i in order:
            t += 1
            eta = 1.0 / (alpha * (t0 + t))
            start, end = indptr[i], indptr[i + 1]
            idx = X.indices[start:end]
            vals = X.values[start:end]
            sub = W.take(idx, axis=1)
            if l1:
                sub = _soft_threshold(sub, accrued - paid[idx])
            step = [
                eta * loss_dmargin(loss, y * (wscale * float(row @ vals) + b)) * y
                for row, y, b in zip(sub, label_rows[i], B)
            ]
            if not l1:
                wscale *= 1.0 - eta * alpha
                if wscale < 1e-9:
                    W *= wscale
                    sub *= wscale
                    wscale = 1.0
            # A row with zero gradient subtracts exact zeros and no weight is
            # ever -0.0, so that row stays bitwise unchanged.
            moved = any(step)
            if moved:
                sub -= np.array([s / wscale for s in step])[:, None] * vals
                B = [b - s for b, s in zip(B, step)]
            if l1:
                settled = accrued
                accrued += eta * alpha
                sub = _soft_threshold(sub, accrued - settled)
                paid[idx] = accrued
            if moved or l1:
                W[:, idx] = sub
    if l1:
        W = _soft_threshold(W, accrued - paid)
    elif wscale != 1.0:
        W *= wscale
    B = np.array(B)
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(B))):
        raise NumericError("training diverged to non-finite weights")
    return W, B


def fit_multiclass(
    X: SparseRows,
    labels: Sequence[int],
    config: PipelineConfig,
    *,
    feature_dim: int | None = None,
) -> LinearModel:
    """One-vs-rest: row k is trained on labels +1 for classes[k] and -1 for the rest."""
    if len(X) != len(labels):
        raise ValueError("X and labels must have equal length")
    classes = sorted(set(int(c) for c in labels))
    if len(classes) < 2:
        raise ValueError(f"need at least 2 distinct classes, got {classes}")
    Y = np.where(np.asarray(labels)[:, None] == np.asarray(classes), 1.0, -1.0)
    weights, intercepts = _fit_rows(X, Y, config, feature_dim)
    return LinearModel(
        weights=weights, intercepts=intercepts, classes=classes, feature_dim=weights.shape[1]
    )


def model_to_dict(model: LinearModel) -> dict:
    """JSON-ready form; weight rows are stored sparsely as [index, value] pairs."""
    rows = []
    for k in range(len(model.classes)):
        row = model.weights[k]
        nz = np.nonzero(row)[0]
        rows.append([[int(j), float(row[j])] for j in nz])
    return {
        "version": MODEL_FORMAT_VERSION,
        "classes": [int(c) for c in model.classes],
        "feature_dim": int(model.feature_dim),
        "intercepts": [float(v) for v in model.intercepts],
        "weights": rows,
    }


def model_from_dict(data: dict) -> LinearModel:
    try:
        version = data["version"]
        if version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported model format version {version!r}; expected {MODEL_FORMAT_VERSION}"
            )
        classes = data["classes"]
        feature_dim = data["feature_dim"]
        if not (all(type(c) is int for c in classes) and type(feature_dim) is int):
            raise ModelFormatError("classes and feature_dim must be JSON integers")
        # predict breaks ties toward the lowest index, which must be the lowest class id.
        if any(b <= a for a, b in zip(classes, classes[1:])):
            raise ModelFormatError(f"classes must be strictly increasing, got {classes}")
        # A JSON number is an int or a float; bool is an int subclass, but not a number.
        if not all(type(value) in (int, float) for value in data["intercepts"]):
            raise ModelFormatError("intercepts must be JSON numbers")
        intercepts = np.asarray(data["intercepts"], dtype=np.float64)
        weights = np.zeros((len(classes), feature_dim), dtype=np.float64)
        for k, row in enumerate(data["weights"]):
            idx = [j for j, _ in row]
            if not all(type(j) is int for j in idx):
                raise ModelFormatError(f"weight row {k} has a non-integer feature index")
            idx = np.asarray(idx, dtype=np.int64)
            if idx.size and not (
                idx.min() >= 0 and idx.max() < feature_dim and np.unique(idx).size == idx.size
            ):
                raise ModelFormatError(
                    f"weight row {k} has a negative, duplicate or out-of-range feature index"
                )
            if not all(type(value) in (int, float) for _, value in row):
                raise ModelFormatError(f"weight row {k} has a value that is not a JSON number")
            weights[k, idx] = [value for _, value in row]
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc
    if intercepts.shape != (len(classes),) or len(data["weights"]) != len(classes):
        raise ModelFormatError("class count disagrees between fields")
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(intercepts))):
        raise ModelFormatError("model file holds a non-finite weight or intercept")
    return LinearModel(
        weights=weights, intercepts=intercepts, classes=classes, feature_dim=feature_dim
    )


def save_model(model: LinearModel, path: str | Path) -> None:
    with atomic_write(path) as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, indent=1)


def load_model(path: str | Path) -> LinearModel:
    data = read_json(path, ModelFormatError)
    try:
        return model_from_dict(data)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
