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

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .artifacts import read_json, write_json_rows
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

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]


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


def _finite_check(indptr: np.ndarray, values: np.ndarray) -> NumericError | None:
    bad = np.flatnonzero(~np.isfinite(values))
    if not bad.size:
        return None
    position = int(np.searchsorted(indptr, bad[0], side="right")) - 1
    return NumericError(f"sample {position} has non-finite feature values")


def _soft_threshold(z: np.ndarray, owed: np.ndarray | float) -> np.ndarray:
    return np.sign(z) * np.maximum(0.0, np.abs(z) - owed)


def _schedule(config: PipelineConfig, steps: int) -> list[np.ndarray]:
    """One config's per-step scalars, with the arithmetic of a lone pass.

    For L1: eta, the penalty accrued in each step, and the penalty accrued
    before each step and after the last. For L2: eta, the wscale before each
    step, the wscale after it, and the factor the step renormalizes the
    weights by (0.0 for none; the wscale after is then 1.0).
    """
    alpha = config.alpha
    eta = 1.0 / (alpha * (schedule_t0(config.loss, alpha) + np.arange(1.0, steps + 1.0)))
    # accumulate adds or multiplies in sequence, exactly as a running total does.
    if config.penalty == "l1":
        accrued = np.add.accumulate(np.concatenate(([0.0], eta * alpha)))
        return [eta, np.diff(accrued), accrued]
    decay = 1.0 - eta * alpha
    after = np.empty(steps)
    renorm = np.zeros(steps)
    wscale, t = 1.0, 0
    # In chunks: a renormalization restarts the product at 1.0, which rescans one chunk.
    while t < steps:
        run = np.multiply.accumulate(np.concatenate(([wscale], decay[t : t + 4096])))[1:]
        low = np.flatnonzero(run < 1e-9)
        n = int(low[0]) + 1 if low.size else run.size
        after[t : t + n] = run[:n]
        wscale = float(run[n - 1])
        if low.size:
            renorm[t + n - 1] = wscale
            after[t + n - 1] = wscale = 1.0
        t += n
    return [eta, np.concatenate(([1.0], after[:-1])), after, renorm]


def _logreg_dmargin(margins: np.ndarray) -> np.ndarray:
    # math.exp per element, as loss_dmargin computes it: np.exp may round differently.
    flat = [loss_dmargin("logreg", m) for m in margins.ravel().tolist()]
    return np.array(flat).reshape(margins.shape)


def _fit_rows(
    X: SparseRows,
    values: np.ndarray,
    Y: np.ndarray,
    configs: Sequence[PipelineConfig],
    feature_dim: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Train C x K weight rows and intercepts in one pass: one row per (config, column of Y).

    Y is an n x K matrix of +-1 labels; row c of values holds config c's
    values in X's pattern. The configs share loss, penalty, epochs and seed,
    so they share the visit order. Step size, wscale and L1 accrual depend
    only on the step count and each config's alpha, so they are tabulated
    up front. Each margin is its own dot product over a contiguous row (a
    scalar-output matmul runs the same ddot as a 1-D row @ vals), so every
    row is bitwise equal to a lone fit of its config. A hinge step with no
    class active skips the step's arithmetic: each entry would be +-0.0,
    which moves nothing, so the skip changes no byte. Returns (C x K x d
    weights, C x K intercepts); non-finite rows are left to the caller.
    """
    config = configs[0]
    C, K = len(configs), Y.shape[1]
    l1 = config.penalty == "l1"
    steps = len(X) * config.epochs
    # Step-major (steps x C x 1) tables, so step s reads one contiguous row.
    tables = [
        np.stack(column, axis=1)[:, :, None]
        for column in zip(*(_schedule(c, steps) for c in configs))
    ]
    if l1:
        eta, owed, accrued = tables
        owed = owed[:, :, :, None, None]
        # A weight's L1 debt is the accrual now less the accrual at the step
        # that last settled it.
        accrued_by_config = accrued[:, :, 0].T.copy()
        settled = np.zeros(feature_dim, dtype=np.int64)
    else:
        eta, before, after, renorm = tables
        renormalizes = renorm.any(axis=(1, 2)).tolist()
        before = np.repeat(before, K, axis=2)  # C x K per step, as the margins are
    W = np.zeros((C, K, feature_dim), dtype=np.float64)
    blocks = W.reshape(C, K, 1, feature_dim)
    B = np.zeros((C, K), dtype=np.float64)
    raw = np.empty((C, K, 1, 1), dtype=np.float64)
    margins = raw.reshape(C, K)
    # The hinge losses' dloss/dmargin is -1 or 0, so eta * dloss * y is -eta * y or 0 * y.
    hinge = {"svm": (np.less, 1.0), "perceptron": (np.less_equal, 0.0)}.get(config.loss)
    less, kink = hinge or (None, 0.0)
    minus_Y, zero_Y = -Y, 0.0 * Y
    # Operands shaped once as the steps use them, since numpy's calls are slower
    # on operands they broadcast or on a float they convert. A take from blocks
    # and a slice of columns are matmul's C x K x 1 x n and C x 1 x n x 1 as they come.
    Y, kink = np.repeat(Y[:, None, :], C, axis=1), np.array(kink)
    columns, values = values[:, None, :, None], values[:, None, None, :]
    indptr = X.indptr.tolist()
    s = -1
    for order in epoch_orders(len(X), config):
        for i in order.tolist():
            s += 1
            start, end = indptr[i], indptr[i + 1]
            idx = X.indices[start:end]
            sub = blocks.take(idx, axis=3)
            if l1:
                paid = accrued_by_config.take(settled.take(idx), axis=1)
                sub = _soft_threshold(sub, (accrued[s] - paid)[:, None, None, :])
            np.matmul(sub, columns[:, :, start:end], out=raw)
            y = Y[i]
            # Under L1 the wscale is always 1.0, and 1.0 * m is m.
            margin = y * ((margins if l1 else before[s] * margins) + B)
            if not less:
                step = eta[s] * _logreg_dmargin(margin) * y
            elif np.count_nonzero(active := less(margin, kink)):
                step = np.where(active, eta[s] * minus_Y[i], zero_Y[i])
            else:  # every step would be +-0.0, so the sample moves nothing
                step = None
            if not l1 and renormalizes[s]:
                for c in np.flatnonzero(renorm[s, :, 0]):
                    W[c] *= renorm[s, c, 0]
                    sub[c] *= renorm[s, c, 0]
            # An active class's step is 0.0 too, where eta underflows at a huge alpha.
            moved = step is not None and np.count_nonzero(step)
            if moved:
                delta = (step if l1 else step / after[s])[:, :, None, None] * values[..., start:end]
                if C == 1:
                    sub -= delta
                else:
                    # A config whose K steps are all zero skips the subtraction, as a
                    # lone pass does: subtracting -0.0 would turn a -0.0 weight into 0.0.
                    np.subtract(sub, delta, out=sub, where=step.any(axis=1)[:, None, None, None])
                # An intercept is never -0.0, so subtracting a zero step leaves it unchanged.
                B -= step
            if l1:
                sub = _soft_threshold(sub, owed[s])
                settled[idx] = s + 1
            if l1 or moved:
                blocks[..., idx] = sub
    for c in range(C):
        if l1:
            paid = accrued_by_config[c].take(settled)
            W[c] = _soft_threshold(W[c], accrued[-1, c] - paid)
        elif after[-1, c, 0] != 1.0:
            W[c] *= after[-1, c, 0]
    return W, B


def fit_stacked(
    X: SparseRows,
    values: np.ndarray,
    labels: Sequence[int],
    configs: Sequence[PipelineConfig],
) -> list[LinearModel | NumericError]:
    """One one-vs-rest model per config, all trained in one pass over X's rows.

    X gives the rows' pattern (indptr and indices); row c of values, a
    len(configs) x X.nnz array, holds config c's values in that pattern. The
    configs must share loss, penalty, epochs and seed; alpha may differ. A
    model's width is one more than X's largest feature index (0 if X has no
    nonzeros). Each model is bitwise what fit_multiclass gives for its
    config alone on its values. A config whose values are non-finite, or
    whose training diverges, gets that NumericError in place of its model,
    and the others are unaffected.
    """
    shared = {(c.loss, c.penalty, c.epochs, c.seed) for c in configs}
    if len(shared) != 1:
        raise ValueError("stacked configs need one loss, penalty, epochs and seed")
    if values.shape != (len(configs), X.nnz):
        raise ValueError("values must hold one row of X.nnz values per config")
    if len(X) != len(labels):
        raise ValueError("X and labels must have equal length")
    classes = sorted(set(int(c) for c in labels))
    if len(classes) < 2:
        raise ValueError(f"need at least 2 distinct classes, got {classes}")
    results: list[LinearModel | NumericError | None] = [
        _finite_check(X.indptr, row) for row in values
    ]
    live = [c for c, error in enumerate(results) if error is None]
    if not live:
        return results
    feature_dim = 1 + (int(X.indices.max()) if X.nnz else -1)
    Y = np.where(np.asarray(labels)[:, None] == np.asarray(classes), 1.0, -1.0)
    if len(live) < len(configs):
        values = values[live]
    W, B = _fit_rows(X, values, Y, [configs[c] for c in live], feature_dim)
    for row, c in enumerate(live):
        if np.all(np.isfinite(W[row])) and np.all(np.isfinite(B[row])):
            results[c] = LinearModel(weights=W[row], intercepts=B[row], classes=classes)
        else:
            results[c] = NumericError("training diverged to non-finite weights")
    return results


def fit_multiclass(X: SparseRows, labels: Sequence[int], config: PipelineConfig) -> LinearModel:
    """One-vs-rest: row k is trained on labels +1 for classes[k] and -1 for the rest.

    This is fit_stacked's case of one config, on X's own values.
    """
    [model] = fit_stacked(X, X.values[None], labels, [config])
    if isinstance(model, NumericError):
        raise model
    return model


def model_from_dict(data: dict, vocabulary: tuple[object, int] | None = None) -> LinearModel:
    """vocabulary, if given, is (the vectorizer's file, its size): checked before allocating."""
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
        if vocabulary is not None and feature_dim != vocabulary[1]:
            raise ModelFormatError(
                f"has {feature_dim} features but {vocabulary[0]} has a vocabulary of "
                f"{vocabulary[1]}; they are not from the same train run"
            )
        # predict breaks ties toward the lowest index, which must be the lowest class id.
        if not classes or any(b <= a for a, b in zip(classes, classes[1:])):
            raise ModelFormatError(f"classes must be nonempty, strictly increasing, got {classes}")
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
    return LinearModel(weights=weights, intercepts=intercepts, classes=classes)


def _weight_row(row: np.ndarray) -> str:
    """One weight row as model.json lays it out: its nonzero [index, value] pairs."""
    nz = np.flatnonzero(row)
    if not nz.size:
        return "  []"
    # The reprs are what json's encoder writes for an int and a finite float.
    pairs = zip(map(int.__repr__, nz.tolist()), map(float.__repr__, row[nz].tolist()))
    body = "\n   ],\n   [\n    ".join(map(",\n    ".join, pairs))
    return f"  [\n   [\n    {body}\n   ]\n  ]"


def save_model(model: LinearModel, path: str | Path) -> None:
    """Write model.json: sorted keys, a one-space indent, each weight row stored sparsely.

    Row k of "weights" lists the [index, value] pairs of w_k's nonzeros in
    index order. The rows are written one at a time. A non-finite weight or
    intercept raises NumericError and leaves path as it was, since
    load_model would reject the file.
    """
    if not (np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.intercepts))):
        raise NumericError("the model holds a non-finite weight or intercept")
    head = {
        "version": MODEL_FORMAT_VERSION,
        "classes": [int(c) for c in model.classes],
        "feature_dim": int(model.feature_dim),
        "intercepts": [float(v) for v in model.intercepts],
    }
    write_json_rows(path, head, "weights", map(_weight_row, model.weights))


def load_model(path: str | Path, vocabulary: tuple[object, int] | None = None) -> LinearModel:
    data = read_json(path, ModelFormatError)
    try:
        return model_from_dict(data, vocabulary)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
