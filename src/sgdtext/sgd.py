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

import base64
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .artifacts import read_json, write_json_rows
from .features import SparseRows

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

MODEL_FORMAT_VERSION = 2

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
    """Per-class scores w_k . x + b_k: an n x K array, one row per sample.

    Each row's products are numpy's matmul of its gathered weights and its
    values. They run in the compiled kernel's decide where it loads (see
    _compiled), which calls the dgemv that matmul calls, else one matmul per
    row in _numpy_decision; both give the same bytes. The intercepts are
    added in numpy either way.
    """
    _check_feature_range(X, model.feature_dim)
    weights = np.ascontiguousarray(model.weights, dtype=np.float64)
    # With one class, matmul takes ddot instead of dgemv, so that model stays in numpy.
    kernel = len(weights) > 1 and _compiled()
    return (kernel.decide if kernel else _numpy_decision)(weights, X) + model.intercepts


def _numpy_decision(weights: np.ndarray, X: SparseRows) -> np.ndarray:
    """decision's products w_k . x, one matmul per row."""
    scores = np.empty((len(X), len(weights)), dtype=np.float64)
    for i in range(len(X)):
        idx, vals = X.row(i)
        scores[i] = weights[:, idx] @ vals
    return scores


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


class _Kernel(NamedTuple):
    """The compiled kernel's two loops, bound: _numpy_steps' and _numpy_decision's."""

    steps: Callable[..., None]
    decide: Callable[[np.ndarray, SparseRows], np.ndarray]


# The compiled kernel: None until the first fit or decision tries to load it, False where it cannot.
_kernel: _Kernel | None | bool = None
_BUILD = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
_DDOT_SYMBOLS = ("scipy_cblas_ddot64_", "cblas_ddot64_")
_DGEMV_SYMBOLS = ("scipy_cblas_dgemv64_", "cblas_dgemv64_")


def _compiled() -> _Kernel | bool:
    """The loops of _sgd_kernel.c, bound, or False where they cannot be had.

    Loaded on the first call. A missing compiler, a failed build, a BLAS
    without ddot or dgemv, or a ddot or dgemv that differs from numpy's
    matmul leaves both numpy loops, silently: the kernel only makes the same
    bytes sooner.
    """
    global _kernel
    if _kernel is None:
        try:
            _kernel = _load_kernel()
        except Exception:  # whatever stops it, the numpy loops give the same bytes
            _kernel = False
    return _kernel


def _blas(symbols: tuple[str, ...]) -> int:
    """The address of the first of symbols in numpy's BLAS, found through numpy's own handle."""
    import ctypes

    blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    name = next(name for name in symbols if hasattr(blas, name))
    return ctypes.cast(getattr(blas, name), ctypes.c_void_p).value


def _load_kernel() -> _Kernel | bool:
    """Build the kernel once per source and flags into the user's cache; bind and probe it."""
    import ctypes
    import hashlib
    import subprocess
    import tempfile

    source = Path(__file__).with_name("_sgd_kernel.c")
    name = f"kernel-{hashlib.sha256(source.read_bytes() + repr(_BUILD).encode()).hexdigest()}.so"

    def built(directory: Path) -> ctypes.CDLL:
        if not (directory / name).exists():
            # Built under a private name, then renamed: racing builds each leave a whole file.
            fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
            os.close(fd)
            try:
                subprocess.run([*_BUILD, "-o", tmp, source, "-lm"], check=True, capture_output=True)
                os.replace(tmp, directory / name)
            finally:
                Path(tmp).unlink(missing_ok=True)
        return ctypes.CDLL(str(directory / name))

    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "sgdtext"
    try:
        cache.mkdir(parents=True, exist_ok=True)
        lib = built(cache)
    except OSError:  # the cache cannot hold a loadable kernel: build one for this process
        with tempfile.TemporaryDirectory() as scratch:
            lib = built(Path(scratch))
    ddot, dgemv = _blas(_DDOT_SYMBOLS), _blas(_DGEMV_SYMBOLS)
    signature = (ctypes.c_double, ctypes.c_int64, *[ctypes.c_void_p, ctypes.c_int64] * 2)
    dot = ctypes.CFUNCTYPE(*signature)(ddot)
    x, y = np.random.default_rng(0).standard_normal((2, 300))
    for n in range(1, 301):  # numpy's dot adds ddot's result to 0.0, as the kernel does
        got = 0.0 + dot(n, x.ctypes.data, 1, y[-n:].ctypes.data, 1)
        if np.float64(got).tobytes() != np.matmul(x[None, :n], y[-n:, None]).tobytes():
            return False
    fit = lib.fit_rows
    fit.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 6 + [ctypes.c_void_p] * 13
    fit.restype = None
    gemv = lib.decide
    gemv.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 6
    gemv.restype = None

    def steps(X, values, Y, order, loss, tables, W, B, settled) -> None:
        C, K, d = W.shape
        rows = [np.ascontiguousarray(row, dtype=np.float64) for row in values]  # held through fit
        # The C loop indexes without bounds checks, so what it indexes is checked here.
        if Y.shape != (len(X), K) or [row.shape for row in rows] != [(X.nnz,)] * C:
            raise ValueError("Y must be n x K and values C rows of nnz")
        _check_feature_range(X, d)
        scratch = np.empty(C * K * (int(np.diff(X.indptr).max(initial=0)) + 1))
        Y = np.ascontiguousarray(Y, dtype=np.float64)
        tables = (*tables, None)[:4]  # L1 has three tables, L2 four
        addresses = np.array([row.ctypes.data for row in rows], dtype=np.uintp)
        arrays = [order, X.indptr, X.indices, addresses, Y, *tables, W, B, settled, scratch]
        pointers = [None if a is None else a.ctypes.data for a in arrays]
        fit(ddot, LOSSES.index(loss), tables[3] is None, C, K, d, len(order), *pointers)

    def products(weights, indptr, indices, values) -> np.ndarray:
        # weights is C-contiguous float64, K >= 2, and every index below its width:
        # the C loop indexes without bounds checks, and decision has checked them.
        K, d = weights.shape
        scores = np.zeros((len(indptr) - 1, K))
        block = np.empty(K * int(np.diff(indptr).max(initial=0)))
        arrays = (indptr, indices, values, weights, scores, block)
        gemv(dgemv, len(indptr) - 1, K, d, *(a.ctypes.data for a in arrays))
        return scores

    # Every row length from 0 to 300 falls to one K, and each K scores a row of one
    # entry, -0.0, and an empty row; -0.0 is among the weights and values.
    rng = np.random.default_rng(0)
    for K in range(2, 8):
        weights = rng.standard_normal((K, 400))
        weights[:, ::5] = -0.0
        lengths, columns = np.r_[1, 0, np.arange(K - 2, 301, 6)], rng.permutation(400)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        indices = np.concatenate([np.sort(columns[:n]) for n in lengths])
        values = rng.standard_normal(indices.size)
        values[::7] = -0.0
        want = [weights[:, indices[a:b]] @ values[a:b] for a, b in zip(indptr, indptr[1:])]
        if products(weights, indptr, indices, values).tobytes() != np.array(want).tobytes():
            return False

    return _Kernel(steps, lambda weights, X: products(weights, X.indptr, X.indices, X.values))


def _fit_rows(
    X: SparseRows,
    values: Sequence[np.ndarray],
    Y: np.ndarray,
    configs: Sequence[PipelineConfig],
    feature_dim: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Train C x K weight rows and intercepts in one pass: one row per (config, column of Y).

    Y is an n x K matrix of +-1 labels; values[c], a float row, holds config
    c's X.nnz values in X's pattern. The configs share loss, penalty, epochs
    and seed, so they share the visit order. Step size, wscale and L1 accrual
    depend only on the step count and each config's alpha, so they are
    tabulated up front. The steps run in the compiled kernel where it loads
    (see _compiled), reading each row in place, else in _numpy_steps,
    which stacks the rows; both give the same bytes. Returns (C x K x d
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
    order = np.concatenate(epoch_orders(len(X), config))
    W = np.zeros((C, K, feature_dim), dtype=np.float64)
    B = np.zeros((C, K), dtype=np.float64)
    # The step at which L1 last settled each weight's penalty.
    settled = np.zeros(feature_dim, dtype=np.int64)
    steps = kernel.steps if (kernel := _compiled()) else _numpy_steps
    steps(X, values, Y, order, config.loss, tables, W, B, settled)
    for c in range(C):
        # The third table is L1's accrual before each step, or L2's wscale after it.
        if l1:
            accrued = tables[2][:, c, 0]
            W[c] = _soft_threshold(W[c], accrued[-1] - accrued.take(settled))
        elif (wscale := tables[2][-1, c, 0]) != 1.0:
            W[c] *= wscale
    return W, B


def _numpy_steps(X, values, Y, order, loss, tables, W, B, settled) -> None:
    """_fit_rows' steps in numpy, updating W, B and (under L1) settled in place.

    Each margin is its own dot product over a contiguous row (a
    scalar-output matmul runs the same ddot as a 1-D row @ vals), so every
    row is bitwise equal to a lone fit of its config. A hinge step with no
    class active skips the step's arithmetic: each entry would be +-0.0,
    which moves nothing, so the skip changes no byte.
    """
    values = np.asarray(values, dtype=np.float64)  # the rows stacked C x nnz, for matmul
    C, K, _ = W.shape
    l1 = len(tables) == 3
    if l1:
        eta, owed, accrued = tables
        owed = owed[:, :, :, None, None]
        # A weight's L1 debt is the accrual now less the accrual at the step
        # that last settled it.
        accrued_by_config = accrued[:, :, 0].T.copy()
    else:
        eta, before, after, renorm = tables
        renormalizes = renorm.any(axis=(1, 2)).tolist()
        before = np.repeat(before, K, axis=2)  # C x K per step, as the margins are
    blocks = W.reshape(C, K, 1, W.shape[2])
    raw = np.empty((C, K, 1, 1), dtype=np.float64)
    margins = raw.reshape(C, K)
    # The hinge losses' dloss/dmargin is -1 or 0, so eta * dloss * y is -eta * y or 0 * y.
    hinge = {"svm": (np.less, 1.0), "perceptron": (np.less_equal, 0.0)}.get(loss)
    less, kink = hinge or (None, 0.0)
    minus_Y, zero_Y = -Y, 0.0 * Y
    # Operands shaped once as the steps use them, since numpy's calls are slower
    # on operands they broadcast or on a float they convert. A take from blocks
    # and a slice of columns are matmul's C x K x 1 x n and C x 1 x n x 1 as they come.
    Y, kink = np.repeat(Y[:, None, :], C, axis=1), np.array(kink)
    columns, values = values[:, None, :, None], values[:, None, None, :]
    indptr = X.indptr.tolist()
    for s, i in enumerate(order.tolist()):
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


def pass_key(config: PipelineConfig) -> tuple[str, str, int, int]:
    """What configs must share to train in one fit_stacked pass: loss, penalty, epochs, seed."""
    return (config.loss, config.penalty, config.epochs, config.seed)


def fit_stacked(
    X: SparseRows,
    values: Sequence[np.ndarray],
    labels: Sequence[int],
    configs: Sequence[PipelineConfig],
) -> list[LinearModel | NumericError]:
    """One one-vs-rest model per config, all trained in one pass over X's rows.

    X gives the rows' pattern (indptr and indices); values[c], a float row of
    X.nnz values that the pass reads where it is, holds config c's values in
    that pattern. The configs must share one pass_key; alpha may differ. A
    model's width is one more than X's largest feature index (0 if X has no
    nonzeros). Each model is bitwise what fit_multiclass gives for its
    config alone on its values. A config whose values are non-finite, or
    whose training diverges, gets that NumericError in place of its model,
    and the others are unaffected.
    """
    if len({pass_key(c) for c in configs}) != 1:
        raise ValueError("stacked configs need one loss, penalty, epochs and seed")
    if [np.shape(row) for row in values] != [(X.nnz,)] * len(configs):
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
    rows = [values[c] for c in live]
    W, B = _fit_rows(X, rows, Y, [configs[c] for c in live], feature_dim)
    for row, c in enumerate(live):
        if np.all(np.isfinite(W[row])) and np.all(np.isfinite(B[row])):
            results[c] = LinearModel(weights=W[row], intercepts=B[row], classes=classes)
        else:
            results[c] = NumericError("training diverged to non-finite weights")
    return results


def fit_multiclass(X: SparseRows, labels: Sequence[int], config: PipelineConfig) -> LinearModel:
    """One-vs-rest: row k is trained on labels +1 for classes[k] and -1 for the rest.

    This is fit_stacked's case of one config, on X's own values as its row.
    """
    [model] = fit_stacked(X, [X.values], labels, [config])
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
            if not (type(row) is list and len(row) == 2 and set(map(type, row)) == {str}):
                raise ModelFormatError(f"weight row {k} is not two base64 strings")
            try:
                js, values = (base64.b64decode(text, validate=True) for text in row)
            except ValueError as exc:  # binascii.Error: a bad character or bad padding
                raise ModelFormatError(f"weight row {k} is not base64: {exc}") from exc
            if len(js) % 8 or len(js) != len(values):
                raise ModelFormatError(
                    f"weight row {k} does not hold equal counts of 8-byte indices and values"
                )
            idx = np.frombuffer(js, dtype="<i8")
            if idx.size and not (
                idx[0] >= 0 and idx[-1] < feature_dim and np.all(idx[1:] > idx[:-1])
            ):
                raise ModelFormatError(
                    f"weight row {k} has a negative, duplicate or out-of-range feature index"
                )
            weights[k, idx] = np.frombuffer(values, dtype="<f8")
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
    """One weight row as model.json lays it out: its nonzeros' indices and values, in base64."""
    nz = np.flatnonzero(row)
    js, values = (base64.b64encode(a.tobytes()).decode("ascii")
                  for a in (nz.astype("<i8"), row[nz].astype("<f8")))
    return f'  [\n   "{js}",\n   "{values}"\n  ]'


def save_model(model: LinearModel, path: str | Path) -> None:
    """Write model.json: sorted keys, a one-space indent, each weight row stored sparsely.

    Row k of "weights" is two strings: the base64 of the little-endian int64
    indices of w_k's nonzeros, in index order, then of their float64 values.
    The rows are written one at a time. A non-finite weight or intercept
    raises NumericError and leaves path as it was, since load_model would
    reject the file.
    """
    if not (np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.intercepts))):
        raise NumericError("the model holds a non-finite weight or intercept")
    head = {
        "version": MODEL_FORMAT_VERSION,
        "classes": [int(c) for c in model.classes],
        "feature_dim": int(model.feature_dim),
        "intercepts": [float(v) for v in model.intercepts],
    }
    write_json_rows(path, head, {"weights": map(_weight_row, model.weights)})


def load_model(path: str | Path, vocabulary: tuple[object, int] | None = None) -> LinearModel:
    return read_json(path, ModelFormatError, lambda data: model_from_dict(data, vocabulary))
