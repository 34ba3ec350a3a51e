"""Reference implementations the tests compare the library against.

None of these run in the library: they are slow, dense, per-document or
per-class versions of what src/ does, kept so a faster, batched or shared
path can be checked against them. fit_tokens and transform_documents are
the TF-IDF stages as they read tokens before documents were counted once.
loss_value gives the losses whose subgradients the trainer uses, and
binary_row is the binary classifier the tests train through the one-vs-rest
trainer. interpolate and smote_per_record build SMOTE's synthetic rows one
record at a time, as resample.smote did before it built a class at once.
model_to_dict and tfidf_to_dict are the dicts whose json.dump(...,
sort_keys=True, indent=1) sgd.save_model and features.save_tfidf write byte
for byte without building them. fit_pipeline_alone fits one config's
vectorizer, SMOTE and classifier in passes of their own, as fit_pipeline did
before it became pipeline.fit_group's case of one config. fit_rows_every_step
is sgd._fit_rows as it was before it skipped the hinge steps that move
nothing.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import replace
from itertools import chain
from typing import Sequence

import numpy as np

from sgdtext import features
from sgdtext.evaluation import ConfusionMatrix
from sgdtext.features import (
    NORMS,
    TFIDF_FORMAT_VERSION,
    EmptyCorpusError,
    NgramCounts,
    Row,
    SparseRows,
    TfidfModel,
    extract_ngrams,
)
from sgdtext.pipeline import FittedPipeline, PipelineConfig
from sgdtext.resample import SmoteRecord, SmoteResult, neighbor_table, smote, squared_distance
from sgdtext.seeds import substream
from sgdtext.sgd import (
    MODEL_FORMAT_VERSION,
    LinearModel,
    NumericError,
    _logreg_dmargin,
    _schedule,
    _soft_threshold,
    epoch_orders,
    fit_multiclass,
    loss_dmargin,
    schedule_t0,
)

from rows import from_rows


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


def fit_tokens(documents: Sequence[Sequence[str]], config: PipelineConfig) -> TfidfModel:
    """Vocabulary and document frequencies from token lists, one Counter of grams at a time.

    features.fit on the counts of the same documents must equal it.
    """
    df_counter: Counter[str] = Counter()
    for tokens in documents:
        df_counter.update(set(extract_ngrams(tokens, config.ngram_range)))
    if not df_counter:
        raise EmptyCorpusError("no n-grams found: corpus is empty or all documents are too short")
    grams = sorted(df_counter)
    return TfidfModel(
        grams, np.asarray([df_counter[g] for g in grams], dtype=np.int64), len(documents),
        ngram_range=config.ngram_range, use_idf=config.use_idf,
        smooth_idf=config.smooth_idf, norm=config.norm,
    )


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
    return from_rows(transform_document(model, tokens) for tokens in documents)


def tfidf_to_dict(model: TfidfModel) -> dict:
    """JSON-ready form; the vocabulary is stored as sorted [ngram, index, df] rows."""
    rows = sorted(
        [gram, index, int(df)] for index, (gram, df) in enumerate(zip(model.grams, model.doc_freq))
    )
    return {
        "version": TFIDF_FORMAT_VERSION,
        "ngram_range": [model.ngram_range.lo, model.ngram_range.hi],
        "use_idf": model.use_idf,
        "smooth_idf": model.smooth_idf,
        "norm": model.norm,
        "n_docs": model.n_docs,
        "vocabulary": rows,
    }


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
    X: SparseRows, y: Sequence[float], config: PipelineConfig
) -> tuple[np.ndarray, float]:
    """The binary classifier for {-1, +1} labels y: row +1 of the one-vs-rest fit.

    Returns (weights, intercept).
    """
    model = fit_multiclass(X, y, config)
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
    return LinearModel(weights=weights, intercepts=intercepts, classes=classes)


def fit_rows_every_step(
    X: SparseRows,
    values: np.ndarray,
    Y: np.ndarray,
    configs: Sequence[PipelineConfig],
    feature_dim: int,
) -> tuple[np.ndarray, np.ndarray]:
    """sgd._fit_rows as it was before it skipped a hinge step with no class active.

    It builds every step, even one whose entries are all +-0.0, and gathers
    and multiplies through per-step views of 3-D operands. Its arithmetic
    is that of sgd._fit_rows, every weight and intercept of which must equal
    it byte for byte.
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
        owed = owed[:, :, :, None]
        # A weight's L1 debt is the accrual now less the accrual at the step
        # that last settled it.
        accrued_by_config = accrued[:, :, 0].T.copy()
        settled = np.zeros(feature_dim, dtype=np.int64)
    else:
        eta, before, after, renorm = tables
        renormalizes = renorm.any(axis=(1, 2)).tolist()
    W = np.zeros((C, K, feature_dim), dtype=np.float64)
    rows = W.reshape(C * K, feature_dim)
    B = np.zeros((C, K), dtype=np.float64)
    raw = np.empty((C, K, 1, 1), dtype=np.float64)
    margins = raw.reshape(C, K)
    # The hinge losses' dloss/dmargin is -1 or 0, so eta * dloss * y is -eta * y or 0 * y.
    hinge = {"svm": (np.less, 1.0), "perceptron": (np.less_equal, 0.0)}.get(config.loss)
    minus_Y, zero_Y = -Y, 0.0 * Y
    values = values[:, None, :]
    indptr = X.indptr.tolist()
    s = -1
    for order in epoch_orders(len(X), config):
        for i in order.tolist():
            s += 1
            start, end = indptr[i], indptr[i + 1]
            idx = X.indices[start:end]
            vals = values[:, :, start:end]
            sub = rows.take(idx, axis=1).reshape(C, K, end - start)
            if l1:
                paid = accrued_by_config.take(settled.take(idx), axis=1)
                sub = _soft_threshold(sub, (accrued[s] - paid)[:, None, :])
            np.matmul(sub[:, :, None, :], vals[..., None], out=raw)
            y = Y[i]
            # Under L1 the wscale is always 1.0, and 1.0 * m is m.
            margin = y * ((margins if l1 else before[s] * margins) + B)
            if hinge:
                active, kink = hinge
                step = np.where(active(margin, kink), eta[s] * minus_Y[i], zero_Y[i])
            else:
                step = eta[s] * _logreg_dmargin(margin) * y
            if not l1 and renormalizes[s]:
                for c in np.flatnonzero(renorm[s, :, 0]):
                    W[c] *= renorm[s, c, 0]
                    sub[c] *= renorm[s, c, 0]
            moved = np.count_nonzero(step)
            if moved:
                delta = (step if l1 else step / after[s])[:, :, None] * vals
                if C == 1:
                    sub -= delta
                else:
                    # A config whose K steps are all zero skips the subtraction, as a
                    # lone pass does: subtracting -0.0 would turn a -0.0 weight into 0.0.
                    np.subtract(sub, delta, out=sub, where=step.any(axis=1)[:, None, None])
                # An intercept is never -0.0, so subtracting a zero step leaves it unchanged.
                B -= step
            if l1:
                sub = _soft_threshold(sub, owed[s])
                settled[idx] = s + 1
            if l1 or moved:
                rows[:, idx] = sub.reshape(C * K, end - start)
    for c in range(C):
        if l1:
            paid = accrued_by_config[c].take(settled)
            W[c] = _soft_threshold(W[c], accrued[-1, c] - paid)
        elif after[-1, c, 0] != 1.0:
            W[c] *= after[-1, c, 0]
    return W, B


def fit_pipeline_alone(
    counts: NgramCounts, labels: Sequence[int], config: PipelineConfig
) -> FittedPipeline:
    """One config's vectorizer, then SMOTE if configured, then its own fit_multiclass pass.

    SMOTE draws from the config seed's "smote" substream and the pass shuffles
    with its "shuffle" substream; every pipeline.fit_group member must equal it.
    """
    tfidf = features.fit(counts, config)
    vectors = features.transform(tfidf, counts)
    labels = [int(lab) for lab in labels]
    if config.smote:
        resampled = smote(vectors, labels, replace(config, seed=substream(config.seed, "smote")))
        vectors, labels = resampled.vectors, resampled.labels
    shuffle = replace(config, seed=substream(config.seed, "shuffle"))
    model = fit_multiclass(vectors, labels, shuffle)
    return FittedPipeline(tfidf=tfidf, model=model)


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


def interpolate(a: Row, b: Row, gap: float) -> Row:
    """Point on the segment from a to b: a + gap * (b - a), over the union of their indices.

    The endpoints reproduce a and b exactly, as copies; an exact zero is dropped.
    """
    if not 0.0 <= gap <= 1.0:
        raise ValueError(f"gap must be in [0, 1], got {gap}")
    if gap == 0.0:
        return a[0].copy(), a[1].copy()
    if gap == 1.0:
        return b[0].copy(), b[1].copy()
    (a_idx, a_vals), (b_idx, b_vals) = a, b
    idx = np.union1d(a_idx, b_idx)
    av = np.zeros(idx.size, dtype=np.float64)
    bv = np.zeros(idx.size, dtype=np.float64)
    av[np.searchsorted(idx, a_idx)] = a_vals
    bv[np.searchsorted(idx, b_idx)] = b_vals
    values = av + gap * (bv - av)
    keep = values != 0.0
    return idx[keep], values[keep]


def smote_per_record(X: SparseRows, labels: Sequence[int], config: PipelineConfig) -> SmoteResult:
    """SMOTE with one interpolate call per record, stacked row by row after the originals.

    The draws are resample.smote's: the same substream per class, in the
    same order. resample.smote must equal it bit for bit.
    """
    counts = Counter(int(lab) for lab in labels)
    target = max(counts.values())
    records: list[SmoteRecord] = []
    for cls in sorted(counts):
        members = [i for i, lab in enumerate(labels) if int(lab) == cls]
        need = target - len(members)
        if need <= 0:
            continue
        rng = np.random.default_rng(substream(config.seed, f"smote-class-{cls}"))
        if len(members) == 1:
            warnings.warn(f"class {cls} has a single member; oversampling by duplication")
            records.extend(SmoteRecord(cls, members[0], members[0], 0.0) for _ in range(need))
            continue
        k = min(config.smote_k, len(members) - 1)
        table = neighbor_table(from_rows(X.row(i) for i in members), k)
        for _ in range(need):
            a_local = int(rng.integers(len(members)))
            b_local = table[a_local][int(rng.integers(k))]
            gap = float(rng.random())
            records.append(SmoteRecord(cls, members[a_local], members[b_local], gap))
    synthetic = (interpolate(X.row(r.base_index), X.row(r.neighbor_index), r.gap) for r in records)
    return SmoteResult(
        vectors=from_rows(chain(map(X.row, range(len(X))), synthetic)),
        labels=[int(lab) for lab in labels] + [r.label for r in records],
        records=records,
    )
