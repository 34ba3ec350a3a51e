"""SMOTE: oversample minority classes with synthetic points between neighbors.

Operates on a batch of feature rows, after vectorization. Each synthetic
sample is a + gap * (b - a) for a random class member a, one of its k nearest
same-class neighbors b (Euclidean distance), and a uniform gap in [0, 1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain, groupby
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .corpus import by_class
from .features import Row, SparseRows
from .seeds import substream

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


@dataclass(frozen=True)
class SmoteRecord:
    """Provenance of one synthetic sample: positions refer to the input rows."""

    label: int
    base_index: int
    neighbor_index: int
    gap: float


@dataclass
class SmoteResult:
    vectors: SparseRows
    labels: list[int]
    records: list[SmoteRecord]


def squared_distance(a: Row, b: Row) -> float:
    """Squared Euclidean distance between two (indices, values) rows."""
    (a_idx, a_vals), (b_idx, b_vals) = a, b
    idx = np.union1d(a_idx, b_idx)
    diff = np.zeros(idx.size, dtype=np.float64)
    diff[np.searchsorted(idx, a_idx)] = a_vals
    diff[np.searchsorted(idx, b_idx)] -= b_vals
    return float(diff @ diff)


# Unit roundoff and smallest positive subnormal of float64.
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074


def _gamma(m: int) -> float:
    """Higham's gamma_m = m*u / (1 - m*u): the relative error bound of m roundings."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


def neighbor_table(points: SparseRows, k: int) -> list[list[int]]:
    """Row q lists the k nearest points to row q of points by Euclidean distance, excluding q.

    k is clamped to len(points) - 1; exact distance ties resolve to the
    lower index. Each row equals a stable argsort of squared_distance from
    row q, which defines the order; it is screened with the Gram form
    |a|^2 + |b|^2 - 2 a.b and recomputed exactly only where the screen
    cannot separate the candidates.
    """
    n = len(points)
    if n < 2:
        raise ValueError("need at least 2 points to have neighbors")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n - 1)

    # Only columns used by two or more points can add to a dot product
    # between distinct points, so the rest stay out of the dense block.
    lengths = np.diff(points.indptr)
    rows = np.repeat(np.arange(n), lengths)
    _, column, uses = np.unique(points.indices, return_inverse=True, return_counts=True)
    shared = uses >= 2
    keep = shared[column]
    shared_count = int(shared.sum())
    dense = np.zeros((n, shared_count), dtype=np.float64)
    dense[rows[keep], (np.cumsum(shared) - 1)[column[keep]]] = points.values[keep]
    sq = np.array([values @ values for _, values in map(points.row, range(n))], dtype=np.float64)

    # Rounding bound, with u the unit roundoff and gamma_m = m*u / (1 - m*u).
    # Let N be the largest nnz, s the shared-column count, S_i = |x_i|^2 and
    # T = |a - b|^2 for a pair (a, b) of distinct points.
    # - Exact value D = squared_distance(a, b): each of its m <= 2N differences
    #   is rounded once, then squared and summed in some order, so
    #   |D - T| <= gamma_{m+2} T <= gamma_{2N+2} * 2 (S_a + S_b).
    # - Screen value A = fl(fl(sq_a + sq_b) - 2 g): sq_i carries
    #   |sq_i - S_i| <= gamma_N S_i; g, the s-term dot product over the shared
    #   columns, carries |g - a.b| <= gamma_s sum|a_c b_c| <= gamma_s (S_a + S_b) / 2;
    #   doubling is exact; the addition and the subtraction round once each
    #   on operands no larger than about S_a + S_b. So
    #   |A - T| <= (gamma_N + gamma_s + 3u + O(u^2)) (S_a + S_b)
    #           <= gamma_{N+s+8} (S_a + S_b).
    # With S_a + S_b <= 2 M / (1 - gamma_N), M the largest computed sq,
    # |A - D| <= (gamma_{N+s+8} + 2 gamma_{2N+2}) 2M / (1 - gamma_N)
    #         <= 8 gamma_K M,  K = 2N + s + 8.
    # Products that underflow add at most 2^-1075 each, and fewer than 2K
    # products enter D and A, hence the absolute term. Screen values more
    # than 2 * bound apart therefore order their exact values strictly the
    # same way (for finite inputs that do not overflow).
    max_nnz = int(lengths.max())
    terms = 2 * max_nnz + shared_count + 8
    bound = 8.0 * _gamma(terms) * float(sq.max()) + 2 * terms * _SMALLEST_SUBNORMAL

    table: list[list[int]] = []
    for q in range(n):
        approx = sq[q] + sq - 2.0 * (dense @ dense[q])
        approx[q] = np.inf
        order = np.argsort(approx, kind="stable")
        head = approx[order[: k + 1]]
        if np.all(np.diff(head) > 2.0 * bound):
            table.append([int(i) for i in order[:k]])
            continue
        # Near-tie: only points whose screen value is within 2 * bound of
        # the k-th can be among the exact k nearest. Rank those exactly,
        # by (distance, index) as the stable argsort of exact values does.
        # (Subtracting first keeps the rounding from dropping a candidate.)
        candidates = np.flatnonzero(approx - head[k - 1] <= 2.0 * bound)
        exact = [squared_distance(points.row(q), points.row(int(i))) for i in candidates]
        ranked = sorted(zip(exact, candidates.tolist()))
        table.append([int(i) for _, i in ranked[:k]])
    return table


def _synthesize(X: SparseRows, records: Sequence[SmoteRecord]) -> SparseRows:
    """The synthetic rows of records, in order, as one batch: a + gap * (b - a) for each.

    The entries of base a and neighbor b merge by the key row * width + column,
    and exact zeros are dropped. The operations are those of one pair at a
    time, so each value is bitwise that pair's; for finite rows, gap 0 gives a.
    """
    n = len(records)
    pairs = X.take([r.base_index for r in records] + [r.neighbor_index for r in records])
    gap = np.array([r.gap for r in records], dtype=np.float64)
    width = int(pairs.indices.max(initial=0)) + 1
    rows = np.repeat(np.tile(np.arange(n), 2), np.diff(pairs.indptr))
    keys, where = np.unique(rows * width + pairs.indices, return_inverse=True)
    split = pairs.indptr[n]
    av, bv = np.zeros(keys.size), np.zeros(keys.size)
    av[where[:split]] = pairs.values[:split]
    bv[where[split:]] = pairs.values[split:]
    values = av + gap[keys // width] * (bv - av)
    keep = values != 0.0
    keys = keys[keep]
    return SparseRows(np.searchsorted(keys, np.arange(n + 1) * width), keys % width, values[keep])


def smote(X: SparseRows, labels: Sequence[int], config: PipelineConfig) -> SmoteResult:
    """Append synthetic minority samples until every class reaches the majority count.

    Reads config.smote_k, the neighbor count, and config.seed. Originals
    come first, bit-identical to the input; synthetic samples follow with
    one provenance record each. Deterministic for a fixed seed (per-class
    substreams, so class order does not couple the draws).
    """
    if len(X) != len(labels):
        raise ValueError("X and labels must have equal length")
    groups = by_class(labels)
    if len(groups) < 2:
        raise ValueError(f"need at least 2 classes to resample, got {list(groups)}")
    target = max(map(len, groups.values()))

    # Draw every synthetic sample's provenance first; the rows themselves
    # are built one class at a time while the output batch is filled.
    records: list[SmoteRecord] = []
    for cls, members in groups.items():
        need = target - len(members)
        if need <= 0:
            continue
        rng = np.random.default_rng(substream(config.seed, f"smote-class-{cls}"))
        if len(members) == 1:
            warnings.warn(
                f"class {cls} has a single member; oversampling by duplication",
                stacklevel=2,
            )
            records.extend(SmoteRecord(cls, members[0], members[0], 0.0) for _ in range(need))
            continue
        k = min(config.smote_k, len(members) - 1)
        table = neighbor_table(X.take(members), k)
        for _ in range(need):
            a_local = int(rng.integers(len(members)))
            b_local = table[a_local][int(rng.integers(k))]
            gap = float(rng.random())
            records.append(SmoteRecord(cls, members[a_local], members[b_local], gap))
    synthetic = (_synthesize(X, list(group)) for _, group in groupby(records, lambda r: r.label))
    return SmoteResult(
        vectors=SparseRows.concat(chain([X], synthetic)),
        labels=[int(lab) for lab in labels] + [r.label for r in records],
        records=records,
    )
