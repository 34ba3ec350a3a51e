"""SMOTE: oversample minority classes with synthetic points between neighbors.

Operates on a batch of feature rows, after vectorization. Each synthetic
sample is a + gap * (b - a) for a random class member a, one of its k nearest
same-class neighbors b (Euclidean distance), and a uniform gap in [0, 1).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .corpus import by_class
from .features import Row, SparseRows
from .seeds import substream

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


@dataclass
class SmoteResult:
    """The resampled batch and its labels.

    drawn holds the synthetic samples' provenance, per grown class in row
    order: its label and the arrays of base positions, neighbor positions
    and gaps, one entry per sample.
    """

    vectors: SparseRows
    labels: list[int]
    drawn: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]


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
# The most screen values neighbor_table holds at once, so that a large class
# never holds an n x n matrix.
_SCREEN_VALUES = 2**20


def _gamma(m: int) -> float:
    """Higham's gamma_m = m*u / (1 - m*u): the relative error bound of m roundings."""
    return m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)


def _block_rows(n: int) -> int:
    """How many rows of an n-point screen neighbor_table computes at once: at least one."""
    return max(1, _SCREEN_VALUES // n)


def neighbor_table(points: SparseRows, k: int) -> np.ndarray:
    """An n x k intp array: row q holds the k points nearest row q by Euclidean distance, not q.

    k is clamped to len(points) - 1; exact distance ties resolve to the
    lower index. Each row equals a stable argsort of squared_distance from
    row q, which defines the order; blocks of rows are screened at once with
    the Gram form |a|^2 + |b|^2 - 2 a.b, and a row is recomputed exactly only
    where the screen cannot separate its candidates.
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
    sq = np.bincount(rows, weights=points.values * points.values, minlength=n)

    # Rounding bound, with u the unit roundoff and gamma_m = m*u / (1 - m*u).
    # Let N be the largest nnz, s the shared-column count, S_i = |x_i|^2 and
    # T = |a - b|^2 for a pair (a, b) of distinct points.
    # - Exact value D = squared_distance(a, b): each of its m <= 2N differences
    #   is rounded once, then squared and summed in some order, so
    #   |D - T| <= gamma_{m+2} T <= gamma_{2N+2} * 2 (S_a + S_b).
    # - Screen value A = fl(fl(sq_a + sq_b) - 2 g): sq_i carries
    #   |sq_i - S_i| <= gamma_N S_i; g, the s-term dot product over the shared
    #   columns, carries |g - a.b| <= gamma_s sum|a_c b_c| <= gamma_s (S_a + S_b) / 2;
    #   both hold for any summation order, so for bincount's and a gemm's too;
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

    table = np.empty((n, k), dtype=np.intp)
    step = _block_rows(n)
    for lo in range(0, n, step):
        approx = sq[lo : lo + step, None] + sq - 2.0 * (dense[lo : lo + step] @ dense.T)
        np.fill_diagonal(approx[:, lo:], np.inf)  # no point is its own neighbor
        order = np.argsort(approx, axis=1, kind="stable")[:, : k + 1]
        head = np.take_along_axis(approx, order, axis=1)
        table[lo : lo + step] = order[:, :k]
        for q in lo + np.flatnonzero(~np.all(np.diff(head, axis=1) > 2.0 * bound, axis=1)):
            # Near-tie: only points whose screen value is within 2 * bound of
            # the k-th can be among the exact k nearest. Rank those exactly,
            # by (distance, index) as the stable argsort of exact values does.
            # (Subtracting first keeps the rounding from dropping a candidate.)
            candidates = np.flatnonzero(approx[q - lo] - head[q - lo, k - 1] <= 2.0 * bound)
            exact = [squared_distance(points.row(q), points.row(int(i))) for i in candidates]
            table[q] = [i for _, i in sorted(zip(exact, candidates.tolist()))[:k]]
    return table


def _synthesize(X: SparseRows, base: np.ndarray, neighbor: np.ndarray, gap: np.ndarray) -> SparseRows:
    """Row i is a + gap[i] * (b - a), for a = X's row base[i] and b = its row neighbor[i].

    The entries of base a and neighbor b merge by the key row * width + column
    (ValueError if n * width passes int64), exact zeros are dropped, and each
    value is bitwise that pair's alone; for finite rows, gap 0 gives a.
    """
    n = len(base)
    pairs = X.take(np.concatenate([base, neighbor]))
    width = int(pairs.indices.max(initial=0)) + 1
    if n * width > np.iinfo(np.int64).max:
        raise ValueError(f"feature indices up to {width - 1} are too large to merge {n} rows")
    keys = np.repeat(np.tile(np.arange(n) * width, 2), np.diff(pairs.indptr)) + pairs.indices
    # The a half's keys increase, then the b half's: one stable sort merges the two runs.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.concatenate((keys[:1] >= 0, keys[1:] != keys[:-1]))  # keys are >= 0; [] if none
    where = np.empty_like(order)
    where[order] = np.cumsum(first) - 1
    keys, split = keys[first], pairs.indptr[n]
    av, bv = np.zeros(keys.size), np.zeros(keys.size)
    av[where[:split]], bv[where[split:]] = pairs.values[:split], pairs.values[split:]
    rows = keys // width
    values = av + gap[rows] * (bv - av)
    keep = values != 0.0
    keys, rows = keys[keep], rows[keep]
    keys -= rows * width
    return SparseRows._trusted(np.searchsorted(rows, np.arange(n + 1)), keys, values[keep])


def _scalar_draws(rng: np.random.Generator, n: int, k: int, need: int) -> tuple[np.ndarray, ...]:
    """need rounds of rng.integers(n), rng.integers(k) and rng.random(), as three arrays."""
    a, b, gap = np.empty(need, dtype=np.intp), np.empty(need, dtype=np.intp), np.empty(need)
    for i in range(need):
        a[i], b[i], gap[i] = rng.integers(n), rng.integers(k), rng.random()
    return a, b, gap


def _draws(rng: np.random.Generator, n: int, k: int, need: int) -> tuple[np.ndarray, ...] | None:
    """_scalar_draws on a fresh rng, read off its raw PCG64 stream in one call, or None.

    integers(m) is Lemire's (u * m) >> 32 of a 32-bit u, drawn again while the
    low half of u * m is below (2^32 - m) % m; PCG64's u is the low half of a
    fresh word, then its buffered high half; random() is a word's top 53 bits
    times 2^-53. So a round reads two words: a from the first's low half, b
    from its high half, the gap from the second. None, before any draw, for
    another bit generator, k < 2 (integers(1) draws nothing) or n >= 2^32;
    None after it if numpy would have drawn any u again.
    """
    bits = rng.bit_generator
    if type(bits) is not np.random.PCG64 or k < 2 or n >= 2**32:
        return None
    raw = bits.random_raw(2 * need)
    a, b = (raw[0::2] & 0xFFFFFFFF) * np.uint64(n), (raw[0::2] >> 32) * np.uint64(k)
    if any(np.any((u & 0xFFFFFFFF) < (2**32 - m) % m) for u, m in ((a, n), (b, k))):
        return None
    return (a >> 32).astype(np.intp), (b >> 32).astype(np.intp), (raw[1::2] >> 11) * 2.0**-53


# (seed, n, k, need) cases on which _draws must equal _scalar_draws before smote uses it,
# so that a numpy which draws otherwise keeps the scalar calls.
_PROBES = ((0, 2, 2, 1), (1, 9, 5, 300), (2, 4099, 6, 300))


@functools.cache  # the first draw runs the probe, and every later one reads its verdict
def _probe() -> bool:
    for seed, *case in _PROBES:
        got = _draws(np.random.default_rng(seed), *case)
        want = _scalar_draws(np.random.default_rng(seed), *case)
        if got is None or not all(map(np.array_equal, got, want)):
            return False
    return True


def _class_draws(seed: int, n: int, k: int, need: int) -> tuple[np.ndarray, ...]:
    """_scalar_draws on default_rng(seed), read off the raw stream once the probe has passed."""
    drawn = _draws(np.random.default_rng(seed), n, k, need) if _probe() else None
    # random_raw has moved that generator on, so the scalar calls start afresh.
    return _scalar_draws(np.random.default_rng(seed), n, k, need) if drawn is None else drawn


def smote(X: SparseRows, labels: Sequence[int], config: PipelineConfig) -> SmoteResult:
    """Append synthetic minority samples until every class reaches the majority count.

    Reads config.smote_k, the neighbor count, and config.seed. Originals
    come first, bit-identical to the input; synthetic samples follow, with
    their drawn provenance in SmoteResult.drawn. Deterministic for a fixed
    seed (per-class substreams, so class order does not couple the draws).
    """
    if len(X) != len(labels):
        raise ValueError("X and labels must have equal length")
    groups = by_class(labels)
    if len(groups) < 2:
        raise ValueError(f"need at least 2 classes to resample, got {list(groups)}")
    target = max(map(len, groups.values()))

    # Draw every synthetic sample's provenance first: per growing class, its
    # label and its samples' base positions, neighbor positions and gaps. The
    # rows themselves are built one class at a time while the output batch is filled.
    drawn = []
    for cls, members in groups.items():
        need = target - len(members)
        if need <= 0:
            continue
        members = np.array(members)
        if len(members) == 1:
            warnings.warn(
                f"class {cls} has a single member; oversampling by duplication",
                stacklevel=2,
            )
            drawn.append((cls, members.repeat(need), members.repeat(need), np.zeros(need)))
            continue
        k = min(config.smote_k, len(members) - 1)
        table = neighbor_table(X.take(members), k)
        a, b, gap = _class_draws(substream(config.seed, f"smote-class-{cls}"), len(members), k, need)
        drawn.append((cls, members[a], members[table[a, b]], gap))
    synthetic = (_synthesize(X, *arrays) for _, *arrays in drawn)
    grown = chain.from_iterable(repeat(cls, len(gap)) for cls, *_, gap in drawn)
    return SmoteResult(
        vectors=SparseRows.concat(chain([X], synthetic)),
        labels=[int(lab) for lab in labels] + list(grown),
        drawn=drawn,
    )
