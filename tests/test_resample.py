"""Tests for neighbor search, interpolation, and minority oversampling."""

from __future__ import annotations

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdtext import resample
from sgdtext.features import NORMS, NgramRange, SparseRows
from sgdtext.pipeline import PipelineConfig
from sgdtext.resample import neighbor_table, smote, squared_distance
from oracles import SmoteRecord, interpolate, knn_indices_oracle, records, smote_per_record
from rows import (
    Row, assert_passes_the_checks, batch_bytes, fit_on, from_rows, row, row_bytes, rows, rows_of,
    to_dict, unchecked_batches, vectorize,
)


def dense_of(v: Row, dim: int) -> np.ndarray:
    out = np.zeros(dim)
    out[v[0]] = v[1]
    return out


def random_points(rng: np.random.Generator, count: int, dim: int = 12) -> SparseRows:
    points = []
    for _ in range(count):
        nnz = int(rng.integers(2, 6))
        idx = np.sort(rng.choice(dim, size=nnz, replace=False)).astype(np.int64)
        vals = rng.normal(size=nnz)
        vals[vals == 0.0] = 0.5
        points.append((idx, vals))
    return from_rows(points)


class TestSquaredDistance:
    def test_matches_dense_computation(self):
        rng = np.random.default_rng(51)
        points = rows_of(random_points(rng, 30))
        for _ in range(60):
            i, j = rng.integers(0, 30, size=2)
            expected = float(
                np.sum((dense_of(points[i], 12) - dense_of(points[j], 12)) ** 2)
            )
            assert math.isclose(
                squared_distance(points[i], points[j]), expected, abs_tol=1e-12
            )

    def test_zero_for_identical_points(self):
        v = row({1: 2.0, 5: -1.0})
        assert squared_distance(v, v) == 0.0

    def test_disjoint_supports(self):
        a = row({0: 3.0})
        b = row({4: 4.0})
        assert squared_distance(a, b) == 25.0


class TestInterpolate:
    def test_endpoints_reproduce_inputs_exactly(self):
        a = row({0: 1.0, 3: 2.0})
        b = row({3: 5.0, 7: -1.0})
        assert row_bytes(interpolate(a, b, 0.0)) == row_bytes(a)
        assert row_bytes(interpolate(a, b, 1.0)) == row_bytes(b)
        assert not any(np.shares_memory(x, y) for x, y in zip(interpolate(a, b, 0.0), a))

    def test_midpoint_values(self):
        a = row({0: 2.0})
        b = row({0: 4.0, 1: 6.0})
        mid = interpolate(a, b, 0.5)
        assert to_dict(mid) == {0: 3.0, 1: 3.0}

    def test_exact_cancellation_drops_coordinate(self):
        a = row({0: 1.0})
        b = row({0: -1.0})
        assert interpolate(a, b, 0.5)[0].size == 0

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(52)
        points = rows_of(random_points(rng, 20))
        for _ in range(40):
            i, j = rng.integers(0, 20, size=2)
            gap = float(rng.random())
            da, db = dense_of(points[i], 12), dense_of(points[j], 12)
            expected = da + gap * (db - da)
            got = dense_of(interpolate(points[i], points[j], gap), 12)
            assert np.allclose(got, expected, atol=1e-14)

    def test_invalid_gap(self):
        a = row({0: 1.0})
        with pytest.raises(ValueError, match="gap"):
            interpolate(a, a, 1.5)
        with pytest.raises(ValueError, match="gap"):
            interpolate(a, a, -0.1)


class TestKnnIndices:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(53)
        points = random_points(rng, 25)
        dense = np.array([dense_of(p, 12) for p in rows_of(points)])
        for query in range(25):
            got = knn_indices_oracle(points, query, 5)
            d2 = np.sum((dense - dense[query]) ** 2, axis=1)
            d2[query] = np.inf
            kth = np.sort(d2)[4]
            assert len(got) == 5
            assert query not in got
            for j in got:
                assert d2[j] <= kth * (1 + 1e-9)

    def test_ties_resolve_to_lower_index(self):
        points = rows({0: 1.0}, {0: 2.0}, {0: 2.0})
        assert knn_indices_oracle(points, 0, 1) == [1]

    def test_k_clamped_to_population(self):
        points = rows(*({0: float(i + 1)} for i in range(3)))
        assert sorted(knn_indices_oracle(points, 0, 10)) == [1, 2]

    def test_errors(self):
        points = rows({0: 1.0})
        with pytest.raises(ValueError, match="at least 2"):
            knn_indices_oracle(points, 0, 1)
        two = rows({0: 1.0}, {0: 2.0})
        with pytest.raises(IndexError):
            knn_indices_oracle(two, 5, 1)


def oracle_table(points: SparseRows, k: int) -> list[list[int]]:
    return [knn_indices_oracle(points, q, k) for q in range(len(points))]


def provenance(samples: list[SmoteRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The base positions, neighbor positions and gaps of samples, as _synthesize takes them."""
    return (
        np.array([r.base_index for r in samples], dtype=np.intp),
        np.array([r.neighbor_index for r in samples], dtype=np.intp),
        np.array([r.gap for r in samples], dtype=np.float64),
    )


def tfidf_classes(seed: int, ngram_range: NgramRange, norm: str) -> list[SparseRows]:
    """TF-IDF vectors of a small Zipf-like corpus, split into three classes.

    Every class repeats some of its documents verbatim and holds one document
    of out-of-vocabulary tokens, which transforms to an empty vector.
    """
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(40)]
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    classes: list[list[list[str]]] = []
    for size in (24, 9, 4):
        docs = [
            list(rng.choice(vocab, size=int(rng.integers(3, 9)), p=weights))
            for _ in range(size)
        ]
        docs += [list(docs[int(i)]) for i in rng.integers(0, size, size=3)]
        docs.append(["unseen", "tokens"])
        classes.append(docs)
    model = fit_on(
        [doc for docs in classes for doc in docs if doc[0] != "unseen"],
        PipelineConfig(ngram_range=ngram_range, norm=norm),
    )
    return [vectorize(model, docs) for docs in classes]


class CountingDistance:
    """Stands in for resample.squared_distance and counts the exact re-ranks."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, a: Row, b: Row) -> float:
        self.calls += 1
        return squared_distance(a, b)


class TestNeighborTable:
    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("ngram", [NgramRange(1, 1), NgramRange(1, 2)])
    def test_equals_oracle_on_tfidf_classes(self, norm, ngram):
        for seed in (61, 62):
            for points in tfidf_classes(seed, ngram, norm):
                for k in (1, 3, 5):
                    assert neighbor_table(points, k).tolist() == oracle_table(points, k)

    def test_exact_duplicates(self):
        rng = np.random.default_rng(63)
        points = rows_of(random_points(rng, 8))
        points = from_rows(points + [points[3], points[0], points[3], points[7]])
        for k in (1, 2, 4, 11):
            assert neighbor_table(points, k).tolist() == oracle_table(points, k)

    def test_values_whose_products_underflow(self):
        rng = np.random.default_rng(66)
        points = [(idx, vals * 1e-160) for idx, vals in rows_of(random_points(rng, 10))]
        points = from_rows(points + [points[2]])
        for k in (1, 3):
            assert neighbor_table(points, k).tolist() == oracle_table(points, k)

    def test_all_empty_class(self):
        points = rows(*[{}] * 5)
        table = neighbor_table(points, 3).tolist()
        assert table == oracle_table(points, 3)
        assert table[0] == [1, 2, 3]
        assert table[4] == [0, 1, 2]

    def test_two_points(self):
        points = rows({0: 1.0}, {1: 2.0})
        assert neighbor_table(points, 1).tolist() == [[1], [0]]
        assert neighbor_table(points, 5).tolist() == [[1], [0]]

    def test_k_clamped_to_population(self):
        rng = np.random.default_rng(64)
        points = random_points(rng, 6)
        table = neighbor_table(points, 10)
        assert table.dtype == np.intp and table.shape == (6, 5)
        assert table.tolist() == oracle_table(points, 10)

    def test_near_tie_takes_the_exact_rerank(self, monkeypatch):
        # Both neighbours lie at distance^2 0.7^2 + 0.1^2 from the query, but
        # the Gram-form screen rounds the second one lower. The exact
        # distances keep the tie-break to the lower index.
        points = rows({0: 0.2, 1: 0.3}, {0: 0.9, 1: 0.4}, {0: 0.9, 1: 0.2})
        counting = CountingDistance()
        monkeypatch.setattr(resample, "squared_distance", counting)
        table = neighbor_table(points, 1).tolist()
        assert counting.calls > 0
        assert table[0] == [1]
        assert table == oracle_table(points, 1)

    def test_near_tie_in_a_later_block(self, monkeypatch):
        # The near-tie above, after three far points: in blocks of 3 rows, or
        # of 1 (TestNeighborTableInBlocks), query 3 is screened in a later block.
        far = [{5: 100.0}, {6: 200.0}, {7: 300.0}]
        points = rows(*far, {0: 0.2, 1: 0.3}, {0: 0.9, 1: 0.4}, {0: 0.9, 1: 0.2})
        counting = CountingDistance()
        monkeypatch.setattr(resample, "squared_distance", counting)
        table = neighbor_table(points, 1).tolist()
        assert counting.calls > 0
        assert table[3] == [4]
        assert table == oracle_table(points, 1)

    def test_separated_points_skip_the_exact_rerank(self, monkeypatch):
        points = rows(*({0: float(2**i)} for i in range(6)))
        counting = CountingDistance()
        monkeypatch.setattr(resample, "squared_distance", counting)
        assert neighbor_table(points, 2).tolist() == oracle_table(points, 2)
        assert counting.calls == 0

    def test_smote_equals_oracle_driven_smote(self, monkeypatch):
        classes = tfidf_classes(65, NgramRange(1, 2), "l2")
        X = from_rows(v for points in classes for v in rows_of(points))
        labels = [cls for cls, points in enumerate(classes) for _ in range(len(points))]
        config = PipelineConfig(smote_k=3, seed=10)
        fast = smote(X, labels, config)
        monkeypatch.setattr(
            resample, "neighbor_table", lambda points, k: np.array(oracle_table(points, k), np.intp)
        )
        slow = smote(X, labels, config)
        assert fast.labels == slow.labels
        assert records(fast) == records(slow)
        assert len(fast.vectors) == len(slow.vectors)
        assert batch_bytes(fast.vectors) == batch_bytes(slow.vectors)

    def test_errors(self):
        one = rows({0: 1.0})
        with pytest.raises(ValueError, match="at least 2"):
            neighbor_table(one, 1)
        two = rows({0: 1.0}, {0: 2.0})
        with pytest.raises(ValueError, match="k must be"):
            neighbor_table(two, 0)


@pytest.fixture(scope="class", params=[1, 3], ids=["1-row", "3-row"])
def screen_rows(request):
    """Screen the neighbor table in blocks of 1 or 3 rows instead of one block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resample, "_block_rows", lambda n: request.param)
        yield request.param


@pytest.mark.usefixtures("screen_rows")
class TestNeighborTableInBlocks(TestNeighborTable):
    """Every TestNeighborTable case, with the table screened a few rows at a time."""


@st.composite
def sparse_classes(draw) -> SparseRows:
    """Small classes over few columns with duplicates, empty vectors and 1-ulp nudges."""
    dim = draw(st.integers(1, 8))
    magnitude = st.floats(0.01, 4.0)
    value = st.one_of(magnitude, magnitude.map(lambda v: -v))
    point = st.dictionaries(st.integers(0, dim - 1), value, max_size=dim)
    drawn = draw(st.lists(point, min_size=2, max_size=12))
    points = [row(pairs) for pairs in drawn]
    for _ in range(draw(st.integers(0, 4))):
        indices, values = points[draw(st.integers(0, len(points) - 1))]
        if draw(st.booleans()) and indices.size:
            values = values.copy()
            at = draw(st.integers(0, indices.size - 1))
            values[at] = np.nextafter(values[at], np.inf)
        points.append((indices, values))
    order = draw(st.permutations(range(len(points))))
    return from_rows(points[i] for i in order)


class TestNeighborTableProperty:
    @settings(max_examples=300, deadline=None)
    @given(points=sparse_classes(), k=st.integers(1, 6))
    def test_equals_oracle(self, points, k):
        assert neighbor_table(points, k).tolist() == oracle_table(points, k)


@st.composite
def labeled_batches(draw) -> tuple[SparseRows, list[int]]:
    """A sparse_classes batch dealt into two to four classes, at times one of a single member."""
    points = draw(sparse_classes())
    labels = draw(st.lists(st.integers(0, 2), min_size=len(points), max_size=len(points)))
    if len(set(labels)) < 2 or draw(st.booleans()):
        labels[draw(st.integers(0, len(labels) - 1))] = 7
    return points, labels


@st.composite
def cancelling_records(draw) -> tuple[SparseRows, list[SmoteRecord]]:
    """Rows over few columns and values, with gaps that often cancel a coordinate exactly."""
    dim = draw(st.integers(1, 4))
    value = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, 3.0])
    drawn = draw(st.lists(st.dictionaries(st.integers(0, dim - 1), value), min_size=1, max_size=8))
    X = from_rows(row(pairs) for pairs in drawn)
    position = st.integers(0, len(X) - 1)
    gap = st.sampled_from([0.0, 0.25, 0.5, 0.75]) | st.floats(0.0, 1.0, exclude_max=True)
    samples = draw(st.lists(st.builds(SmoteRecord, st.just(0), position, position, gap)))
    return X, samples


class TestSmoteProperty:
    """smote builds each class at once; every byte equals the per-record oracle."""

    @settings(max_examples=200, deadline=None)
    @given(batch=labeled_batches(), k=st.integers(1, 6), seed=st.integers(0, 2**32))
    @example(batch=(rows({}, {}, {}), [0, 0, 1]), k=2, seed=0)  # X.nnz == 0
    @example(batch=(rows({}, {0: 1.0}, {}, {}), [0, 0, 1, 1]), k=1, seed=1)
    def test_equals_per_record_oracle(self, batch, k, seed):
        X, labels = batch
        config = PipelineConfig(smote_k=k, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast, slow = smote(X, labels, config), smote_per_record(X, labels, config)
        assert records(fast) == records(slow)
        assert fast.labels == slow.labels
        assert batch_bytes(fast.vectors) == batch_bytes(slow.vectors)

    @settings(max_examples=200, deadline=None)
    @given(drawn=cancelling_records())
    @example(drawn=(rows({0: 1.0}, {0: -1.0}), [SmoteRecord(0, 0, 1, 0.5)]))
    def test_batch_interpolation_equals_interpolate(self, drawn):
        X, samples = drawn
        expected = from_rows(
            interpolate(X.row(r.base_index), X.row(r.neighbor_index), r.gap) for r in samples
        )
        assert batch_bytes(resample._synthesize(X, *provenance(samples))) == batch_bytes(expected)


@pytest.mark.usefixtures("draw_path")
class TestSmotePropertyInEachDrawPath(TestSmoteProperty):
    """The per-record oracle, with the draws read off the raw stream and with the scalar calls."""


def interpolated(X: SparseRows, base, neighbor, gap) -> SparseRows:
    """The oracle's rows for the draws, one interpolate call per draw."""
    return from_rows(interpolate(X.row(b), X.row(n), g) for b, n, g in zip(base, neighbor, gap))


class TestSynthesize:
    """_synthesize at the edges of the merge, against interpolate."""

    X = rows({}, {0: 1.0, 3: -2.0}, {3: 4.0, 5: 0.5}, {0: -1.0, 3: 2.0})
    EDGES = [
        (0, 2, 0.5),  # an empty base row
        (1, 0, 0.25),  # an empty neighbor row
        (0, 0, 0.5),  # both empty
        (2, 2, 0.75),  # base == neighbor
        (1, 2, 0.0),  # gap 0
        (1, 3, 0.5),  # every column cancels
    ]

    @pytest.mark.parametrize("base, neighbor, gap", EDGES)
    def test_an_edge_pair_equals_interpolate(self, base, neighbor, gap):
        draws = np.array([base]), np.array([neighbor]), np.array([gap])
        got = resample._synthesize(self.X, *draws)
        assert batch_bytes(got) == batch_bytes(interpolated(self.X, *draws))

    def test_the_edge_pairs_in_one_call_equal_interpolate(self):
        draws = tuple(np.array(column) for column in zip(*self.EDGES))
        got = resample._synthesize(self.X, *draws)
        assert batch_bytes(got) == batch_bytes(interpolated(self.X, *draws))

    def test_keys_past_int64_are_refused(self):
        """Four draws over width 2**61 + 3 need keys up to 4 * width - 1, past 2**63 - 1."""
        X = SparseRows([0, 2, 4, 6], [1, 2**61, 2, 2**61 + 1, 3, 2**61 + 2], np.arange(1.0, 7.0))
        draws = np.array([0, 1, 2, 0]), np.array([1, 2, 0, 2]), np.full(4, 0.5)
        with pytest.raises(ValueError, match="too large to merge 4 rows"):
            resample._synthesize(X, *draws)
        three = tuple(column[:3] for column in draws)  # keys below 3 * width fit
        assert batch_bytes(resample._synthesize(X, *three)) == batch_bytes(interpolated(X, *three))

    @settings(max_examples=200, deadline=None)
    @given(drawn=cancelling_records())
    def test_builds_batches_that_pass_the_checks(self, drawn):
        """Both batches it builds unchecked, the gathered pairs and the merged rows."""
        X, samples = drawn
        with unchecked_batches() as built:
            got = resample._synthesize(X, *provenance(samples))
        assert len(built) == 2 and built[-1] is got
        for batch in built:
            assert_passes_the_checks(batch)


def scalar_triples(seed: int, n: int, k: int, need: int) -> list[tuple[int, int, float]]:
    """need rounds of integers(n), integers(k) and random() on default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(n)), int(rng.integers(k)), float(rng.random())) for _ in range(need)]


def triples(drawn: tuple[np.ndarray, np.ndarray, np.ndarray]) -> list[tuple[int, int, float]]:
    return list(zip(*(array.tolist() for array in drawn)))


class TestDraws:
    """_draws reads the scalar Generator calls' values off the raw PCG64 stream."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        n=st.integers(2, 10**4),
        k=st.integers(2, 6),
        need=st.integers(0, 500),
    )
    @example(seed=0, n=2, k=2, need=0)
    @example(seed=2**64, n=10**4, k=6, need=500)
    def test_equals_the_scalar_calls(self, seed, n, k, need):
        drawn = resample._draws(np.random.default_rng(seed), n, k, need)
        # The scalar calls read 2 * need words and leave no half buffered,
        # unless numpy rejected a draw and drew again; then _draws must decline.
        rng, plain = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [(int(rng.integers(n)), int(rng.integers(k)), float(rng.random()))
                    for _ in range(need)]
        plain.bit_generator.advance(2 * need)
        if all(rng.bit_generator.state[key] == plain.bit_generator.state[key]
               for key in ("state", "has_uint32")):
            assert drawn is not None and triples(drawn) == expected
            assert drawn[2].dtype == np.float64
        else:
            assert drawn is None

    def test_declines_what_it_cannot_read(self):
        assert resample._draws(np.random.default_rng(0), 10, 1, 5) is None  # integers(1) draws nothing
        assert resample._draws(np.random.default_rng(0), 2**32, 3, 5) is None
        for bits in (np.random.MT19937(0), np.random.PCG64DXSM(0), np.random.Philox(0)):
            assert resample._draws(np.random.Generator(bits), 10, 3, 5) is None

    def test_a_rejected_draw_falls_back_to_a_fresh_generator(self, monkeypatch):
        # Lemire's threshold for 3 * 2^30 is 2^30: about a quarter of its draws are redrawn.
        n = 3 * 2**30
        assert resample._draws(np.random.default_rng(5), n, 5, 100) is None
        monkeypatch.setattr(resample, "_probe", lambda: True)
        assert triples(resample._class_draws(5, n, 5, 100)) == scalar_triples(5, n, 5, 100)

    def test_smote_reads_the_raw_stream_where_the_probe_passes(self, monkeypatch):
        if not resample._probe():
            pytest.skip("the raw-stream draws differ from numpy's here")
        X, labels = TestSmote().imbalanced()  # classes of 12, 5 and 3: k >= 2
        scalar, scalar_draws = [], resample._scalar_draws
        monkeypatch.setattr(resample, "_probe", lambda: True)
        monkeypatch.setattr(
            resample, "_scalar_draws", lambda *args: scalar.append(args) or scalar_draws(*args)
        )
        smote(X, labels, PipelineConfig(seed=1))
        assert scalar == []


class TestSmote:
    def imbalanced(self, seed: int = 54) -> tuple[SparseRows, list[int]]:
        rng = np.random.default_rng(seed)
        X, labels = [], []
        for cls, count in ((1, 12), (2, 5), (3, 3)):
            for point in rows_of(random_points(rng, count)):
                X.append(point)
                labels.append(cls)
        return from_rows(X), labels

    def test_histogram_equalized_to_majority(self):
        X, labels = self.imbalanced()
        result = smote(X, labels, PipelineConfig(seed=1))
        assert Counter(result.labels) == {1: 12, 2: 12, 3: 12}
        assert len(records(result)) == (12 - 5) + (12 - 3)

    def test_originals_prefix_untouched(self):
        X, labels = self.imbalanced()
        result = smote(X, labels, PipelineConfig(seed=2))
        assert result.labels[: len(labels)] == labels
        for original, kept in zip(rows_of(X), rows_of(result.vectors)):
            assert row_bytes(kept) == row_bytes(original)

    def test_records_reproduce_synthetics_exactly(self):
        X, labels = self.imbalanced()
        result = smote(X, labels, PipelineConfig(seed=3))
        synthetics = rows_of(result.vectors)[len(X):]
        for record, vector in zip(records(result), synthetics):
            assert labels[record.base_index] == record.label
            assert labels[record.neighbor_index] == record.label
            assert 0.0 <= record.gap < 1.0
            base, neighbor = X.row(record.base_index), X.row(record.neighbor_index)
            rebuilt = interpolate(base, neighbor, record.gap)
            assert row_bytes(rebuilt) == row_bytes(vector)

    def test_neighbors_come_from_k_nearest(self):
        X, labels = self.imbalanced()
        config = PipelineConfig(smote_k=3, seed=4)
        result = smote(X, labels, config)
        for record in records(result):
            members = [i for i, lab in enumerate(labels) if lab == record.label]
            class_points = from_rows(X.row(i) for i in members)
            local_base = members.index(record.base_index)
            k = min(config.smote_k, len(members) - 1)
            allowed = {members[j] for j in knn_indices_oracle(class_points, local_base, k)}
            assert record.neighbor_index in allowed

    def test_classes_at_target_never_shrink(self):
        # Two classes share the majority count: neither gains or loses a row.
        X, _ = self.imbalanced()
        labels = [1] * 8 + [2] * 8 + [3] * 4
        result = smote(X, labels, PipelineConfig(seed=6))
        counts = Counter(result.labels)
        assert counts[1] == 8
        assert counts[2] == 8
        assert counts[3] == 8
        assert all(record.label == 3 for record in records(result))

    def test_single_member_class_duplicates_with_warning(self):
        rng = np.random.default_rng(55)
        X = random_points(rng, 5)
        labels = [1, 1, 1, 1, 2]
        with pytest.warns(UserWarning, match="single member"):
            result = smote(X, labels, PipelineConfig(seed=7))
        synthetics = [
            v for v, lab in zip(rows_of(result.vectors)[5:], result.labels[5:]) if lab == 2
        ]
        assert len(synthetics) == 3
        assert all(row_bytes(v) == row_bytes(X.row(4)) for v in synthetics)
        assert all(r.gap == 0.0 and r.base_index == 4 for r in records(result))

    def test_interpolates_once_per_growing_class(self, monkeypatch):
        X, labels = self.imbalanced()
        calls = []

        def counting(X, base, neighbor, gap):
            calls.append([labels[i] for i in base])
            return synthesize(X, base, neighbor, gap)

        synthesize = resample._synthesize
        monkeypatch.setattr(resample, "_synthesize", counting)
        result = smote(X, labels, PipelineConfig(seed=5))
        assert calls == [[2] * 7, [3] * 9]
        assert sum(map(len, calls)) == len(records(result))

    def test_drawn_holds_each_grown_class_in_row_order(self):
        X, labels = self.imbalanced()
        result = smote(X, labels, PipelineConfig(seed=5))
        assert [cls for cls, *_ in result.drawn] == [2, 3]
        samples = records(result)
        assert [r.label for r in samples] == result.labels[len(labels):]
        for field, column in zip(("base_index", "neighbor_index", "gap"), range(1, 4)):
            drawn = np.concatenate([arrays[column] for arrays in result.drawn])
            assert [getattr(r, field) for r in samples] == drawn.tolist()
        assert all(type(r.base_index) is int and type(r.gap) is float for r in samples)

    def test_deterministic_per_seed(self):
        X, labels = self.imbalanced()
        first = smote(X, labels, PipelineConfig(seed=8))
        second = smote(X, labels, PipelineConfig(seed=8))
        assert records(first) == records(second)
        assert batch_bytes(first.vectors) == batch_bytes(second.vectors)
        third = smote(X, labels, PipelineConfig(seed=9))
        assert records(first) != records(third)

    def test_validation(self):
        X, labels = self.imbalanced()
        with pytest.raises(ValueError, match="2 classes"):
            smote(X, [1] * len(X), PipelineConfig())
        with pytest.raises(ValueError, match="equal length"):
            smote(X, labels[:-1], PipelineConfig())
        with pytest.raises(ValueError, match="smote_k"):
            PipelineConfig(smote_k=0)
