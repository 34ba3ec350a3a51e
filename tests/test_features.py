"""Tests for n-gram extraction, TF-IDF weighting, and the SparseRows batch."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sgdtext import features
from sgdtext.features import (
    NORMS,
    EmptyCorpusError,
    NgramRange,
    SparseRows,
    TfidfFormatError,
    TfidfModel,
    count,
    fit,
    load_tfidf,
    save_tfidf,
    tfidf_from_dict,
    transform,
)
from sgdtext.pipeline import PipelineConfig, vector_key

from oracles import (
    count_strings, extract_ngrams, fit_tokens, normalize, tfidf_to_dict, transform_documents,
)
from rows import (
    batch_bytes, fit_on, from_rows, row, row_bytes, rows, to_dense, to_dict, vectorize,
)


class TestNgramRange:
    def test_valid_ranges(self):
        assert NgramRange(1, 1).hi == 1
        assert NgramRange(2, 4).lo == 2

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            NgramRange(0, 1)
        with pytest.raises(ValueError):
            NgramRange(3, 2)
        with pytest.raises(ValueError):
            NgramRange(1.0, 2)  # type: ignore[arg-type]


class TestSparseVector:
    """A single row of a SparseRows batch: validation, emptiness, dot products, norms."""

    def test_rejects_unsorted_or_duplicate_indices(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseRows([0, 2], np.array([3, 1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseRows([0, 2], np.array([2, 2]), np.array([1.0, 2.0]))

    def test_rejects_negative_index_and_explicit_zero(self):
        with pytest.raises(ValueError, match="non-negative"):
            SparseRows([0, 1], np.array([-1]), np.array([1.0]))
        with pytest.raises(ValueError, match="zeros"):
            SparseRows([0, 2], np.array([0, 1]), np.array([1.0, 0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            SparseRows([0, 2], np.array([0, 1]), np.array([1.0]))

    def test_from_pairs_merges_duplicates_and_drops_zero_sums(self):
        v = rows([(4, 1.5), (1, 2.0), (4, 0.5), (7, 3.0), (7, -3.0)])
        assert to_dict(v.row(0)) == {1: 2.0, 4: 2.0}
        assert v.nnz == 2

    def test_empty_vector(self):
        v = rows({})
        indices, values = v.row(0)
        assert len(v) == 1 and v.nnz == 0
        assert float(np.abs(values).sum()) == 0.0
        assert float(math.sqrt(values @ values)) == 0.0
        assert float(np.ones(5)[indices] @ values) == 0.0

    def test_dot_against_dense(self, random_vector):
        rng = np.random.default_rng(31)
        batch = from_rows(random_vector(rng, dim=30) for _ in range(50))
        dense = to_dense(batch, 30)
        for i in range(50):
            indices, values = batch.row(i)
            dense_w = rng.normal(size=30)
            got = float(dense_w[indices] @ values)
            assert math.isclose(got, float(dense[i] @ dense_w), rel_tol=1e-12)

    def test_norms_match_dense(self, random_vector):
        rng = np.random.default_rng(32)
        batch = from_rows(random_vector(rng, dim=30) for _ in range(50))
        dense = to_dense(batch, 30)
        for i in range(50):
            _, values = batch.row(i)
            assert math.isclose(
                float(np.abs(values).sum()), float(np.abs(dense[i]).sum()), rel_tol=1e-12
            )
            assert math.isclose(
                float(math.sqrt(values @ values)), float(np.linalg.norm(dense[i])), rel_tol=1e-12
            )

    def test_equality_and_hash(self):
        a = rows({0: 1.0, 3: 2.0})
        b = rows({0: 1.0, 3: 2.0})
        c = rows({0: 1.0, 3: 2.5})
        assert batch_bytes(a) == batch_bytes(b)
        assert hash(batch_bytes(a)) == hash(batch_bytes(b))
        assert batch_bytes(a) != batch_bytes(c)


class TestSparseRows:
    """Batch validation: each case fails only the check it names."""

    def test_rejects_an_unsorted_row_after_a_valid_one(self):
        SparseRows([0, 2, 4], [0, 5, 1, 3], [1.0, 2.0, 3.0, 4.0])  # a row may start lower
        with pytest.raises(ValueError, match="strictly increasing within each row"):
            SparseRows([0, 2, 4], [0, 5, 3, 1], [1.0, 2.0, 3.0, 4.0])

    def test_rejects_a_negative_index(self):
        with pytest.raises(ValueError, match="non-negative"):
            SparseRows([0, 1, 3], [4, -2, 0], [1.0, 2.0, 3.0])

    def test_rejects_an_explicit_zero(self):
        with pytest.raises(ValueError, match="explicit zeros"):
            SparseRows([0, 1, 3], [4, 0, 2], [1.0, 2.0, 0.0])

    @pytest.mark.parametrize("indptr", [[0, 1, 2], [0, 1, 4], [1, 3]])
    def test_rejects_an_indptr_that_disagrees_with_nnz(self, indptr):
        with pytest.raises(ValueError, match="start at 0 and end at nnz"):
            SparseRows(indptr, [0, 1, 2], [1.0, 2.0, 3.0])

    def test_rejects_a_decreasing_indptr(self):
        with pytest.raises(ValueError, match="never decrease"):
            SparseRows([0, 2, 1, 3], [0, 1, 2], [1.0, 2.0, 3.0])

    def test_rejects_arrays_that_are_not_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            SparseRows([0, 2], [[0, 1]], [[1.0, 2.0]])

    def test_rows_are_views_and_empty_rows_are_allowed(self):
        batch = SparseRows([0, 0, 2, 2, 3], [1, 4, 0], [1.0, 2.0, 3.0])
        assert len(batch) == 4 and batch.nnz == 3
        indices, values = batch.row(1)
        assert indices.tolist() == [1, 4] and values.tolist() == [1.0, 2.0]
        assert indices.base is batch.indices and values.base is batch.values
        assert batch.row(0)[0].size == 0 and batch.row(3)[1].tolist() == [3.0]

    def test_empty_batch(self):
        batch = SparseRows.concat([])
        assert len(batch) == 0 and batch.nnz == 0
        assert batch.indptr.tolist() == [0]

    def test_take_orders_rows_as_asked(self):
        batch = rows({1: 1.0, 0: 1.0}, {}, {2: 2.0}, {1: 1.0})
        taken = batch.take([3, 0, 1, 2])
        assert taken.indptr.tolist() == [0, 1, 3, 3, 4]
        assert taken.indices.tolist() == [1, 0, 1, 2]
        assert taken.values.tolist() == [1.0, 1.0, 1.0, 2.0]

    def test_take_repeats_rows_and_copies(self):
        batch = rows({0: 1.0, 4: -2.0}, {3: 5.0})
        taken = batch.take([1, 1, 0, 1])
        assert [row_bytes(taken.row(i)) for i in range(4)] == [
            row_bytes(batch.row(i)) for i in (1, 1, 0, 1)
        ]
        assert not np.shares_memory(taken.values, batch.values)

    def test_take_nothing_and_empty_rows(self):
        assert SparseRows.concat([]).take([]).indptr.tolist() == [0]
        assert rows({0: 1.0}, {}).take([]).indptr.tolist() == [0]
        assert batch_bytes(rows({}, {}).take([1, 0, 1])) == batch_bytes(rows({}, {}, {}))

    def test_concat_stacks_batches_in_order(self):
        first = rows({0: 1.0, 3: 2.0}, {})
        second = rows({1: -1.0})
        stacked = SparseRows.concat(iter([first, SparseRows.concat([]), second, first]))
        assert stacked.indptr.tolist() == [0, 2, 2, 3, 5, 5]
        assert batch_bytes(stacked) == batch_bytes(
            rows({0: 1.0, 3: 2.0}, {}, {1: -1.0}, {0: 1.0, 3: 2.0}, {})
        )


class TestExtractNgrams:
    """The string oracle count is checked against."""

    def test_unigram_counts(self):
        counts = extract_ngrams(["a", "b", "a"], NgramRange(1, 1))
        assert counts == {"a": 2, "b": 1}

    def test_bigrams_join_with_space(self):
        counts = extract_ngrams(["a", "b", "c"], NgramRange(2, 2))
        assert counts == {"a b": 1, "b c": 1}

    def test_mixed_range(self):
        counts = extract_ngrams(["x", "y"], NgramRange(1, 2))
        assert counts == {"x": 1, "y": 1, "x y": 1}

    def test_document_shorter_than_lo_is_empty(self):
        assert extract_ngrams(["only"], NgramRange(2, 3)) == {}

    def test_repeated_bigram_counted(self):
        counts = extract_ngrams(["a", "b", "a", "b"], NgramRange(2, 2))
        assert counts["a b"] == 2


class TestCount:
    def test_columns_are_the_batch_grams_in_sorted_order(self):
        counts = count([["b", "a", "b"], [], ["a"], ["c"]], NgramRange(1, 1))
        assert counts.grams == ["a", "b", "c"] and len(counts) == 4
        assert counts.rows.indptr.tolist() == [0, 2, 2, 3, 4]
        assert counts.rows.indices.tolist() == [0, 1, 0, 2]
        assert counts.rows.values.tolist() == [1.0, 2.0, 1.0, 1.0]

    def test_each_row_counts_its_document_in_gram_order(self):
        docs = [["x", "y", "x", "y"], ["y"], ["a", "x"]]
        counts = count(docs, NgramRange(1, 2))
        for i, tokens in enumerate(docs):
            indices, values = counts.rows.row(i)
            expected = sorted(extract_ngrams(tokens, NgramRange(1, 2)).items())
            assert [(counts.grams[j], v) for j, v in zip(indices, values)] == expected

    def test_no_documents(self):
        counts = count([], NgramRange(1, 2))
        assert counts.grams == [] and len(counts) == 0 and counts.rows.nnz == 0

    def test_take_keeps_the_gram_list_and_orders_rows_as_asked(self):
        counts = count([["a", "b"], [], ["c", "c"], ["b"]], NgramRange(1, 1))
        taken = counts.take([3, 0, 1, 2])
        assert taken.grams is counts.grams and taken.ngram_range == counts.ngram_range
        assert batch_bytes(taken.rows) == batch_bytes(counts.rows.take([3, 0, 1, 2]))


# Characters above U+0020 that sort on either side of letters, and past the BMP.
ODD_CHARACTERS = ["!", "~", "\u00e9", "\u2028", "\U0001f600", "a", "b"]
# Tokens that are prefixes of one another, so a gram and a longer one share a start.
PREFIX_TOKENS = ["a", "a!", "ab", "b"]
ORACLE_TOKENS = st.one_of(
    st.sampled_from(PREFIX_TOKENS),
    st.text(st.sampled_from(ODD_CHARACTERS), min_size=1, max_size=3),
    st.text(st.characters(min_codepoint=0x21), min_size=1, max_size=2),
)
ORACLE_RANGES = (
    NgramRange(1, 1), NgramRange(1, 2), NgramRange(2, 3), NgramRange(3, 3), NgramRange(1, 4),
)


def assert_same_counts(got, expected):
    assert got.grams == expected.grams and got.ngram_range == expected.ngram_range
    assert batch_bytes(got.rows) == batch_bytes(expected.rows)


class TestCountOracle:
    """count on token ranks equals the gram-string oracle bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        docs=st.lists(st.lists(ORACLE_TOKENS, max_size=8), max_size=6),
        ngram_range=st.sampled_from(ORACLE_RANGES),
        as_generator=st.booleans(),
    )
    def test_equals_the_string_oracle(self, docs, ngram_range, as_generator):
        """Empty documents, documents shorter than lo, no documents, and a generator
        (as eval passes) all count as the oracle does."""
        got = count((d for d in docs) if as_generator else docs, ngram_range)
        assert_same_counts(got, count_strings(docs, ngram_range))

    @pytest.mark.parametrize("ngram_range", [NgramRange(1, 6), NgramRange(5, 12)])
    def test_codes_past_int64_are_reranked(self, ngram_range):
        """With 3000 distinct tokens, (U + 1) ** hi is far above 2**63."""
        rng = np.random.default_rng(0)
        words = [f"w{i:04d}" for i in range(3000)]
        phrase = [words[i] for i in rng.integers(0, 3000, 15)]
        docs = [words, phrase * 3, [words[i] for i in rng.integers(0, 3000, 40)] + phrase, []]
        assert (len(words) + 1) ** ngram_range.hi > 2**63
        assert_same_counts(count(docs, ngram_range), count_strings(docs, ngram_range))

    def test_grams_of_hundreds_of_tokens(self):
        """hi = 300 over two distinct tokens: the codes re-rank every 39 or so tokens."""
        docs = [["a", "b"] * 130, ["b", "a"] * 100, ["a"] * 255]
        ngram_range = NgramRange(250, 300)
        assert_same_counts(count(docs, ngram_range), count_strings(docs, ngram_range))

    @pytest.mark.parametrize("token", ["", "a b", "a\tb", "b\n", "\x00", " "])
    def test_a_token_with_space_or_control_or_none_raises(self, token):
        with pytest.raises(ValueError, match="U\\+0020"):
            count([["a", "b"], ["c", token]], NgramRange(1, 2))


class TestFit:
    def test_vocabulary_is_lexicographic(self):
        model = fit_on([["bravo", "alpha"], ["charlie"]], PipelineConfig())
        assert model.vocabulary == {"alpha": 0, "bravo": 1, "charlie": 2}

    def test_document_frequency_counts_documents_not_occurrences(self):
        model = fit_on([["a", "a", "b"], ["b"]], PipelineConfig())
        assert model.doc_freq[model.vocabulary["a"]] == 1
        assert model.doc_freq[model.vocabulary["b"]] == 2
        assert model.n_docs == 2

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            fit_on([], PipelineConfig())
        with pytest.raises(EmptyCorpusError):
            fit_on([["a"], ["b"]], PipelineConfig(ngram_range=NgramRange(2, 2)))

    def test_refit_is_identical(self):
        docs = [["b", "a"], ["a", "c"], ["c", "c", "b"]]
        first = fit_on(docs, PipelineConfig())
        second = fit_on(docs, PipelineConfig())
        assert first.vocabulary == second.vocabulary
        assert np.array_equal(first.doc_freq, second.doc_freq)


class TestIdf:
    def test_plain_formula(self):
        model = fit_on([["a", "b"], ["b"]], PipelineConfig(smooth_idf=False))
        assert math.isclose(model.idf_array[model.vocabulary["a"]], math.log(2 / 1) + 1.0)
        assert math.isclose(model.idf_array[model.vocabulary["b"]], math.log(2 / 2) + 1.0)

    def test_smooth_formula(self):
        model = fit_on([["a", "b"], ["b"]], PipelineConfig(smooth_idf=True))
        assert math.isclose(model.idf_array[model.vocabulary["a"]], math.log(3 / 2) + 1.0)
        assert math.isclose(model.idf_array[model.vocabulary["b"]], math.log(3 / 3) + 1.0)

    def test_disabled_idf_is_exactly_one(self):
        model = fit_on([["a", "b"], ["b", "c"]], PipelineConfig(use_idf=False))
        assert np.array_equal(model.idf_array, np.ones(len(model.vocabulary)))

    def test_out_of_range_feature(self):
        # One weight per vocabulary entry, so a feature index past it has none.
        model = fit_on([["a"]], PipelineConfig())
        assert model.idf_array.shape == (len(model.vocabulary),)
        with pytest.raises(IndexError):
            model.idf_array[5]


class TestNormalize:
    """The per-document normalization kept in tests/oracles.py as the reference."""

    def test_l2_produces_unit_norm(self, random_vector):
        rng = np.random.default_rng(7)
        for _ in range(50):
            _, values = normalize(random_vector(rng), "l2")
            assert math.isclose(math.sqrt(values @ values), 1.0, rel_tol=0, abs_tol=1e-12)

    def test_l1_produces_unit_norm(self, random_vector):
        rng = np.random.default_rng(8)
        for _ in range(50):
            _, values = normalize(random_vector(rng), "l1")
            assert math.isclose(float(np.abs(values).sum()), 1.0, rel_tol=0, abs_tol=1e-12)

    def test_none_is_identity(self):
        v = row({2: 5.0})
        assert normalize(v, "none") is v

    def test_zero_vector_is_fixed_point(self):
        empty = row()
        assert normalize(empty, "l1") is empty
        assert normalize(empty, "l2") is empty

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            normalize(row(), "l3")


class TestTransform:
    def corpus_model(self, **kwargs) -> features.TfidfModel:
        return fit_on([["a", "b"], ["b", "c"]], PipelineConfig(**kwargs))

    def test_plain_idf_weighting(self):
        model = self.corpus_model(smooth_idf=False, norm="none")
        v = vectorize(model, [["a", "b"]]).row(0)
        assert to_dict(v) == pytest.approx(
            {model.vocabulary["a"]: math.log(2) + 1.0, model.vocabulary["b"]: 1.0}
        )

    def test_term_counts_scale_weights(self):
        model = self.corpus_model(smooth_idf=False, norm="none")
        v = vectorize(model, [["a", "a", "b"]]).row(0)
        assert to_dict(v)[model.vocabulary["a"]] == pytest.approx(2 * (math.log(2) + 1.0))

    def test_unknown_tokens_dropped(self):
        model = self.corpus_model(norm="none")
        indices, _ = vectorize(model, [["a", "zzz"]]).row(0)
        assert set(indices) == {model.vocabulary["a"]}
        assert vectorize(model, [["zzz", "qqq"]]).nnz == 0

    def test_empty_document_maps_to_empty_vector(self):
        model = self.corpus_model()
        batch = vectorize(model, [[]])
        assert len(batch) == 1 and batch.nnz == 0

    def test_l2_norm_applied(self):
        model = self.corpus_model(norm="l2")
        _, values = vectorize(model, [["a", "b", "c"]]).row(0)
        assert math.isclose(math.sqrt(values @ values), 1.0, abs_tol=1e-12)

    def test_bigram_transform(self):
        docs = [["bomb", "exploded"], ["bomb", "defused"]]
        model = fit_on(docs, PipelineConfig(ngram_range=NgramRange(1, 2), norm="none"))
        assert "bomb exploded" in model.vocabulary
        indices, _ = vectorize(model, [["bomb", "exploded"]]).row(0)
        assert model.vocabulary["bomb exploded"] in indices

    def test_one_row_per_document_in_order(self):
        model = self.corpus_model(norm="l1")
        docs = [["c"], [], ["zzz"], ["a", "b"], ["b", "b", "c"]]
        batch = vectorize(model, docs)
        assert len(batch) == len(docs)
        for i, doc in enumerate(docs):
            assert row_bytes(batch.row(i)) == row_bytes(vectorize(model, [doc]).row(0))
        assert vectorize(model, []).indptr.tolist() == [0]


VOCAB = [f"t{i}" for i in range(7)]
# "zz" never occurs in a fitted corpus, so a document of it has no known n-gram.
TOKENS = st.sampled_from(VOCAB + ["zz"])
NGRAMS = (NgramRange(1, 1), NgramRange(1, 2), NgramRange(2, 3))


class TestOnePattern:
    @settings(max_examples=200, deadline=None)
    @given(
        docs=st.lists(st.lists(TOKENS, max_size=20), min_size=1, max_size=8),
        ngram_range=st.sampled_from(NGRAMS),
        settings_pair=st.lists(
            st.tuples(st.sampled_from(NORMS), st.booleans(), st.booleans()), min_size=2, max_size=2
        ),
        data=st.data(),
    )
    def test_every_fit_on_one_counts_gives_one_pattern(
        self, docs, ngram_range, settings_pair, data
    ):
        """fit keeps exactly the grams that occur, and idf * tf >= 1 stays nonzero once
        divided by a finite row norm: pipeline.fit_group stacks every member on one pattern."""
        # Rows of a shared count, as a fold's training side takes them, some repeated.
        positions = data.draw(st.lists(st.integers(0, len(docs) - 1), min_size=1, max_size=10))
        counts = count(docs, ngram_range).take(positions)
        assume(counts.rows.nnz)
        patterns = set()
        for norm, use_idf, smooth_idf in settings_pair:
            config = PipelineConfig(
                ngram_range=ngram_range, norm=norm, use_idf=use_idf, smooth_idf=smooth_idf
            )
            X = transform(fit(counts, config), counts)
            assert X.nnz == counts.rows.nnz
            patterns.add((X.indptr.tobytes(), X.indices.tobytes()))
        assert len(patterns) == 1


# Every (norm, use_idf, smooth_idf) setting of a vectorizer.
WEIGHTINGS = list(itertools.product(NORMS, (True, False), (True, False)))


class TestVectorKey:
    """pipeline.fit_group and predict_group transform once per vector_key and share the rows."""

    @settings(max_examples=100, deadline=None)
    @given(
        docs=st.lists(st.lists(TOKENS, max_size=20), min_size=1, max_size=8),
        other_docs=st.lists(st.lists(TOKENS, max_size=20), max_size=6),
        ngram_range=st.sampled_from(NGRAMS),
        data=st.data(),
    )
    def test_fits_with_equal_keys_transform_bitwise_equal(
        self, docs, other_docs, ngram_range, data
    ):
        counted = count(docs, ngram_range)
        # A fold's sides: row subsets of one count, which share its gram list.
        train, held_out = (
            counted.take(data.draw(st.lists(st.integers(0, len(docs) - 1), max_size=10)))
            for _ in range(2)
        )
        assume(train.rows.nnz)
        others = (train, held_out, count(other_docs, ngram_range))
        by_key: dict[tuple, list[tuple]] = {}
        for norm, use_idf, smooth_idf in WEIGHTINGS:
            config = PipelineConfig(
                ngram_range=ngram_range, norm=norm, use_idf=use_idf, smooth_idf=smooth_idf
            )
            model = fit(train, config)
            assert vector_key(model) == vector_key(config)
            by_key.setdefault(vector_key(config), []).append(
                [batch_bytes(transform(model, counts)) for counts in others]
            )
        # Without IDF the two smooth_idf settings meet: 12 settings, 9 keys.
        assert len(by_key) == 9
        for outputs in by_key.values():
            assert all(output == outputs[0] for output in outputs)

    @pytest.mark.parametrize("norm, use_idf, smooth_idf", WEIGHTINGS)
    def test_transform_reads_no_field_outside_the_key_and_the_shared_arrays(
        self, norm, use_idf, smooth_idf
    ):
        """A setting added to TfidfModel and read by transform must join vector_key too."""
        read: set[str] = set()

        class Recording(TfidfModel):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        counted = count([["a", "b", "a"], ["b", "c"], ["c", "d", "d"]], NgramRange(1, 2))
        train = counted.take([0, 1])
        config = PipelineConfig(
            ngram_range=NgramRange(1, 2), norm=norm, use_idf=use_idf, smooth_idf=smooth_idf
        )
        fitted = fit(train, config)
        model = Recording(**{f.name: getattr(fitted, f.name) for f in dataclasses.fields(fitted)})
        for counts in (train, counted, count([["a", "e"]], NgramRange(1, 2))):
            assert batch_bytes(transform(model, counts)) == batch_bytes(transform(fitted, counts))
        assert np.array_equal(model.idf_array, fitted.idf_array)
        key = {"norm", "use_idf", "smooth_idf"}
        # What every fit on one counts object shares: its range, grams and frequencies.
        shared = {"ngram_range", "grams", "doc_freq", "n_docs", "fitted_on"}
        fields = {f.name for f in dataclasses.fields(TfidfModel)}
        assert read & fields <= key | shared
        assert {"norm", "use_idf", "grams"} <= read


class TestBatchTransformProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        fit_docs=st.lists(
            st.lists(st.sampled_from(VOCAB), min_size=3, max_size=20), min_size=1, max_size=6
        ),
        docs=st.lists(st.lists(TOKENS, max_size=20), max_size=10),
        ngram_range=st.sampled_from(NGRAMS),
        norm=st.sampled_from(NORMS),
        use_idf=st.booleans(),
        smooth_idf=st.booleans(),
        data=st.data(),
    )
    def test_equals_per_document_oracle(
        self, fit_docs, docs, ngram_range, norm, use_idf, smooth_idf, data
    ):
        config = PipelineConfig(
            ngram_range=ngram_range, norm=norm, use_idf=use_idf, smooth_idf=smooth_idf
        )
        model = fit_on(fit_docs, config)
        if data.draw(st.booleans(), label="extreme weights"):
            # Weights 1e520 apart make the normalization round the small ones
            # to zero (or, with L2, overflow the norm and zero the whole row).
            factors = data.draw(
                st.lists(
                    st.sampled_from([1.0, 1e-320, 1e200]),
                    min_size=len(model.vocabulary),
                    max_size=len(model.vocabulary),
                ),
                label="idf factors",
            )
            model.idf_array = model.idf_array * np.asarray(factors)
        with np.errstate(divide="ignore", over="ignore"):
            expected = transform_documents(model, docs)
            got = vectorize(model, docs)
        assert batch_bytes(got) == batch_bytes(expected)


class TestGroupedNorms:
    """transform's norms equal the per-document oracle's on both sides of the grouping threshold.

    A batch of at least features._GROUPED_NORM_ROWS rows reduces a
    block of rows of one length at a time, a smaller one row by row.
    """

    # Distinct unigrams per row, around the blocks numpy's sums and dot
    # products unroll by, and one length many rows share.
    LENGTHS = [0, 1, 7, 8, 9, 127, 128, 129, 300] * 3 + [8] * 150

    @staticmethod
    def documents(seed):
        rng = np.random.default_rng(seed)
        vocabulary = [f"w{i}" for i in range(400)]
        docs = []
        for length in TestGroupedNorms.LENGTHS:
            tokens = rng.choice(vocabulary, size=length, replace=False).tolist()
            docs.append(tokens + tokens[: int(rng.integers(0, length + 1))])
        return docs

    @pytest.mark.parametrize("extreme", [False, True], ids=["plain", "extreme-weights"])
    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_equals_per_document_oracle(self, norm, extreme):
        docs = self.documents(seed=len(norm) + extreme)
        order = np.random.default_rng(3).permutation(len(docs))
        docs = [docs[i] for i in order]
        model = fit_on(docs, PipelineConfig(norm=norm))
        if extreme:
            factors = np.random.default_rng(4).choice([1.0, 1e-320, 1e200], len(model.grams))
            model.idf_array = model.idf_array * factors
        small = features._GROUPED_NORM_ROWS - 1
        assert len(docs) > features._GROUPED_NORM_ROWS
        for batch in (docs[:small], docs):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                expected = transform_documents(model, batch)
                got = vectorize(model, batch)
            assert batch_bytes(got) == batch_bytes(expected)


# Empty documents, documents shorter than lo = 2, and repeated grams from a small vocabulary.
FIT_DOCS = st.lists(st.lists(st.sampled_from(VOCAB[:4]), max_size=12), min_size=1, max_size=6)


class TestCountedOracle:
    """count, then fit and transform, equal the token oracles bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        fit_docs=FIT_DOCS,
        docs=st.lists(st.lists(TOKENS, max_size=12), max_size=6),
        ngram_range=st.sampled_from(NGRAMS),
        norm=st.sampled_from(NORMS),
        use_idf=st.booleans(),
        smooth_idf=st.booleans(),
    )
    def test_fit_and_transform_equal_the_token_oracle(
        self, fit_docs, docs, ngram_range, norm, use_idf, smooth_idf
    ):
        config = PipelineConfig(
            ngram_range=ngram_range, norm=norm, use_idf=use_idf, smooth_idf=smooth_idf
        )
        # Fitted alone, or on the rows of a count shared with the held-out
        # documents, whose grams the training rows may lack.
        joint = count(fit_docs + docs, ngram_range)
        fit_counts = [count(fit_docs, ngram_range), joint.take(range(len(fit_docs)))]
        try:
            expected = fit_tokens(fit_docs, config)
        except EmptyCorpusError:
            for counts in fit_counts:
                with pytest.raises(EmptyCorpusError):
                    fit(counts, config)
            return
        held_out = joint.take(range(len(fit_docs), len(fit_docs) + len(docs)))
        for counts, other in zip(fit_counts, (count(docs, ngram_range), held_out)):
            model = fit(counts, config)
            assert model.grams == expected.grams
            assert model.vocabulary == expected.vocabulary
            assert model.doc_freq.tobytes() == expected.doc_freq.tobytes()
            assert model.n_docs == expected.n_docs
            for batch, tokens in ((counts, fit_docs), (other, docs)):
                got = transform(model, batch)
                assert batch_bytes(got) == batch_bytes(transform_documents(expected, tokens))

    @settings(max_examples=100, deadline=None)
    @given(
        fit_docs=st.lists(
            st.lists(st.sampled_from(VOCAB), min_size=2, max_size=12), min_size=1, max_size=5
        ),
        ngram_range=st.sampled_from(NGRAMS[:2]),
        norm=st.sampled_from(NORMS),
        move_rows=st.booleans(),
        data=st.data(),
    )
    def test_vocabulary_indexed_out_of_gram_order(
        self, fit_docs, ngram_range, norm, move_rows, data
    ):
        # fit indexes the vocabulary in gram order, and tfidf.json must list it so.
        model = fit_on(fit_docs, PipelineConfig(ngram_range=ngram_range, norm=norm))
        saved = tfidf_to_dict(model)
        vocabulary = saved["vocabulary"]
        permutation = data.draw(st.permutations(range(len(vocabulary))))
        if permutation == sorted(permutation):
            assert tfidf_from_dict(saved).grams == model.grams
            return
        if move_rows:  # the rows reordered and numbered 0..V-1 again
            saved["vocabulary"] = [
                [vocabulary[p][0], index, vocabulary[p][2]] for index, p in enumerate(permutation)
            ]
            message = "not in n-gram order"
        else:  # the rows in gram order, their indices permuted
            for entry in vocabulary:
                entry[1] = permutation[entry[1]]
            message = "dense"
        with pytest.raises(TfidfFormatError, match=message):
            tfidf_from_dict(saved)

    def test_counts_of_another_ngram_range_are_rejected(self):
        counts = count([["a", "b"], ["b", "c"]], NgramRange(1, 1))
        bigram = PipelineConfig(ngram_range=NgramRange(1, 2))
        with pytest.raises(ValueError, match="n-gram range"):
            fit(counts, bigram)
        model = fit(count([["a", "b"]], NgramRange(1, 2)), bigram)
        with pytest.raises(ValueError, match="n-gram range"):
            transform(model, counts)


# Characters json escapes (quotes, backslashes, control characters, DEL, non-ASCII
# with the line separator U+2028) beside ones it writes as they are (space, letters).
SPECIAL = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\xe9", "\u2028", "\U0001f600", " ", "a"]
GRAMS = st.text(st.sampled_from(SPECIAL) | st.characters(), max_size=5)


@st.composite
def tfidf_models(draw) -> TfidfModel:
    """A vectorizer built by hand: distinct grams, indexed in gram order as fit indexes them."""
    grams = sorted(draw(st.sets(GRAMS, max_size=8)))
    n_docs = draw(st.integers(1, 2**40))
    doc_freq = draw(st.lists(st.integers(1, n_docs), min_size=len(grams), max_size=len(grams)))
    lo = draw(st.integers(1, 3))
    return TfidfModel(
        grams, np.array(doc_freq, dtype=np.int64), n_docs,
        ngram_range=NgramRange(lo, draw(st.integers(lo, 4))), use_idf=draw(st.booleans()),
        smooth_idf=draw(st.booleans()), norm=draw(st.sampled_from(NORMS)),
    )


EMPTY_VOCABULARY = {
    "version": 1, "ngram_range": [1, 2], "use_idf": True, "smooth_idf": False, "norm": "l1",
    "n_docs": 3, "vocabulary": [],
}


def vocabulary_of(size: int) -> TfidfModel:
    """size distinct grams, indexed in gram order."""
    grams = [f"g{i:05d}" for i in range(size)]
    return TfidfModel(
        grams, np.arange(1, size + 1), size, ngram_range=NgramRange(1, 1),
        use_idf=True, smooth_idf=True, norm="l2",
    )


class TestSerialization:
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(model=tfidf_models())
    @example(model=tfidf_from_dict(EMPTY_VOCABULARY))
    @example(model=vocabulary_of(2 * features._VOCABULARY_BLOCK + 3))  # three blocks
    def test_save_writes_the_bytes_of_the_oracle_dump(self, tmp_path, model):
        path = tmp_path / "tfidf.json"
        save_tfidf(model, path)
        expected = json.dumps(tfidf_to_dict(model), sort_keys=True, indent=1)
        assert path.read_bytes() == expected.encode("utf-8")
        assert load_tfidf(path).grams == model.grams

    def test_round_trip_preserves_transform(self, tmp_path):
        docs = [["alpha", "beta"], ["beta", "gamma"], ["gamma", "alpha", "alpha"]]
        model = fit_on(docs, PipelineConfig(ngram_range=NgramRange(1, 2)))
        path = tmp_path / "tfidf.json"
        save_tfidf(model, path)
        loaded = load_tfidf(path)
        assert loaded.vocabulary == model.vocabulary
        assert np.array_equal(loaded.doc_freq, model.doc_freq)
        assert loaded.n_docs == model.n_docs
        assert batch_bytes(vectorize(loaded, docs)) == batch_bytes(vectorize(model, docs))

    def test_version_mismatch_rejected(self):
        data = tfidf_to_dict(fit_on([["a"]], PipelineConfig()))
        data["version"] = 99
        with pytest.raises(TfidfFormatError, match="version"):
            tfidf_from_dict(data)

    def test_an_ngram_listed_twice_is_rejected(self):
        data = tfidf_to_dict(fit_on([["a", "b"]], PipelineConfig()))
        data["vocabulary"] = [["a", 0, 1], ["a", 1, 1]]
        with pytest.raises(TfidfFormatError, match="twice"):
            tfidf_from_dict(data)

    def test_sparse_vocabulary_indices_rejected(self):
        data = tfidf_to_dict(fit_on([["a", "b"]], PipelineConfig()))
        data["vocabulary"] = [["a", 0, 1], ["b", 2, 1]]
        with pytest.raises(TfidfFormatError, match="dense"):
            tfidf_from_dict(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", "utf-8")
        with pytest.raises(TfidfFormatError, match="JSON"):
            load_tfidf(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_tfidf(tmp_path / "absent.json")

    def test_directory_raises_the_os_error(self, tmp_path):
        with pytest.raises(IsADirectoryError, match=re.escape(str(tmp_path))):
            load_tfidf(tmp_path)

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "tfidf.json"
        path.write_bytes(b'{"norm": "caf\xe9"}')
        with pytest.raises(TfidfFormatError, match=re.escape(f"{path} is not valid JSON")):
            load_tfidf(path)

    def test_missing_key_reported_as_format_error(self):
        with pytest.raises(TfidfFormatError, match="malformed"):
            tfidf_from_dict({"version": 1})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("norm", "l3", "norm must be one of"),
            ("n_docs", 0, "n_docs must be >= 1"),
            pytest.param("n_docs", 2**63, "at most 2\\*\\*63 - 1", id="n_docs-past-int64"),
            ("df", 0, "document frequencies"),
            ("df", -4, "document frequencies"),
            ("df", 3, "document frequencies"),
            pytest.param("df", 10**30, "malformed vectorizer file", id="df-huge-int"),
        ],
    )
    def test_out_of_range_values_rejected(self, field, value, message):
        data = tfidf_to_dict(fit_on([["a", "b"], ["b"]], PipelineConfig(smooth_idf=False)))
        if field == "df":
            data["vocabulary"][0][2] = value
        else:
            data[field] = value
        with pytest.raises(TfidfFormatError, match=message):
            tfidf_from_dict(data)

    def test_the_largest_n_docs_gives_a_finite_idf(self):
        data = tfidf_to_dict(fit_on([["a", "b"], ["b"]], PipelineConfig(smooth_idf=False)))
        data["n_docs"] = 2**63 - 1
        assert np.all(np.isfinite(tfidf_from_dict(data).idf_array))
