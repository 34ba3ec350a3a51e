"""Tests for n-gram extraction, TF-IDF weighting, and sparse vectors."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from sgdtext import features
from sgdtext.features import (
    EmptyCorpusError,
    NgramRange,
    SparseVector,
    TfidfConfig,
    TfidfFormatError,
    extract_ngrams,
    fit,
    load_tfidf,
    normalize,
    save_tfidf,
    tfidf_from_dict,
    tfidf_to_dict,
    transform,
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
    def test_rejects_unsorted_or_duplicate_indices(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseVector(np.array([3, 1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseVector(np.array([2, 2]), np.array([1.0, 2.0]))

    def test_rejects_negative_index_and_explicit_zero(self):
        with pytest.raises(ValueError, match="non-negative"):
            SparseVector(np.array([-1]), np.array([1.0]))
        with pytest.raises(ValueError, match="zeros"):
            SparseVector(np.array([0, 1]), np.array([1.0, 0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            SparseVector(np.array([0, 1]), np.array([1.0]))

    def test_from_pairs_merges_duplicates_and_drops_zero_sums(self):
        v = SparseVector.from_pairs([(4, 1.5), (1, 2.0), (4, 0.5), (7, 3.0), (7, -3.0)])
        assert v.to_dict() == {1: 2.0, 4: 2.0}
        assert v.nnz == 2

    def test_empty_vector(self):
        v = SparseVector.empty()
        assert v.nnz == 0
        assert v.norm_l1() == 0.0
        assert v.norm_l2() == 0.0
        assert v.dot(np.ones(5)) == 0.0

    def test_dot_against_dense(self, random_vector):
        rng = np.random.default_rng(31)
        for _ in range(50):
            v = random_vector(rng, dim=30)
            dense_w = rng.normal(size=30)
            dense_v = np.zeros(30)
            dense_v[v.indices] = v.values
            assert math.isclose(v.dot(dense_w), float(dense_v @ dense_w), rel_tol=1e-12)

    def test_norms_match_dense(self, random_vector):
        rng = np.random.default_rng(32)
        for _ in range(50):
            v = random_vector(rng, dim=30)
            assert math.isclose(v.norm_l1(), float(np.abs(v.values).sum()), rel_tol=1e-12)
            assert math.isclose(
                v.norm_l2(), float(np.linalg.norm(v.values)), rel_tol=1e-12
            )

    def test_equality_and_hash(self):
        a = SparseVector.from_pairs({0: 1.0, 3: 2.0})
        b = SparseVector.from_pairs({0: 1.0, 3: 2.0})
        c = SparseVector.from_pairs({0: 1.0, 3: 2.5})
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestExtractNgrams:
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


class TestFit:
    def test_vocabulary_is_lexicographic(self):
        model = fit([["bravo", "alpha"], ["charlie"]], TfidfConfig())
        assert model.vocabulary == {"alpha": 0, "bravo": 1, "charlie": 2}

    def test_document_frequency_counts_documents_not_occurrences(self):
        model = fit([["a", "a", "b"], ["b"]], TfidfConfig())
        assert model.doc_freq[model.vocabulary["a"]] == 1
        assert model.doc_freq[model.vocabulary["b"]] == 2
        assert model.n_docs == 2

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            fit([], TfidfConfig())
        with pytest.raises(EmptyCorpusError):
            fit([["a"], ["b"]], TfidfConfig(ngram_range=NgramRange(2, 2)))

    def test_refit_is_identical(self):
        docs = [["b", "a"], ["a", "c"], ["c", "c", "b"]]
        first = fit(docs, TfidfConfig())
        second = fit(docs, TfidfConfig())
        assert first.vocabulary == second.vocabulary
        assert np.array_equal(first.doc_freq, second.doc_freq)


class TestIdf:
    def test_plain_formula(self):
        model = fit([["a", "b"], ["b"]], TfidfConfig(smooth_idf=False))
        assert math.isclose(model.idf_array[model.vocabulary["a"]], math.log(2 / 1) + 1.0)
        assert math.isclose(model.idf_array[model.vocabulary["b"]], math.log(2 / 2) + 1.0)

    def test_smooth_formula(self):
        model = fit([["a", "b"], ["b"]], TfidfConfig(smooth_idf=True))
        assert math.isclose(model.idf_array[model.vocabulary["a"]], math.log(3 / 2) + 1.0)
        assert math.isclose(model.idf_array[model.vocabulary["b"]], math.log(3 / 3) + 1.0)

    def test_disabled_idf_is_exactly_one(self):
        model = fit([["a", "b"], ["b", "c"]], TfidfConfig(use_idf=False))
        assert np.array_equal(model.idf_array, np.ones(len(model.vocabulary)))

    def test_out_of_range_feature(self):
        # One weight per vocabulary entry, so a feature index past it has none.
        model = fit([["a"]], TfidfConfig())
        assert model.idf_array.shape == (len(model.vocabulary),)
        with pytest.raises(IndexError):
            model.idf_array[5]


class TestNormalize:
    def test_l2_produces_unit_norm(self, random_vector):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = normalize(random_vector(rng), "l2")
            assert math.isclose(v.norm_l2(), 1.0, rel_tol=0, abs_tol=1e-12)

    def test_l1_produces_unit_norm(self, random_vector):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = normalize(random_vector(rng), "l1")
            assert math.isclose(v.norm_l1(), 1.0, rel_tol=0, abs_tol=1e-12)

    def test_none_is_identity(self):
        v = SparseVector.from_pairs({2: 5.0})
        assert normalize(v, "none") is v

    def test_zero_vector_is_fixed_point(self):
        empty = SparseVector.empty()
        assert normalize(empty, "l1") is empty
        assert normalize(empty, "l2") is empty

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            normalize(SparseVector.empty(), "l3")


class TestTransform:
    def corpus_model(self, **kwargs) -> features.TfidfModel:
        return fit([["a", "b"], ["b", "c"]], TfidfConfig(**kwargs))

    def test_plain_idf_weighting(self):
        model = self.corpus_model(smooth_idf=False, norm="none")
        v = transform(model, ["a", "b"])
        assert v.to_dict() == pytest.approx(
            {model.vocabulary["a"]: math.log(2) + 1.0, model.vocabulary["b"]: 1.0}
        )

    def test_term_counts_scale_weights(self):
        model = self.corpus_model(smooth_idf=False, norm="none")
        v = transform(model, ["a", "a", "b"])
        assert v.to_dict()[model.vocabulary["a"]] == pytest.approx(2 * (math.log(2) + 1.0))

    def test_unknown_tokens_dropped(self):
        model = self.corpus_model(norm="none")
        v = transform(model, ["a", "zzz"])
        assert set(v.indices) == {model.vocabulary["a"]}
        assert transform(model, ["zzz", "qqq"]).nnz == 0

    def test_empty_document_maps_to_empty_vector(self):
        model = self.corpus_model()
        assert transform(model, []).nnz == 0

    def test_l2_norm_applied(self):
        model = self.corpus_model(norm="l2")
        v = transform(model, ["a", "b", "c"])
        assert math.isclose(v.norm_l2(), 1.0, abs_tol=1e-12)

    def test_bigram_transform(self):
        docs = [["bomb", "exploded"], ["bomb", "defused"]]
        model = fit(docs, TfidfConfig(ngram_range=NgramRange(1, 2), norm="none"))
        assert "bomb exploded" in model.vocabulary
        v = transform(model, ["bomb", "exploded"])
        assert model.vocabulary["bomb exploded"] in v.indices


class TestSerialization:
    def test_round_trip_preserves_transform(self, tmp_path):
        docs = [["alpha", "beta"], ["beta", "gamma"], ["gamma", "alpha", "alpha"]]
        model = fit(docs, TfidfConfig(ngram_range=NgramRange(1, 2)))
        path = tmp_path / "tfidf.json"
        save_tfidf(model, path)
        loaded = load_tfidf(path)
        assert loaded.vocabulary == model.vocabulary
        assert np.array_equal(loaded.doc_freq, model.doc_freq)
        assert loaded.n_docs == model.n_docs
        for doc in docs:
            assert transform(loaded, doc) == transform(model, doc)

    def test_version_mismatch_rejected(self):
        data = tfidf_to_dict(fit([["a"]], TfidfConfig()))
        data["version"] = 99
        with pytest.raises(TfidfFormatError, match="version"):
            tfidf_from_dict(data)

    def test_sparse_vocabulary_indices_rejected(self):
        data = tfidf_to_dict(fit([["a", "b"]], TfidfConfig()))
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

    def test_missing_key_reported_as_format_error(self):
        with pytest.raises(TfidfFormatError, match="malformed"):
            tfidf_from_dict({"version": 1})
