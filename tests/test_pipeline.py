"""Tests for the fit/predict pipeline and its seed handling."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgdtext import features, sgd
from sgdtext.features import NORMS, NgramRange, count
from sgdtext.pipeline import (
    FittedPipeline,
    PipelineConfig,
    fit_group,
    fit_pipeline,
    predict_pipeline,
)
from sgdtext.resample import smote
from sgdtext.seeds import substream

from oracles import tfidf_to_dict


class TestFitPipeline:
    def test_learns_and_predicts_training_data(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=4, per_class=6)
        counts = count(documents, NgramRange(1, 1))
        fitted = fit_pipeline(counts, labels, PipelineConfig(seed=1))
        assert predict_pipeline(fitted, counts) == labels

    def test_deterministic_for_seed(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=6)
        config = PipelineConfig(loss="logreg", seed=11)
        first = fit_pipeline(count(documents, NgramRange(1, 1)), labels, config)
        second = fit_pipeline(count(documents, NgramRange(1, 1)), labels, config)
        assert np.array_equal(first.model.weights, second.model.weights)
        assert np.array_equal(first.model.intercepts, second.model.intercepts)

    def test_seed_changes_model(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=6)
        counts = count(documents, NgramRange(1, 1))
        first = fit_pipeline(counts, labels, PipelineConfig(seed=1))
        second = fit_pipeline(counts, labels, PipelineConfig(seed=2))
        assert not np.array_equal(first.model.weights, second.model.weights)

    def test_vectorizer_fitted_before_resampling(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=4)
        labels = [1] * 6 + labels[6:]  # skew: 6/2/4 so resampling adds rows
        fitted = fit_pipeline(
            count(documents, NgramRange(1, 1)), labels, PipelineConfig(smote=True, seed=3)
        )
        assert fitted.tfidf.n_docs == len(documents)

    def test_stages_get_substreams_of_the_pipeline_seed(self, signature_corpus):
        # fit_pipeline must equal the stages chained by hand, SMOTE seeded with
        # the "smote" substream and the shuffle with the "shuffle" substream.
        documents, labels = signature_corpus(n_classes=3, per_class=5)
        labels = [1] * 8 + labels[8:]  # histogram 8/2/5 forces synthetic draws
        config = PipelineConfig(smote=True, smote_k=3, seed=7)
        counts = count(documents, config.ngram_range)
        fitted = fit_pipeline(counts, labels, config)

        tfidf = features.fit(counts, config)
        resampled = smote(
            features.transform(tfidf, counts),
            labels,
            replace(config, seed=substream(config.seed, "smote")),
        )
        model = sgd.fit_multiclass(
            resampled.vectors,
            resampled.labels,
            replace(config, seed=substream(config.seed, "shuffle")),
        )
        assert len(resampled.records) > 0
        assert tfidf_to_dict(fitted.tfidf) == tfidf_to_dict(tfidf)
        assert fitted.model.weights.tobytes() == model.weights.tobytes()
        assert fitted.model.intercepts.tobytes() == model.intercepts.tobytes()

    def test_feature_dim_is_vocabulary_size(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=4)
        config = PipelineConfig(ngram_range=NgramRange(1, 2), seed=1)
        fitted = fit_pipeline(count(documents, config.ngram_range), labels, config)
        assert fitted.model.feature_dim == len(fitted.tfidf.vocabulary)

    def test_unknown_tokens_still_predict(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=2, per_class=5)
        unigrams = NgramRange(1, 1)
        fitted = fit_pipeline(count(documents, unigrams), labels, PipelineConfig(seed=1))
        predictions = predict_pipeline(fitted, count([["entirely", "new", "words"]], unigrams))
        assert predictions[0] in fitted.model.classes

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_pipeline(count([["a"]], NgramRange(1, 1)), [1, 2], PipelineConfig())


class TestModelWidth:
    @pytest.mark.filterwarnings("ignore:class .* has a single member")
    @settings(max_examples=60, deadline=None)
    @given(
        docs=st.lists(st.lists(st.sampled_from("abcdefg"), max_size=8), min_size=2, max_size=8),
        ngram_range=st.sampled_from((NgramRange(1, 1), NgramRange(1, 2), NgramRange(2, 3))),
        use_smote=st.booleans(),
        data=st.data(),
    )
    def test_every_member_is_one_weight_column_per_gram(self, docs, ngram_range, use_smote, data):
        """The trainers work out a model's width from its rows, and fit keeps exactly the
        grams that occur in them, with values that stay nonzero: so every fit_group member
        is as wide as its vocabulary, even where the counts list grams no row holds."""
        # A fold's training side: a row subset of the shared counts, some rows repeated.
        positions = data.draw(st.lists(st.integers(0, len(docs) - 1), min_size=2, max_size=10))
        labels = data.draw(
            st.lists(st.integers(1, 3), min_size=len(positions), max_size=len(positions))
            .filter(lambda drawn: len(set(drawn)) > 1)
        )
        counts = count(docs, ngram_range).take(positions)
        assume(counts.rows.nnz)  # fit refuses a vocabulary of no grams
        configs = [
            PipelineConfig(
                ngram_range=ngram_range, norm=norm, use_idf=use_idf, smooth_idf=smooth_idf,
                epochs=1, smote=use_smote, smote_k=2,
            )
            for norm, use_idf, smooth_idf in itertools.product(NORMS, (True, False), (True, False))
        ]
        for fitted in fit_group(counts, labels, configs):
            assert isinstance(fitted, FittedPipeline)
            assert fitted.model.feature_dim == len(fitted.tfidf.grams)


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("norm", "l3", "norm must be one of"),
            ("penalty", "l3", "penalty must be one of"),
            ("alpha", -1.0, "alpha must be positive"),
            ("alpha", float("nan"), "alpha must be positive"),
            ("alpha", math.inf, "alpha must be positive and finite"),
            ("epochs", 0, "epochs must be >= 1"),
            ("smote_k", 0, "smote_k must be >= 1"),
            ("loss", "hinge", "loss must be one of"),
            ("loss", "log", "loss must be one of"),
            ("loss", 7, "loss must be one of"),
            ("loss", None, "loss must be one of"),
        ],
    )
    def test_out_of_range_value_fails_when_built(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(**{field: value})
        with pytest.raises(ValueError, match=message):
            replace(PipelineConfig(), **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ngram_range", (1, 2)),
            ("use_idf", "no"),
            ("use_idf", 0),
            ("smooth_idf", 1),
            ("smote", "yes"),
            ("alpha", "1e-3"),
            ("alpha", True),
            ("epochs", 2.5),
            ("epochs", True),
            ("smote_k", 3.0),
            ("seed", 1.5),
            ("seed", False),
        ],
    )
    def test_wrongly_typed_value_fails_when_built(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            PipelineConfig(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be "):
            replace(PipelineConfig(), **{field: value})

    def test_each_loss_trains_its_own_model(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=4)
        counts = count(documents, NgramRange(1, 1))
        weights = {
            loss: fit_pipeline(counts, labels, PipelineConfig(loss=loss, seed=1)).model.weights
            for loss in sgd.LOSSES
        }
        assert not np.array_equal(weights["svm"], weights["perceptron"])
        assert not np.array_equal(weights["logreg"], weights["perceptron"])

    def test_integer_alpha_is_a_number(self):
        assert PipelineConfig(alpha=1).alpha == 1
