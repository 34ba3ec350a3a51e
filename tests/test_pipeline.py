"""Tests for the fit/predict pipeline and its seed handling."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from sgdtext import features, sgd
from sgdtext.features import NgramRange
from sgdtext.pipeline import PipelineConfig, fit_pipeline, predict_pipeline
from sgdtext.resample import smote
from sgdtext.seeds import substream


class TestFitPipeline:
    def test_learns_and_predicts_training_data(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=4, per_class=6)
        fitted = fit_pipeline(documents, labels, PipelineConfig(seed=1))
        assert predict_pipeline(fitted, documents) == labels

    def test_deterministic_for_seed(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=6)
        config = PipelineConfig(loss="logreg", seed=11)
        first = fit_pipeline(documents, labels, config)
        second = fit_pipeline(documents, labels, config)
        assert np.array_equal(first.model.weights, second.model.weights)
        assert np.array_equal(first.model.intercepts, second.model.intercepts)

    def test_seed_changes_model(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=6)
        first = fit_pipeline(documents, labels, PipelineConfig(seed=1))
        second = fit_pipeline(documents, labels, PipelineConfig(seed=2))
        assert not np.array_equal(first.model.weights, second.model.weights)

    def test_vectorizer_fitted_before_resampling(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=4)
        labels = [1] * 6 + labels[6:]  # skew: 6/2/4 so resampling adds rows
        fitted = fit_pipeline(
            documents, labels, PipelineConfig(smote=True, seed=3)
        )
        assert fitted.tfidf.n_docs == len(documents)

    def test_stages_get_substreams_of_the_pipeline_seed(self, signature_corpus):
        # fit_pipeline must equal the stages chained by hand, SMOTE seeded with
        # the "smote" substream and the shuffle with the "shuffle" substream.
        documents, labels = signature_corpus(n_classes=3, per_class=5)
        labels = [1] * 8 + labels[8:]  # histogram 8/2/5 forces synthetic draws
        config = PipelineConfig(smote=True, smote_k=3, seed=7)
        fitted = fit_pipeline(documents, labels, config)

        tfidf = features.fit(documents, config)
        resampled = smote(
            features.transform(tfidf, documents),
            labels,
            replace(config, seed=substream(config.seed, "smote")),
        )
        model = sgd.fit_multiclass(
            resampled.vectors,
            resampled.labels,
            replace(config, seed=substream(config.seed, "shuffle")),
            feature_dim=len(tfidf.vocabulary),
        )
        assert len(resampled.records) > 0
        assert features.tfidf_to_dict(fitted.tfidf) == features.tfidf_to_dict(tfidf)
        assert fitted.model.weights.tobytes() == model.weights.tobytes()
        assert fitted.model.intercepts.tobytes() == model.intercepts.tobytes()

    def test_feature_dim_is_vocabulary_size(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=4)
        fitted = fit_pipeline(
            documents, labels, PipelineConfig(ngram_range=NgramRange(1, 2), seed=1)
        )
        assert fitted.model.feature_dim == len(fitted.tfidf.vocabulary)

    def test_unknown_tokens_still_predict(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=2, per_class=5)
        fitted = fit_pipeline(documents, labels, PipelineConfig(seed=1))
        predictions = predict_pipeline(fitted, [["entirely", "new", "words"]])
        assert predictions[0] in fitted.model.classes

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_pipeline([["a"]], [1, 2], PipelineConfig())


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("norm", "l3", "norm must be one of"),
            ("penalty", "l3", "penalty must be one of"),
            ("alpha", -1.0, "alpha must be positive"),
            ("alpha", float("nan"), "alpha must be positive"),
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
        weights = {
            loss: fit_pipeline(documents, labels, PipelineConfig(loss=loss, seed=1)).model.weights
            for loss in sgd.LOSSES
        }
        assert not np.array_equal(weights["svm"], weights["perceptron"])
        assert not np.array_equal(weights["logreg"], weights["perceptron"])

    def test_integer_alpha_is_a_number(self):
        assert PipelineConfig(alpha=1).alpha == 1
