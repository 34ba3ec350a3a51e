"""Tests for the fit/predict pipeline and its seed handling."""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgdtext import features, pipeline, sgd
from sgdtext.features import NORMS, NgramRange, count
from sgdtext.pipeline import (
    FittedPipeline,
    PipelineConfig,
    fit_group,
    fit_pipeline,
    predict_group,
    predict_pipeline,
    twin_key,
)
from sgdtext.resample import smote
from sgdtext.search import GridSpec, enumerate_grid
from sgdtext.seeds import substream

from oracles import records, tfidf_to_dict


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
        assert len(records(resampled)) > 0
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

    def test_a_failed_fit_is_raised(self, signature_corpus):
        documents, _ = signature_corpus(n_classes=2, per_class=4)
        with pytest.raises(ValueError, match="at least 2 distinct classes"):
            fit_pipeline(count(documents, NgramRange(1, 1)), [1] * len(documents), PipelineConfig())

    def test_a_failed_stacked_pass_is_every_member_result(self, signature_corpus):
        documents, _ = signature_corpus(n_classes=2, per_class=4)
        configs = [PipelineConfig(alpha=1e-3), PipelineConfig(alpha=1e-4)]
        assert sgd.pass_key(configs[0]) == sgd.pass_key(configs[1])
        first, second = fit_group(count(documents, NgramRange(1, 1)), [1] * len(documents), configs)
        assert isinstance(first, ValueError) and second is first
        assert "at least 2 distinct classes" in str(first)

    def test_a_mixed_group_trains_one_pass_per_pass_key(self, signature_corpus, monkeypatch):
        documents, labels = signature_corpus(n_classes=3, per_class=4)
        counts = count(documents, NgramRange(1, 1))
        group = [
            PipelineConfig(penalty="l1"),
            PipelineConfig(penalty="l2"),
            PipelineConfig(penalty="l1", alpha=1e-3),
            PipelineConfig(smote=True, smote_k=2, loss="logreg", epochs=2),
        ]
        passes, lone = TestTwins.count_passes(monkeypatch)
        fitted = fit_group(counts, labels, group)
        assert [len(values) for values in passes] == [2, 1, 1]
        # The L1 members stack, the L2 member and the SMOTE member each fit alone.
        assert [(args[2].penalty, args[2].loss) for args in lone] == [
            ("l2", "svm"), ("l2", "logreg")
        ]
        TestTwins.assert_each_equals_its_lone_fit(counts, labels, group, fitted)


class TestTwins:
    """Configs equal but for smooth_idf without IDF (equal twin_key) train one model."""

    def test_twins_share_one_model_and_keep_their_own_vectorizer(
        self, signature_corpus, read_only_vectors
    ):
        documents, labels = signature_corpus(n_classes=3, per_class=6)
        labels = [1] * 8 + labels[8:]  # skew: 8/4/6, so SMOTE adds rows
        counts = count(documents, NgramRange(1, 1))
        base = PipelineConfig(use_idf=False, epochs=2, seed=3)
        smoted = replace(base, smote=True, smote_k=2)
        configs = [
            base,
            replace(base, smooth_idf=False),  # base's twin
            replace(base, alpha=1e-3),
            smoted,
            replace(smoted, smooth_idf=False),  # smoted's twin
            replace(smoted, smote_k=3),
            replace(base, use_idf=True),
        ]
        fitted = fit_group(counts, labels, configs)
        models = [result.model for result in fitted]
        assert models[0] is models[1] and models[3] is models[4]
        assert len({id(model) for model in models}) == 5
        # One transform per vector key: without IDF, and with smoothed IDF.
        assert len(read_only_vectors) == 2
        assert [r.tfidf.smooth_idf for r in fitted] == [c.smooth_idf for c in configs]
        # SMOTE's rows change the model: its twin key keeps it apart from base's.
        assert not np.array_equal(models[0].weights, models[3].weights)
        for result, config in zip(fitted, configs):
            [lone] = fit_group(counts, labels, [config])
            assert tfidf_to_dict(result.tfidf) == tfidf_to_dict(lone.tfidf)
            assert np.array_equal(result.model.weights, lone.model.weights)
            assert np.array_equal(result.model.intercepts, lone.model.intercepts)

    def test_the_stacked_pass_trains_one_row_per_twin_key(self, signature_corpus, monkeypatch):
        documents, labels = signature_corpus(n_classes=3, per_class=4)
        base = PipelineConfig(use_idf=False, seed=3)
        configs = [base, replace(base, smooth_idf=False), replace(base, alpha=1e-3), base]
        passes = []
        fit_rows = sgd._fit_rows
        monkeypatch.setattr(
            sgd, "_fit_rows",
            lambda X, values, *rest: passes.append(len(values)) or fit_rows(X, values, *rest),
        )
        fitted = fit_group(count(documents, NgramRange(1, 1)), labels, configs)
        assert passes == [2]
        assert fitted[0].model is fitted[1].model is fitted[3].model
        assert fitted[2].model is not fitted[0].model

    def test_the_stacked_pass_reads_the_transformed_values_in_place(
        self, signature_corpus, monkeypatch
    ):
        # Two vector keys of three alphas each: six rows in one pass, and two arrays.
        documents, labels = signature_corpus(n_classes=3, per_class=4)
        configs = [
            PipelineConfig(norm=norm, alpha=alpha, seed=3)
            for norm in ("l2", "l1")
            for alpha in (1e-4, 1e-3, 1e-2)
        ]
        batches, passes = [], []
        transform, fit_rows = features.transform, sgd._fit_rows
        monkeypatch.setattr(
            features, "transform", lambda *args: batches.append(transform(*args)) or batches[-1]
        )
        monkeypatch.setattr(
            sgd, "_fit_rows",
            lambda X, values, *rest: passes.append(values) or fit_rows(X, values, *rest),
        )
        fit_group(count(documents, NgramRange(1, 1)), labels, configs)
        [rows] = passes
        assert len(batches) == 2 and len(rows) == len(configs)
        # Each row is the values array of a batch transform returned, one per vector key.
        assert [[row is batch.values for batch in batches] for row in rows] == (
            [[True, False]] * 3 + [[False, True]] * 3
        )

    @staticmethod
    def smote_calls(monkeypatch) -> list[PipelineConfig]:
        calls = []
        monkeypatch.setattr(
            pipeline, "smote", lambda X, y, config: calls.append(config) or smote(X, y, config)
        )
        return calls

    @staticmethod
    def assert_each_equals_its_lone_fit(counts, labels, configs, fitted):
        for result, config in zip(fitted, configs):
            lone = fit_pipeline(counts, labels, config)
            assert tfidf_to_dict(result.tfidf) == tfidf_to_dict(lone.tfidf)
            assert np.array_equal(result.model.weights, lone.model.weights)
            assert np.array_equal(result.model.intercepts, lone.model.intercepts)

    # Classes of 10, 4 and 6 distinct documents, so that SMOTE's draws show in the rows.
    VARIED = (
        [[f"sig{c}", f"w{i % 7}", f"w{3 * i % 5}"] for c, n in ((1, 10), (2, 4), (3, 6))
         for i in range(n)],
        [1] * 10 + [2] * 4 + [3] * 6,
    )

    def test_one_smote_call_per_vector_key(self, monkeypatch):
        # A default-grid group, one n-gram range and penalty, with SMOTE:
        # 24 configs, 18 twin keys and 6 vector keys.
        documents, labels = self.VARIED
        counts = count(documents, NgramRange(1, 1))
        base = PipelineConfig(smote=True, smote_k=2, epochs=2, seed=3)
        configs = [c for c in enumerate_grid(GridSpec(), base)
                   if c.ngram_range == NgramRange(1, 1) and c.penalty == "l2"]
        calls = self.smote_calls(monkeypatch)
        fitted = fit_group(counts, labels, configs)
        assert len(configs) == 24 and len(calls) == 6
        self.assert_each_equals_its_lone_fit(counts, labels, configs, fitted)

    def test_a_smote_call_is_shared_only_on_equal_smote_k_and_seed(self, monkeypatch):
        documents, labels = self.VARIED
        counts = count(documents, NgramRange(1, 1))
        base = PipelineConfig(smote=True, smote_k=2, epochs=2, seed=3)
        configs = [
            base,
            replace(base, alpha=1e-3),  # shares base's call
            replace(base, smote_k=3),
            replace(base, smote_k=3, seed=4),
            replace(base, smote_k=3, seed=4, alpha=1e-3),  # shares the call before
        ]
        calls = self.smote_calls(monkeypatch)
        fitted = fit_group(counts, labels, configs)
        assert len(calls) == 3
        self.assert_each_equals_its_lone_fit(counts, labels, configs, fitted)

    @staticmethod
    def count_passes(monkeypatch) -> tuple[list, list]:
        """The values rows of each pass _fit_rows runs, and the args of each fit_multiclass call."""
        passes, lone = [], []
        fit_rows, fit_multiclass = sgd._fit_rows, sgd.fit_multiclass
        monkeypatch.setattr(
            sgd, "_fit_rows",
            lambda X, values, *rest: passes.append(values) or fit_rows(X, values, *rest),
        )
        monkeypatch.setattr(
            sgd, "fit_multiclass", lambda *args: lone.append(args) or fit_multiclass(*args)
        )
        return passes, lone

    def test_the_members_of_one_smote_call_train_in_one_pass(self, monkeypatch):
        # A default-grid group with SMOTE: 6 smote calls, each shared by 3 twin keys.
        documents, labels = self.VARIED
        counts = count(documents, NgramRange(1, 1))
        base = PipelineConfig(smote=True, smote_k=2, epochs=2, seed=3)
        configs = [c for c in enumerate_grid(GridSpec(), base)
                   if c.ngram_range == NgramRange(1, 1) and c.penalty == "l2"]
        calls = self.smote_calls(monkeypatch)
        passes, lone = self.count_passes(monkeypatch)
        fitted = fit_group(counts, labels, configs)
        assert [len(values) for values in passes] == [3] * 6 and lone == []
        # Each pass reads its smote call's values in place, once per member.
        assert len(calls) == 6
        assert all(values[0] is values[1] is values[2] for values in passes)
        assert len({id(values[0]) for values in passes}) == 6
        self.assert_each_equals_its_lone_fit(counts, labels, configs, fitted)

    def test_a_smote_pass_holds_one_pass_key_and_a_lone_member_fits_alone(self, monkeypatch):
        documents, labels = self.VARIED
        counts = count(documents, NgramRange(1, 1))
        base = PipelineConfig(smote=True, smote_k=2, epochs=2, seed=3)
        configs = [
            base,
            replace(base, alpha=1e-3),
            replace(base, loss="logreg"),  # one smote call, another pass key
            replace(base, loss="logreg", alpha=1e-3),
            replace(base, alpha=1e-2),  # joins base's pass
            replace(base, smote_k=3),  # alone in its smote call
        ]
        calls = self.smote_calls(monkeypatch)
        passes, lone = self.count_passes(monkeypatch)
        fitted = fit_group(counts, labels, configs)
        assert len(calls) == 2
        assert [len(values) for values in passes] == [3, 2, 1]
        assert [args[2].alpha for args in lone] == [1e-4]
        self.assert_each_equals_its_lone_fit(counts, labels, configs, fitted)

    def test_the_members_of_one_smote_call_need_not_be_consecutive(self, monkeypatch):
        documents, labels = self.VARIED
        counts = count(documents, NgramRange(1, 1))
        base = PipelineConfig(smote=True, smote_k=2, epochs=2, seed=3)
        configs = [base, replace(base, smote_k=3), replace(base, alpha=1e-3)]
        calls = self.smote_calls(monkeypatch)
        passes, lone = self.count_passes(monkeypatch)
        fitted = fit_group(counts, labels, configs)
        assert [config.smote_k for config in calls] == [2, 3]
        assert [len(values) for values in passes] == [2, 1]
        assert [args[2].smote_k for args in lone] == [3]
        self.assert_each_equals_its_lone_fit(counts, labels, configs, fitted)

    def test_a_failed_smote_call_runs_once_and_is_every_member_result(self, monkeypatch):
        documents, labels = self.VARIED
        base = PipelineConfig(smote=True, smote_k=2, epochs=2, seed=3)
        calls = []

        def failing(X, y, config):
            calls.append(config)
            raise ValueError("no neighbours")

        monkeypatch.setattr(pipeline, "smote", failing)
        configs = [base, replace(base, loss="logreg")]  # one smote call, two pass keys
        first, second = fit_group(count(documents, NgramRange(1, 1)), labels, configs)
        assert len(calls) == 1
        assert isinstance(first, ValueError) and second is first

    def test_twins_share_a_failure(self, signature_corpus):
        documents, _ = signature_corpus(n_classes=2, per_class=4)
        configs = [PipelineConfig(use_idf=False, smote=True, smooth_idf=s) for s in (True, False)]
        first, second = fit_group(count(documents, NgramRange(1, 1)), [1] * len(documents), configs)
        assert isinstance(first, ValueError) and second is first


class TestPredictGroup:
    """predict_group shares fit_group's work on held-out rows: one transform per vector key
    and training counts, one prediction per model object."""

    @staticmethod
    def group(signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=6)
        labels = [1] * 8 + labels[8:]  # skew: 8/4/6, so SMOTE adds rows
        counted = count(documents, NgramRange(1, 1))
        base = PipelineConfig(use_idf=False, epochs=2, seed=3)
        configs = [
            base,
            replace(base, smooth_idf=False),  # base's twin
            replace(base, alpha=1e-3),
            replace(base, smote=True, smote_k=2),
            replace(base, ngram_range=NgramRange(1, 2)),  # its fit fails: the counts are 1-grams
            replace(base, use_idf=True),
            replace(base, norm="l1"),
        ]
        train, held_out = counted.take(range(0, 18, 2)), counted.take(range(1, 18, 2))
        return fit_group(train, labels[::2], configs), held_out

    def test_each_result_is_its_member_predicted_alone(self, signature_corpus):
        fitted, held_out = self.group(signature_corpus)
        assert fitted[0].model is fitted[1].model and isinstance(fitted[4], ValueError)
        unseen = count([["sig0", "sig2"], ["novel"], ["common", "sig1"]], NgramRange(1, 1))
        for counts in (held_out, unseen):
            predicted = predict_group(fitted, counts)
            assert predicted[4] is fitted[4]
            for result, predictions in zip(fitted, predicted):
                if isinstance(result, FittedPipeline):
                    assert predictions == predict_pipeline(result, counts)

    def test_one_transform_per_vector_key_and_one_decision_per_model(
        self, signature_corpus, read_only_vectors, monkeypatch
    ):
        fitted, held_out = self.group(signature_corpus)
        decisions = []
        decision = sgd.decision
        monkeypatch.setattr(
            sgd, "decision", lambda model, X: decisions.append(model) or decision(model, X)
        )
        transformed = len(read_only_vectors)
        predict_group(fitted, held_out)
        # Keys: without IDF (L2 and L1) and with IDF. Models: the twins share one of six.
        assert len(read_only_vectors) - transformed == 3
        assert len(decisions) == len({id(model) for model in decisions}) == 5

    def test_pipelines_fitted_on_different_counts_share_no_batch(
        self, signature_corpus, read_only_vectors
    ):
        documents, labels = signature_corpus(n_classes=3, per_class=4)
        # The same labels on other grams: class k owns tag{k} where it owned sig{k}.
        retagged = [[token.replace("sig", "tag") for token in doc] for doc in documents]
        configs = [PipelineConfig(seed=2), PipelineConfig(alpha=1e-3, seed=2)]
        fitted = [
            result
            for docs in (documents, retagged)
            for result in fit_group(count(docs, NgramRange(1, 1)), labels, configs)
        ]
        held_out = count([["sig0", "tag2"], ["sig2", "tag0"]], NgramRange(1, 1))
        transformed = len(read_only_vectors)
        predicted = predict_group(fitted, held_out)
        assert len(read_only_vectors) - transformed == 2  # one per counts, both of one key
        assert predicted == [predict_pipeline(result, held_out) for result in fitted]
        assert predicted == [[1, 3]] * 2 + [[3, 1]] * 2


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

    @pytest.mark.parametrize("seed", [1.5, False, "3", None])
    def test_reseed_checks_the_seed(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be int, got {re.escape(repr(seed))}$"):
            PipelineConfig().reseed(seed)

    def test_reseed_and_twin_key_equal_replace(self, monkeypatch):
        configs = [
            PipelineConfig(ngram_range=NgramRange(1, 2), norm="l1", use_idf=False, alpha=1e-3,
                           loss="logreg", penalty="l1", epochs=2, smote=True, smote_k=3, seed=9),
            PipelineConfig(use_idf=False, smooth_idf=True),
            PipelineConfig(),
        ]
        expected = [(replace(c, seed=2**63), replace(c, smooth_idf=c.use_idf and c.smooth_idf))
                    for c in configs]
        # Neither runs __post_init__'s checks again.
        monkeypatch.setattr(PipelineConfig, "__post_init__", lambda self: pytest.fail("checked"))
        for config, (reseeded, twin) in zip(configs, expected):
            got = config.reseed(2**63), twin_key(config)
            assert got == (reseeded, twin)
            assert [vars(g) for g in got] == [vars(reseeded), vars(twin)]
        assert configs[2].seed == 0 and twin_key(configs[2]) is configs[2]

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
