"""Tests for losses, the SGD trainer, and the oracles it is checked against."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sgdtext import sgd
from sgdtext.features import NgramRange, SparseRows, count
from sgdtext.pipeline import PipelineConfig, fit_group, fit_pipeline
from sgdtext.sgd import (
    LinearModel,
    ModelFormatError,
    NumericError,
    decision,
    epoch_orders,
    fit_multiclass,
    fit_stacked,
    load_model,
    loss_dmargin,
    model_from_dict,
    predict,
    save_model,
    schedule_t0,
)

import oracles
from oracles import (
    batch_gd_oracle,
    binary_row,
    fit_binary_alone,
    fit_multiclass_per_class,
    fit_pipeline_alone,
    fit_rows_every_step,
    loss_value,
    model_to_dict,
    weight_row,
    regularized_objective,
    tfidf_to_dict,
)
from rows import dense_rows, fit_on, rows, vectorize


class TestLossValues:
    def test_hinge(self):
        assert loss_value("svm", 0.25) == 0.75
        assert loss_value("svm", 1.0) == 0.0
        assert loss_value("svm", 3.0) == 0.0
        assert loss_value("svm", -2.0) == 3.0

    def test_log(self):
        assert math.isclose(loss_value("logreg", 0.0), math.log(2.0))
        assert math.isclose(loss_value("logreg", 2.0), math.log1p(math.exp(-2.0)))

    def test_log_extreme_margins_stay_finite(self):
        assert loss_value("logreg", -1000.0) == 1000.0
        assert loss_value("logreg", 1000.0) == 0.0
        assert math.isfinite(loss_value("logreg", -1e8))

    def test_perceptron(self):
        assert loss_value("perceptron", -1.5) == 1.5
        assert loss_value("perceptron", 0.0) == 0.0
        assert loss_value("perceptron", 2.0) == 0.0


class TestLossDerivatives:
    def test_hinge_subgradient(self):
        assert loss_dmargin("svm", 0.5) == -1.0
        assert loss_dmargin("svm", 1.0) == 0.0
        assert loss_dmargin("svm", 2.0) == 0.0

    def test_log_derivative(self):
        assert math.isclose(loss_dmargin("logreg", 0.0), -0.5)
        assert math.isclose(
            loss_dmargin("logreg", 2.0), -math.exp(-2.0) / (1 + math.exp(-2.0))
        )
        assert loss_dmargin("logreg", -1000.0) == -1.0
        assert loss_dmargin("logreg", 1000.0) == 0.0

    def test_perceptron_subgradient_active_at_zero(self):
        # The zero-margin case must produce an update: training starts from
        # zero weights, where every margin is exactly zero.
        assert loss_dmargin("perceptron", 0.0) == -1.0
        assert loss_dmargin("perceptron", -0.5) == -1.0
        assert loss_dmargin("perceptron", 0.5) == 0.0

    def test_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(44)
        h = 1e-6
        for _ in range(200):
            margin = float(rng.uniform(-4.0, 4.0))
            for kind in sgd.LOSSES:
                if kind == "svm" and abs(margin - 1.0) < 1e-3:
                    continue
                if kind == "perceptron" and abs(margin) < 1e-3:
                    continue
                numeric = (
                    loss_value(kind, margin + h) - loss_value(kind, margin - h)
                ) / (2 * h)
                analytic = loss_dmargin(kind, margin)
                assert abs(numeric - analytic) <= 1e-6 * max(1.0, abs(analytic))


class TestSchedule:
    def test_t0_value_for_default_alpha(self):
        # typw = alpha**-0.25 = 10 for alpha 1e-4 and |dloss(-typw)| <= 1,
        # so eta0 = typw and t0 = 1 / (alpha * typw).
        for kind in sgd.LOSSES:
            assert math.isclose(schedule_t0(kind, 1e-4), 1000.0)

    def test_t0_positive_and_monotone_in_alpha(self):
        for kind in sgd.LOSSES:
            assert 0 < schedule_t0(kind, 1e-2) < schedule_t0(kind, 1e-4)


class TestEpochOrders:
    def test_fresh_permutation_per_epoch(self):
        config = PipelineConfig(epochs=4, seed=9)
        orders = epoch_orders(50, config)
        assert len(orders) == 4
        for order in orders:
            assert sorted(order.tolist()) == list(range(50))
        assert not all(np.array_equal(orders[0], o) for o in orders[1:])

    def test_seed_determines_orders(self):
        config = PipelineConfig(epochs=2, seed=5)
        first = epoch_orders(30, config)
        second = epoch_orders(30, config)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


def naive_sgd_l2(
    dense: np.ndarray, y: np.ndarray, config: PipelineConfig
) -> tuple[np.ndarray, float]:
    """Direct dense translation of the L2 update rule, without the scale trick."""
    n, d = dense.shape
    w = np.zeros(d)
    b = 0.0
    t0 = schedule_t0(config.loss, config.alpha)
    t = 0
    for order in epoch_orders(n, config):
        for i in order:
            t += 1
            eta = 1.0 / (config.alpha * (t0 + t))
            margin = y[i] * (float(w @ dense[i]) + b)
            g = loss_dmargin(config.loss, margin)
            w *= 1.0 - eta * config.alpha
            if g != 0.0:
                w -= eta * g * y[i] * dense[i]
                b -= eta * g * y[i]
    return w, b


def naive_sgd_l1(
    dense: np.ndarray, y: np.ndarray, config: PipelineConfig
) -> tuple[np.ndarray, float]:
    """Dense L1 reference: gradient step, then soft-threshold every coordinate."""
    n, d = dense.shape
    w = np.zeros(d)
    b = 0.0
    t0 = schedule_t0(config.loss, config.alpha)
    t = 0
    for order in epoch_orders(n, config):
        for i in order:
            t += 1
            eta = 1.0 / (config.alpha * (t0 + t))
            margin = y[i] * (float(w @ dense[i]) + b)
            g = loss_dmargin(config.loss, margin)
            if g != 0.0:
                w -= eta * g * y[i] * dense[i]
                b -= eta * g * y[i]
            w = np.sign(w) * np.maximum(0.0, np.abs(w) - eta * config.alpha)
    return w, b


def toy_problem(seed: int, n: int = 30, d: int = 6) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, d))
    w_true = rng.normal(size=d)
    y = np.where(dense @ w_true + 0.3 * rng.normal(size=n) >= 0, 1.0, -1.0)
    return dense, y


class TestFitBinary:
    def test_matches_naive_l2_reference(self):
        for kind in sgd.LOSSES:
            dense, y = toy_problem(13)
            config = PipelineConfig(loss=kind, penalty="l2", alpha=0.01, epochs=4, seed=2)
            w_fast, b_fast = binary_row(dense_rows(dense), y, config)
            w_ref, b_ref = naive_sgd_l2(dense, y, config)
            assert np.max(np.abs(w_fast - w_ref)) < 1e-10
            assert abs(b_fast - b_ref) < 1e-10

    def test_matches_naive_l1_reference(self):
        for kind in sgd.LOSSES:
            dense, y = toy_problem(14)
            config = PipelineConfig(loss=kind, penalty="l1", alpha=0.01, epochs=4, seed=3)
            w_fast, b_fast = binary_row(dense_rows(dense), y, config)
            w_ref, b_ref = naive_sgd_l1(dense, y, config)
            assert np.max(np.abs(w_fast - w_ref)) < 1e-10
            assert abs(b_fast - b_ref) < 1e-10

    def test_l1_produces_sparser_weights_than_l2(self):
        dense, y = toy_problem(15, n=60, d=20)
        X = dense_rows(dense)
        w_l1, _ = binary_row(X, y, PipelineConfig(penalty="l1", alpha=0.05, epochs=10, seed=0))
        w_l2, _ = binary_row(X, y, PipelineConfig(penalty="l2", alpha=0.05, epochs=10, seed=0))
        assert np.sum(w_l1 == 0.0) > np.sum(w_l2 == 0.0)

    def test_deterministic_for_seed(self):
        dense, y = toy_problem(16)
        X = dense_rows(dense)
        config = PipelineConfig(epochs=3, seed=21)
        w1, b1 = binary_row(X, y, config)
        w2, b2 = binary_row(X, y, config)
        assert np.array_equal(w1, w2) and b1 == b2
        w3, _ = binary_row(X, y, PipelineConfig(epochs=3, seed=22))
        assert not np.array_equal(w1, w3)

    def test_learns_a_separable_problem(self):
        # Keep only points at least 0.4 from the separating plane so the
        # last SGD iterate has room to classify everything correctly.
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(120, 5))
        dense = raw[np.abs(raw[:, 0]) > 0.4][:40]
        y = np.where(dense[:, 0] > 0, 1.0, -1.0)
        for kind in sgd.LOSSES:
            w, b = binary_row(dense_rows(dense), y, PipelineConfig(loss=kind, epochs=10, seed=1))
            scores = dense @ w + b
            assert np.all(np.sign(scores) == y)

    def test_nonfinite_features_raise_numeric_error(self):
        X = rows({0: 1.0}, {}, {0: 2.0, 3: np.inf})
        with pytest.raises(NumericError, match="sample 2 has non-finite"):
            binary_row(X, [1.0, -1.0, 1.0], PipelineConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="penalty"):
            PipelineConfig(penalty="elastic")
        with pytest.raises(ValueError, match="alpha"):
            PipelineConfig(alpha=0.0)
        with pytest.raises(ValueError, match="epochs"):
            PipelineConfig(epochs=0)


class TestDecisionPredict:
    def model(self) -> LinearModel:
        weights = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, -1.0]])
        intercepts = np.array([0.1, -0.2, 0.0])
        return LinearModel(weights=weights, intercepts=intercepts, classes=[2, 5, 9])

    def test_scores(self):
        scores = decision(self.model(), rows({0: 1.0, 1: 1.0}, {1: 1.0}))
        assert np.allclose(scores, [[1.1, 1.8, -2.0], [0.1, 1.8, -1.0]])

    def test_empty_vector_scores_are_intercepts(self):
        model = self.model()
        scores = decision(model, rows({}))
        assert np.array_equal(scores[0], model.intercepts)
        scores[0, 0] = 99.0
        assert model.intercepts[0] == 0.1

    def test_out_of_range_feature_raises(self):
        with pytest.raises(IndexError, match="out of range"):
            decision(self.model(), rows({1: 1.0}, {5: 1.0}))

    def test_predict_returns_class_id(self):
        assert predict(self.model(), rows({1: 1.0}, {0: 3.0}, {})) == [5, 2, 2]

    def test_tie_breaks_toward_first_class(self):
        weights = np.zeros((2, 1))
        model = LinearModel(weights=weights, intercepts=np.zeros(2), classes=[3, 8])
        assert predict(model, rows({0: 1.0})) == [3]


@pytest.mark.usefixtures("step_loop")
class TestDecisionPredictInEachLoop(TestDecisionPredict):
    """TestDecisionPredict with the numpy loop and with the compiled kernel."""


class TestFitMulticlass:
    def test_two_class_rows_are_exact_mirrors(self):
        # Swapping +1/-1 labels negates every update, so the two
        # one-vs-rest rows of a binary problem are bitwise opposites.
        dense, y = toy_problem(18)
        labels = [0 if v > 0 else 1 for v in y]
        for kind in sgd.LOSSES:
            model = fit_multiclass(
                dense_rows(dense), labels, PipelineConfig(loss=kind, epochs=3, seed=4)
            )
            assert np.array_equal(model.weights[1], -model.weights[0])
            assert model.intercepts[1] == -model.intercepts[0]

    def test_classes_sorted_and_validated(self):
        X = dense_rows(np.eye(4))
        model = fit_multiclass(X, [7, 2, 7, 2], PipelineConfig())
        assert model.classes == [2, 7]
        with pytest.raises(ValueError, match="2 distinct"):
            fit_multiclass(X, [1, 1, 1, 1], PipelineConfig())
        with pytest.raises(ValueError, match="equal length"):
            fit_multiclass(X, [1, 2], PipelineConfig())

    def test_separable_three_class_problem(self):
        rng = np.random.default_rng(6)
        blocks = []
        labels = []
        for cls in range(3):
            block = 0.05 * rng.normal(size=(15, 3))
            block[:, cls] += 1.0
            blocks.append(block)
            labels.extend([cls] * 15)
        dense = np.vstack(blocks)
        X = dense_rows(dense)
        model = fit_multiclass(X, labels, PipelineConfig(epochs=10, seed=0))
        predictions = predict(model, X)
        assert predictions == labels


def tfidf_problem(
    seed: int, n_classes: int, ngram_range: NgramRange, n: int = 36
) -> tuple[SparseRows, list[int]]:
    """TF-IDF vectors of random documents, a few of which transform to the empty vector.

    The vectorizer is fit on all but the last three documents; those use
    only tokens it never saw, and one more document has no tokens at all.
    """
    rng = np.random.default_rng(seed)
    labels = [int(c) for c in rng.permutation(np.arange(n) % n_classes)]
    documents = []
    for label in labels:
        words = rng.integers(0, 12, size=int(rng.integers(1, 7)))
        documents.append([f"c{label}"] * int(rng.integers(0, 2)) + [f"w{w}" for w in words])
    documents[-4] = []
    for doc in documents[-3:]:
        doc[:] = [f"unseen{j}" for j in range(len(doc))]
    model = fit_on(documents[:-3], PipelineConfig(ngram_range=ngram_range))
    X = vectorize(model, documents)
    assert np.count_nonzero(np.diff(X.indptr) == 0) >= 4
    return X, labels


def renormalizes(n: int, config: PipelineConfig) -> bool:
    """Whether an L2 fit of n samples drives wscale under its 1e-9 renormalization floor."""
    t0 = schedule_t0(config.loss, config.alpha)
    wscale = 1.0
    for t in range(1, n * config.epochs + 1):
        wscale *= 1.0 - (1.0 / (config.alpha * (t0 + t))) * config.alpha
        if wscale < 1e-9:
            return True
    return False


class TestSharedPassParity:
    """The one-pass K-row trainer equals K separate per-class runs, byte for byte."""

    NGRAMS = (NgramRange(1, 1), NgramRange(1, 2))

    def configs(self, alpha: float = 0.01, epochs: int = 3):
        for kind in sgd.LOSSES:
            for penalty in ("l1", "l2"):
                yield PipelineConfig(loss=kind, penalty=penalty, alpha=alpha, epochs=epochs, seed=8)

    def assert_multiclass_parity(self, X, labels, config):
        model = fit_multiclass(X, labels, config)
        oracle = fit_multiclass_per_class(X, labels, config)
        assert model.classes == oracle.classes
        assert model.feature_dim == oracle.feature_dim
        assert model.weights.tobytes() == oracle.weights.tobytes()
        assert model.intercepts.tobytes() == oracle.intercepts.tobytes()

    def assert_binary_parity(self, X, y, config):
        w, b = binary_row(X, y, config)
        w_ref, b_ref = fit_binary_alone(X, y, config)
        assert w.tobytes() == w_ref.tobytes()
        assert np.float64(b).tobytes() == np.float64(b_ref).tobytes()

    @pytest.mark.parametrize("n_classes", [2, 3, 6])
    def test_multiclass_rows_equal_per_class_runs(self, n_classes):
        for ngram_range in self.NGRAMS:
            X, labels = tfidf_problem(30 + n_classes, n_classes, ngram_range)
            for config in self.configs():
                self.assert_multiclass_parity(X, labels, config)

    def test_binary_equals_lone_run(self):
        for ngram_range in self.NGRAMS:
            X, labels = tfidf_problem(29, 2, ngram_range)
            y = np.where(np.asarray(labels) == 0, 1.0, -1.0)
            for config in self.configs():
                self.assert_binary_parity(X, y, config)

    def test_wscale_renormalization_branch(self):
        X, labels = tfidf_problem(37, 3, NgramRange(1, 2))
        y = np.where(np.asarray(labels) == 1, 1.0, -1.0)
        for config in self.configs(alpha=1e9, epochs=6):
            if config.penalty == "l2":
                assert renormalizes(len(X), config)
            self.assert_multiclass_parity(X, labels, config)
            self.assert_binary_parity(X, y, config)


PENALTY_LOSS = [(loss, penalty) for loss in sgd.LOSSES for penalty in sgd.PENALTIES]


@st.composite
def stacked_problems(draw):
    """A pattern of n rows over d features, labels, and C configs with values in that pattern.

    The configs differ in alpha and draw their values from a few batches,
    as the TF-IDF variants of one grid group do; rows may be empty.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(4, 14)), draw(st.integers(1, 8))
    n_classes = draw(st.integers(2, 4))
    labels = [int(c) for c in rng.permutation(np.arange(n) % n_classes)]
    pattern = dense_rows(np.where(rng.random((n, d)) < draw(st.sampled_from([0.3, 0.7])), 1.0, 0.0))
    batches = rng.normal(size=(draw(st.integers(1, 4)), pattern.nnz))
    batches[batches == 0.0] = 1.0
    alphas = draw(st.lists(st.sampled_from([1e-6, 1e-4, 1e-2, 1.0, 1e2]), min_size=1, max_size=24))
    values = batches[[draw(st.integers(0, len(batches) - 1)) for _ in alphas]]
    epochs, seed = draw(st.integers(1, 3)), draw(st.integers(0, 2**16))
    return pattern, values, labels, alphas, epochs, seed


class TestStackedParity:
    """Every config of a stacked pass equals a lone fit_multiclass of it, byte for byte."""

    @staticmethod
    def assert_lone_parity(X, values, labels, configs, stacked):
        for row, config, model in zip(values, configs, stacked):
            lone = fit_multiclass(SparseRows(X.indptr, X.indices, row), labels, config)
            assert model.classes == lone.classes and model.feature_dim == lone.feature_dim
            assert model.weights.tobytes() == lone.weights.tobytes()
            assert model.intercepts.tobytes() == lone.intercepts.tobytes()

    @pytest.mark.parametrize("loss, penalty", PENALTY_LOSS)
    @settings(max_examples=40, deadline=None)
    @given(problem=stacked_problems())
    def test_each_config_equals_its_lone_fit(self, loss, penalty, problem):
        X, values, labels, alphas, epochs, seed = problem
        configs = [
            PipelineConfig(loss=loss, penalty=penalty, alpha=alpha, epochs=epochs, seed=seed)
            for alpha in alphas
        ]
        stacked = fit_stacked(X, values, labels, configs)
        self.assert_lone_parity(X, values, labels, configs, stacked)

    @pytest.mark.parametrize("loss, penalty", PENALTY_LOSS)
    def test_wscale_renormalization_branch(self, loss, penalty):
        X, labels = tfidf_problem(37, 3, NgramRange(1, 2))
        values = np.stack([X.values, 0.5 * X.values, X.values])
        configs = [
            PipelineConfig(loss=loss, penalty=penalty, alpha=alpha, epochs=6, seed=8)
            for alpha in (1e9, 1e20, 1e-2)
        ]
        if penalty == "l2":  # the last config never renormalizes while the others do
            assert [renormalizes(len(X), config) for config in configs] == [True, True, False]
        self.assert_lone_parity(X, values, labels, configs, fit_stacked(X, values, labels, configs))

    @pytest.mark.parametrize("penalty", sgd.PENALTIES)
    def test_a_config_whose_steps_are_all_zero_keeps_its_negative_zeros(self, penalty):
        # Subnormal values make the renormalization at alpha 1e9 underflow some
        # negative weights to -0.0. The perceptron's steps for a sample its
        # intercepts already classify are all zero, while the other config's
        # move; subtracting those zero steps would turn -0.0 into 0.0. Under L1
        # the soft threshold after each step maps both zeros to 0.0 anyway.
        X, labels = tfidf_problem(0, 2, NgramRange(1, 1), n=40)
        values = np.stack([X.values * 1e-314, X.values])
        configs = [
            PipelineConfig(loss="perceptron", penalty=penalty, alpha=alpha, epochs=8, seed=2)
            for alpha in (1e9, 1e-2)
        ]
        stacked = fit_stacked(X, values, labels, configs)
        if penalty == "l2":
            zeros = stacked[0].weights[stacked[0].weights == 0.0]
            assert np.signbit(zeros).any()
        self.assert_lone_parity(X, values, labels, configs, stacked)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("loss, penalty", PENALTY_LOSS)
    def test_a_diverging_or_non_finite_config_fails_alone(self, loss, penalty):
        X, labels = tfidf_problem(41, 3, NgramRange(1, 1))
        diverging, non_finite = X.values * 1e308, X.values.copy()
        non_finite[5] = np.nan
        values = np.stack([X.values, diverging, 2.0 * X.values, non_finite])
        configs = [
            PipelineConfig(loss=loss, penalty=penalty, alpha=alpha, epochs=3, seed=1)
            for alpha in (1e-3, 1e-3, 1e-2, 1e-3)
        ]
        first, diverged, third, rejected = fit_stacked(X, values, labels, configs)
        for error, row in ((diverged, diverging), (rejected, non_finite)):
            with pytest.raises(NumericError) as lone:
                fit_multiclass(SparseRows(X.indptr, X.indices, row), labels, configs[1])
            assert type(error) is NumericError and str(error) == str(lone.value)
        self.assert_lone_parity(X, values[[0, 2]], labels, configs[::2], [first, third])

    def test_configs_must_share_the_pass(self):
        X, labels = tfidf_problem(5, 2, NgramRange(1, 1))
        values = np.stack([X.values, X.values])
        with pytest.raises(ValueError, match="one loss, penalty, epochs and seed"):
            fit_stacked(X, values, labels, [PipelineConfig(), PipelineConfig(penalty="l1")])
        with pytest.raises(ValueError, match="one row of X.nnz values per config"):
            fit_stacked(X, values, labels, [PipelineConfig()])

    def test_every_member_but_a_smote_one_stacks(self, monkeypatch):
        rng = np.random.default_rng(6)
        documents = [[f"w{w}" for w in rng.integers(0, 9, size=4)] for _ in range(18)]
        labels = [i % 3 for i in range(18)]
        counts = count(documents, NgramRange(1, 1))
        passes, lone = [], []
        fit_rows, fit_alone = sgd._fit_rows, sgd.fit_multiclass
        monkeypatch.setattr(
            sgd, "_fit_rows", lambda X, values, *rest: passes.append(len(values))
            or fit_rows(X, values, *rest),
        )
        # A pass of one member goes through fit_multiclass, the one-config trainer.
        monkeypatch.setattr(
            sgd, "fit_multiclass", lambda *args, **kwargs: lone.append(args[2])
            or fit_alone(*args, **kwargs),
        )
        configs = [
            PipelineConfig(norm="l2", alpha=1e-3, seed=3),
            PipelineConfig(norm="l1", alpha=1e-3, seed=3),
            PipelineConfig(norm="none", use_idf=False, alpha=1e-4, seed=3),
            PipelineConfig(norm="l2", smote=True, alpha=1e-3, seed=3),
            PipelineConfig(norm="l2", smooth_idf=False, alpha=1e-2, seed=3),
        ]
        group = fit_group(counts, labels, configs)
        assert passes == [4, 1]  # the stack, then the SMOTE member alone
        assert [config.smote for config in lone] == [True]
        for config, fitted in zip(configs, group):
            for got in (fitted, fit_pipeline(counts, labels, config)):
                expected = fit_pipeline_alone(counts, labels, config)
                assert tfidf_to_dict(got.tfidf) == tfidf_to_dict(expected.tfidf)
                assert got.model.weights.tobytes() == expected.model.weights.tobytes()
                assert got.model.intercepts.tobytes() == expected.model.intercepts.tobytes()
        assert len(lone) == 1 + len(configs)  # and so does each fit_pipeline


class HingeRecorder:
    """numpy as the oracle sees it, but keeping the margins of each hinge comparison.

    The oracle compares once per step, so margins[s] is step s's C x K margins.
    """

    def __init__(self):
        self.margins = []

    def __getattr__(self, name):
        return getattr(np, name)

    def less(self, margin, kink):
        self.margins.append(margin.copy())
        return np.less(margin, kink)

    def less_equal(self, margin, kink):
        self.margins.append(margin.copy())
        return np.less_equal(margin, kink)


class TestEveryStepOracle:
    """sgd._fit_rows equals fit_rows_every_step, which builds every step, byte for byte.

    The pass skips a hinge step with no class active; these cases put the
    skip's edges in front of the oracle.
    """

    @staticmethod
    def assert_oracle_parity(X, values, labels, configs) -> np.ndarray:
        """Both passes on the same inputs; returns the oracle's margins, steps x C x K."""
        classes = sorted(set(labels))
        Y = np.where(np.asarray(labels)[:, None] == np.asarray(classes), 1.0, -1.0)
        feature_dim = 1 + (int(X.indices.max()) if X.nnz else -1)
        W, B = sgd._fit_rows(X, values, Y, configs, feature_dim)
        recorder = HingeRecorder()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracles, "np", recorder)
            W_ref, B_ref = fit_rows_every_step(X, values, Y, configs, feature_dim)
        assert W.tobytes() == W_ref.tobytes() and B.tobytes() == B_ref.tobytes()
        return np.array(recorder.margins)

    @pytest.mark.parametrize("loss, penalty", PENALTY_LOSS)
    @settings(max_examples=40, deadline=None)
    @given(problem=stacked_problems())
    def test_every_config_alone_and_all_stacked(self, loss, penalty, problem):
        X, values, labels, alphas, epochs, seed = problem
        configs = [
            PipelineConfig(loss=loss, penalty=penalty, alpha=alpha, epochs=epochs, seed=seed)
            for alpha in alphas
        ]
        for c in range(len(configs)):  # C = 1
            self.assert_oracle_parity(X, values[c : c + 1], labels, configs[c : c + 1])
        self.assert_oracle_parity(X, values, labels, configs)  # C = len(alphas), up to 24

    @pytest.mark.parametrize("stacked", [False, True])
    def test_a_renormalization_on_a_step_with_no_class_active(self, stacked):
        # At alpha 1e9 the L2 wscale falls under its floor once, on step 177. No
        # class of either config is active there, and the weights must still be
        # rescaled.
        X, labels = tfidf_problem(1, 3, NgramRange(1, 2))
        values = np.stack([X.values, 2.0 * X.values])[: 1 + stacked]
        configs = [
            PipelineConfig(loss="perceptron", alpha=alpha, epochs=6, seed=1)
            for alpha in (1e9, 1e-2)
        ][: 1 + stacked]
        margins = self.assert_oracle_parity(X, values, labels, configs)
        renormalized = np.flatnonzero(sgd._schedule(configs[0], len(X) * 6)[3])
        assert renormalized.tolist() == [177]
        assert not (margins[177] <= 0.0).any() and (margins <= 0.0).any()

    @pytest.mark.parametrize("loss, kink", [("svm", 1.0), ("perceptron", 0.0)])
    @pytest.mark.parametrize("penalty", sgd.PENALTIES)
    def test_a_margin_exactly_at_the_kink(self, loss, kink, penalty):
        # eta_1 is exactly 1.0 at this alpha, so the first step sets each intercept
        # to exactly +-1.0, and a later sample with an empty row has margins of
        # exactly +-1.0: an svm class at 1.0 is not active. The perceptron's first
        # margins are all exactly 0.0, which is active.
        alpha = 0.2755080409994844
        X = dense_rows(np.kron(np.eye(6), [[1.0], [0.0]]).repeat(2, axis=1))
        labels = [i % 3 for i in range(12)]
        config = PipelineConfig(loss=loss, penalty=penalty, alpha=alpha, epochs=2, seed=4)
        assert sgd._schedule(config, 1)[0][0] == 1.0
        margins = self.assert_oracle_parity(X, X.values[None], labels, [config])
        assert (margins == kink).any()
        if loss == "perceptron":
            assert (margins[0] == 0.0).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # alpha * (t0 + t) overflows
    @pytest.mark.parametrize("loss", ["svm", "perceptron"])
    @pytest.mark.parametrize("penalty", sgd.PENALTIES)
    def test_eta_underflows_while_classes_are_active(self, loss, penalty):
        # At alpha 1e308 every step after the first has eta 0.0, so an active
        # class's step is 0.0 too and must write nothing.
        X, labels = tfidf_problem(2, 3, NgramRange(1, 1))
        config = PipelineConfig(loss=loss, penalty=penalty, alpha=1e308, epochs=2, seed=5)
        eta = sgd._schedule(config, len(X) * 2)[0]
        assert eta[0] > 0.0 and not eta[1:].any()
        margins = self.assert_oracle_parity(X, X.values[None], labels, [config])
        active = margins < 1.0 if loss == "svm" else margins <= 0.0
        assert active[1:].any()

    @pytest.mark.parametrize("loss", sgd.LOSSES)
    def test_negative_zero_weights(self, loss):
        # Subnormal values make the renormalizations at alpha 1e9 underflow
        # negative weights to -0.0. A step that moves some classes subtracts
        # 0.0 * y, +0.0 or -0.0, from the other classes' weights, and that
        # sign decides whether such a zero stays -0.0.
        X, labels = tfidf_problem(0, 3, NgramRange(1, 1), n=40)
        values = np.stack([X.values * 1e-314, X.values])
        configs = [
            PipelineConfig(loss=loss, alpha=alpha, epochs=8, seed=2) for alpha in (1e9, 1e-2)
        ]
        for c in (1, 2):
            self.assert_oracle_parity(X, values[:c], labels, configs[:c])


@pytest.mark.usefixtures("step_loop")
class TestEveryStepOracleInEachLoop(TestEveryStepOracle):
    """TestEveryStepOracle with the numpy loop and with the compiled kernel."""


@pytest.mark.usefixtures("step_loop")
class TestSharedPassParityInEachLoop(TestSharedPassParity):
    """TestSharedPassParity with the numpy loop and with the compiled kernel."""


@pytest.mark.usefixtures("step_loop")
class TestStackedParityInEachLoop(TestStackedParity):
    """TestStackedParity with the numpy loop and with the compiled kernel."""


def float_rows_problem():
    """A pattern, labels, three configs, and a C-ordered float64 block exact in float32.

    Rows 0 and 2 are equal, so one array object can stand for both.
    """
    X, labels = tfidf_problem(3, 3, NgramRange(1, 2))
    block = np.stack([X.values, 0.5 * X.values, X.values]).astype(np.float32).astype(np.float64)
    configs = [PipelineConfig(alpha=alpha, epochs=2, seed=4) for alpha in (1e-3, 1e-2, 1e-4)]
    return X, labels, block, configs


def repeated_rows(block):
    row = block[0].copy()
    return [row, block[1].copy(), row]


@pytest.mark.usefixtures("step_loop")
class TestValuesAreRowsReadInPlace:
    """fit_stacked takes one row per config, in any float layout, and trains on its values."""

    @pytest.mark.parametrize(
        "layout",
        [
            lambda block: [row.copy() for row in block],
            repeated_rows,
            lambda block: [row.astype(np.float32) for row in block],
            np.asfortranarray,
        ],
        ids=["list", "one-object-repeated", "float32", "fortran-block"],
    )
    def test_every_layout_gives_the_c_ordered_blocks_bytes(self, layout, step_loop, monkeypatch):
        X, labels, block, configs = float_rows_problem()
        expected = fit_stacked(X, block, labels, configs)
        numpy_passes = []
        numpy_steps = sgd._numpy_steps
        monkeypatch.setattr(
            sgd, "_numpy_steps", lambda *args: numpy_passes.append(1) or numpy_steps(*args)
        )
        for got, want in zip(fit_stacked(X, layout(block), labels, configs), expected):
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.intercepts.tobytes() == want.intercepts.tobytes()
        # The kernel reads every layout; none falls back to the numpy loop.
        assert numpy_passes == ([1] if step_loop == "numpy" else [])

    def test_a_row_of_the_wrong_length_is_rejected(self):
        X, labels, block, configs = float_rows_problem()
        for values in ([block[0], block[1][:-1], block[2]], [block[0], block[1]], block[:, :-1]):
            with pytest.raises(ValueError, match="one row of X.nnz values per config"):
                fit_stacked(X, values, labels, configs)


def test_the_kernel_checks_every_row_before_it_runs(monkeypatch):
    monkeypatch.setattr(sgd, "_kernel", None)
    if not (loaded := sgd._compiled()):
        pytest.skip("the compiled kernel does not load here")
    calls, kernel = [], loaded.steps
    monkeypatch.setattr(
        sgd, "_kernel", loaded._replace(steps=lambda *args: calls.append(args) or kernel(*args))
    )
    X, labels, block, configs = float_rows_problem()
    fit_stacked(X, block, labels, configs)
    [(X, values, Y, order, loss, tables, W, B, settled)] = calls
    assert W.any()  # a run writes the weights
    W, B, settled = np.zeros_like(W), np.zeros_like(B), np.zeros_like(settled)
    # A view one short of a row: reading past its end would stay inside the block.
    short = [values[0], values[1][:-1], values[2]]
    with pytest.raises(ValueError, match="values C rows of nnz"):
        kernel(X, short, Y, order, loss, tables, W, B, settled)
    assert not (W.any() or B.any() or settled.any())


def test_scalar_output_matmul_is_the_per_row_dot():
    # The pass computes all its margins with one matmul of a take along the
    # last axis of the C x K x 1 x d weight block and a slice of the
    # C x 1 x nnz x 1 values, and relies on it calling the same ddot as a lone
    # pass's 1-D row @ vals; the oracle's per-step views of 3-D operands must
    # do the same. A numpy whose matmul dispatches otherwise fails here first.
    rng = np.random.default_rng(0)
    for C in (1, 2, 5, 24):
        for K in (1, 2, 6):
            raw, old = np.empty((C, K, 1, 1)), np.empty((C, K, 1, 1))
            for n in (0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100, 257, 1024, 4097):
                blocks = rng.normal(size=(C, K, 1, n + 13))
                a = blocks.take(np.sort(rng.choice(n + 13, size=n, replace=False)), axis=3)
                columns = rng.normal(size=(C, 1, n + 11, 1))
                b = columns[:, :, 3 : 3 + n]  # a column slice of a wider values matrix
                np.matmul(a, b, out=raw)
                np.matmul(a[:, :, 0][:, :, None, :], b[..., 0][..., None], out=old)
                expected = [[a[c, k, 0] @ b[c, 0, :, 0] for k in range(K)] for c in range(C)]
                assert raw.reshape(C, K).tobytes() == np.array(expected).tobytes(), (C, K, n)
                assert old.tobytes() == raw.tobytes(), (C, K, n)


class TestObjectiveAndOracle:
    def test_objective_hand_value(self):
        X = dense_rows(np.array([[1.0, 0.0]]))
        w = np.array([2.0, 1.0])
        value = regularized_objective(X, [1.0], w, 0.5, "svm", alpha=0.1)
        # margin 2.5 -> hinge 0; penalty 0.5 * 0.1 * 5
        assert math.isclose(value, 0.25)
        value_l1 = regularized_objective(
            X, [-1.0], w, 0.0, "svm", alpha=0.1, penalty="l1"
        )
        # margin -2 -> hinge 3; penalty 0.1 * 3
        assert math.isclose(value_l1, 3.3)

    def test_oracle_descends_monotonically(self):
        dense, y = toy_problem(19, n=40, d=5)
        X = dense_rows(dense)
        config = PipelineConfig(loss="logreg", alpha=0.05)
        previous = math.log(2.0)  # objective at the zero model
        for iterations in (5, 50, 500):
            w, b = batch_gd_oracle(X, y, config, iterations)
            value = regularized_objective(X, y, w, b, config.loss, config.alpha)
            assert value <= previous + 1e-12
            previous = value

    def test_oracle_rejects_l1(self):
        X = dense_rows(np.eye(2))
        with pytest.raises(ValueError, match="l2"):
            batch_gd_oracle(X, [1.0, -1.0], PipelineConfig(penalty="l1"), 10)

    def test_zero_iterations_returns_zero_model(self):
        X = dense_rows(np.eye(2))
        w, b = batch_gd_oracle(X, [1.0, -1.0], PipelineConfig(), 0)
        assert np.all(w == 0.0) and b == 0.0


# Zeros, with -0.0, which np.nonzero drops, and the extremes of a float's repr.
WEIGHT_VALUES = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 2.0, -1e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def linear_models(draw) -> LinearModel:
    k = draw(st.integers(1, 4))
    feature_dim = draw(st.integers(0, 6))
    classes = draw(st.lists(st.integers(-(2**70), 2**70), min_size=k, max_size=k, unique=True))
    rows = st.lists(WEIGHT_VALUES, min_size=feature_dim, max_size=feature_dim)
    weights = draw(st.lists(rows, min_size=k, max_size=k))
    intercepts = draw(st.lists(WEIGHT_VALUES, min_size=k, max_size=k))
    return LinearModel(
        weights=np.array(weights, dtype=np.float64).reshape(k, feature_dim),
        intercepts=np.array(intercepts),
        classes=sorted(classes),
    )


class TestModelSerialization:
    def fitted(self) -> LinearModel:
        dense, y = toy_problem(20)
        labels = [0 if v > 0 else 1 for v in y]
        return fit_multiclass(dense_rows(dense), labels, PipelineConfig(epochs=2, seed=1))

    def test_round_trip_is_exact(self, tmp_path):
        model = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.intercepts, model.intercepts)
        assert loaded.classes == model.classes
        assert loaded.feature_dim == model.feature_dim

    def test_zero_weights_stored_sparsely(self):
        weights = np.array([[0.0, 3.0, -0.0]])
        model = LinearModel(weights=weights, intercepts=np.array([0.5]), classes=[1])
        data = model_to_dict(model)
        # struct.pack("<q", 1) and struct.pack("<d", 3.0) in base64.
        assert data["weights"][0] == weight_row([1], [3.0]) == ["AQAAAAAAAAA=", "AAAAAAAACEA="]
        assert model_from_dict(data).weights.tobytes() == np.array([[0.0, 3.0, 0.0]]).tobytes()

    def test_version_mismatch(self):
        data = model_to_dict(self.fitted())
        data["version"] = 0
        with pytest.raises(ModelFormatError, match="version"):
            model_from_dict(data)

    def test_malformed_payload(self):
        with pytest.raises(ModelFormatError, match="malformed"):
            model_from_dict({"version": sgd.MODEL_FORMAT_VERSION, "classes": [1]})

    def test_a_version_1_layout_is_refused_with_the_version_message(self):
        data = {"version": 1, "classes": [1, 2], "feature_dim": 3, "intercepts": [0.0, 0.5],
                "weights": [[[0, 1.5]], [[1, -2.0], [2, 0.25]]]}
        message = "^unsupported model format version 1; expected 2$"
        with pytest.raises(ModelFormatError, match=message):
            model_from_dict(data)

    def test_inconsistent_class_count(self):
        data = model_to_dict(self.fitted())
        data["intercepts"] = data["intercepts"][:1]
        with pytest.raises(ModelFormatError):
            model_from_dict(data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.json")

    def test_directory_raises_the_os_error(self, tmp_path):
        with pytest.raises(IsADirectoryError, match=re.escape(str(tmp_path))):
            load_model(tmp_path)

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"classes": "caf\xe9"}')
        with pytest.raises(ModelFormatError, match=re.escape(f"{path} is not valid JSON")):
            load_model(path)

    @pytest.mark.parametrize(
        "row, intercept, message",
        [
            (weight_row([-1], [0.5]), 0.0, "negative, duplicate or out-of-range"),
            (weight_row([2, 2], [0.5, 0.25]), 0.0, "negative, duplicate or out-of-range"),
            (weight_row([6], [0.5]), 0.0, "negative, duplicate or out-of-range"),
            pytest.param(
                weight_row([5, 0], [0.5, -1.0]), 0.0, "negative, duplicate or out-of-range",
                id="decreasing-indices",
            ),
            (weight_row([2], [float("nan")]), 0.0, "non-finite"),
            (weight_row([2], [float("inf")]), 0.0, "non-finite"),
            (weight_row([2], [0.5]), float("nan"), "non-finite"),
            (weight_row([2], [0.5]), float("-inf"), "non-finite"),
            pytest.param(
                weight_row([2], [0.5]), 10**400, "malformed model file", id="huge-int-intercept"
            ),
            pytest.param(
                [*weight_row([2], [0.5]), ""], 0.0, "weight row 1 is not two base64 strings",
                id="three-strings",
            ),
            pytest.param(
                weight_row([2], [0.5])[:1], 0.0, "weight row 1 is not two base64 strings",
                id="one-string",
            ),
            pytest.param(
                [[2, 0.5]], 0.0, "weight row 1 is not two base64 strings", id="version-1-row"
            ),
            pytest.param(
                [2, weight_row([2], [0.5])[1]], 0.0, "weight row 1 is not two base64 strings",
                id="number-for-indices",
            ),
            pytest.param(
                ["AgAAAAAA*AA=", weight_row([2], [0.5])[1]], 0.0, "weight row 1 is not base64",
                id="non-base64-character",
            ),
            pytest.param(
                ["AgAAAAAAAA\u00e9=", weight_row([2], [0.5])[1]], 0.0,
                "weight row 1 is not base64", id="non-ascii-character",
            ),
            pytest.param(
                ["AgAAAAAAAAA", weight_row([2], [0.5])[1]], 0.0, "weight row 1 is not base64",
                id="bad-padding",
            ),
            pytest.param(
                ["AgAAAA==", "AAAAAAAA4D8="], 0.0, "equal counts of 8-byte indices and values",
                id="length-not-a-multiple-of-8",
            ),
            pytest.param(
                weight_row([2], [0.5, 0.25]), 0.0, "equal counts of 8-byte indices and values",
                id="unequal-counts",
            ),
        ],
    )
    def test_bad_weights_rejected(self, row, intercept, message):
        model = LinearModel(weights=np.zeros((2, 6)), intercepts=np.zeros(2), classes=[1, 2])
        data = model_to_dict(model)
        data["weights"][1] = row
        data["intercepts"][0] = intercept
        with pytest.raises(ModelFormatError, match=message):
            model_from_dict(data)
        data["weights"][1] = weight_row([0, 5], [-1.0, 0.5])
        data["intercepts"][0] = 0.25
        loaded = model_from_dict(data)
        assert loaded.weights[1].tolist() == [-1.0, 0, 0, 0, 0, 0.5]

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(model=linear_models())
    @example(
        model=LinearModel(
            weights=np.array([[0.0, -0.0, 0.0], [5e-324, 1e16, 2.0], [-1e308, -0.0, 0.1]]),
            intercepts=np.array([-0.0, 5e-324, -1e308]),
            classes=[-3, 7, 2**64],
        )
    )
    def test_save_writes_the_bytes_of_the_oracle_dump(self, tmp_path, model):
        path = tmp_path / "model.json"
        save_model(model, path)
        expected = json.dumps(model_to_dict(model), sort_keys=True, indent=1)
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "weight, intercept", [(float("nan"), 0.5), (float("inf"), 0.5), (1.0, float("-inf"))]
    )
    def test_non_finite_model_is_refused_and_the_old_file_kept(self, tmp_path, weight, intercept):
        path = tmp_path / "model.json"
        save_model(self.fitted(), path)
        before = path.read_bytes()
        bad = LinearModel(
            weights=np.array([[weight, 0.0]]), intercepts=np.array([intercept]), classes=[1]
        )
        with pytest.raises(NumericError, match="non-finite"):
            save_model(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
