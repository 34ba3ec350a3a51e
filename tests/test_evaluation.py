"""Tests for confusion matrices, per-class metrics, folds, and the CV runner."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from sgdtext import evaluation, features, sgd
from sgdtext.evaluation import (
    ConfusionMatrix,
    CrossValidationError,
    confusion,
    cross_validate,
    per_class_metrics,
    render_class_report,
    render_cv_line,
    report_to_dict,
    stratified_kfold,
)
from sgdtext.features import EmptyCorpusError, NgramRange
from sgdtext.pipeline import PipelineConfig, twin_key
from sgdtext.search import GridSpec, enumerate_grid
from sgdtext.seeds import substream

from oracles import micro_averages


def random_confusion(rng: np.random.Generator, max_classes: int = 8) -> ConfusionMatrix:
    k = int(rng.integers(2, max_classes + 1))
    counts = rng.integers(0, 40, size=(k, k)).astype(np.int64)
    if counts.sum() == 0:
        counts[0, 0] = 1
    return ConfusionMatrix(counts=counts, classes=list(range(k)))


class TestConfusion:
    def test_rows_are_true_columns_are_predicted(self):
        cm = confusion([1, 1, 2], [1, 2, 2], [1, 2])
        assert cm.counts.tolist() == [[1, 1], [0, 1]]

    def test_unknown_labels_rejected(self):
        with pytest.raises(ValueError, match="unknown true"):
            confusion([3], [1], [1, 2])
        with pytest.raises(ValueError, match="unknown predicted"):
            confusion([1], [3], [1, 2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            confusion([1, 2], [1], [1, 2])

    def test_a_class_listed_twice_is_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            confusion([1, 2], [1, 2], [1, 1, 2])

    def test_classes_without_samples_allowed(self):
        cm = confusion([1], [1], [1, 2, 3])
        assert cm.counts.shape == (3, 3)


class TestPerClassMetrics:
    def test_hand_computed_two_class_case(self):
        cm = ConfusionMatrix(
            counts=np.array([[8, 2], [3, 7]], dtype=np.int64), classes=[0, 1]
        )
        report = per_class_metrics(cm)
        m0, m1 = report.per_class[0], report.per_class[1]
        assert math.isclose(m0.precision, 8 / 11)
        assert math.isclose(m0.recall, 8 / 10)
        assert math.isclose(m0.f1, 2 * (8 / 11) * 0.8 / (8 / 11 + 0.8))
        assert math.isclose(m1.precision, 7 / 9)
        assert math.isclose(m1.recall, 0.7)
        assert m0.support == 10 and m1.support == 10
        assert math.isclose(report.accuracy, 15 / 20)
        assert report.total_support == 20

    def test_macro_is_unweighted_mean(self):
        cm = ConfusionMatrix(
            counts=np.array([[5, 0], [10, 10]], dtype=np.int64), classes=[0, 1]
        )
        report = per_class_metrics(cm)
        precisions = [report.per_class[c].precision for c in report.classes]
        recalls = [report.per_class[c].recall for c in report.classes]
        assert math.isclose(report.macro_avg[0], sum(precisions) / 2)
        assert math.isclose(report.macro_avg[1], sum(recalls) / 2)

    def test_weighted_scales_by_support(self):
        cm = ConfusionMatrix(
            counts=np.array([[5, 0], [10, 10]], dtype=np.int64), classes=[0, 1]
        )
        report = per_class_metrics(cm)
        expected = (report.per_class[0].precision * 5 + report.per_class[1].precision * 20) / 25
        assert math.isclose(report.weighted_avg[0], expected)

    def test_absent_class_reports_zeros(self):
        cm = ConfusionMatrix(
            counts=np.array([[4, 0], [0, 0]], dtype=np.int64), classes=[0, 1]
        )
        report = per_class_metrics(cm)
        dead = report.per_class[1]
        assert dead.precision == 0.0 and dead.recall == 0.0 and dead.f1 == 0.0
        assert dead.support == 0

    def test_empty_matrix_rejected(self):
        cm = ConfusionMatrix(counts=np.zeros((2, 2), dtype=np.int64), classes=[0, 1])
        with pytest.raises(ValueError, match="empty"):
            per_class_metrics(cm)

    def test_weighted_recall_equals_accuracy(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            cm = random_confusion(rng)
            report = per_class_metrics(cm)
            assert abs(report.weighted_avg[1] - report.accuracy) < 1e-12

    def test_micro_averages_equal_accuracy(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            cm = random_confusion(rng)
            accuracy = per_class_metrics(cm).accuracy
            precision, recall, f1 = micro_averages(cm)
            assert abs(precision - accuracy) < 1e-12
            assert abs(recall - accuracy) < 1e-12
            assert abs(f1 - accuracy) < 1e-12


class TestRenderClassReport:
    def test_table_shape_and_formatting(self):
        cm = confusion([0, 0, 0, 1, 1], [0, 0, 1, 1, 1], [0, 1])
        report = per_class_metrics(cm)
        text = render_class_report(report)
        lines = text.splitlines()
        assert lines[0] == "\tprecision\trecall\tf1-score\tsupport"
        assert lines[1].startswith("cat0\t")
        assert lines[2].startswith("cat1\t")
        assert lines[3].startswith("avg / total\t")
        assert text.endswith("\n")
        fields = lines[1].split("\t")
        assert fields[1] == "1.00000"
        assert fields[2] == f"{2 / 3:.5f}"
        assert fields[4] == "3"
        total_fields = lines[3].split("\t")
        assert total_fields[4] == "5"

    def test_default_names_use_class_ids(self):
        cm = confusion([1, 2], [1, 2], [1, 2])
        lines = render_class_report(per_class_metrics(cm)).splitlines()
        assert lines[1].startswith("cat1\t")
        assert lines[2].startswith("cat2\t")

    def test_report_to_dict_round_values(self):
        cm = confusion([0, 1], [0, 1], [0, 1])
        data = report_to_dict(per_class_metrics(cm))
        assert data["accuracy"] == 1.0
        assert data["per_class"]["0"]["support"] == 1
        assert set(data["macro_avg"]) == {"precision", "recall", "f1"}


class TestStratifiedKfold:
    def test_folds_partition_the_index_set(self):
        labels = [i % 3 for i in range(50)]
        plan = stratified_kfold(labels, 5, seed=1)
        merged = sorted(i for fold in plan.folds for i in fold)
        assert merged == list(range(50))

    def test_per_class_counts_within_one(self):
        rng = np.random.default_rng(63)
        for trial in range(10):
            n = int(rng.integers(40, 400))
            labels = [int(c) for c in rng.integers(0, 4, size=n)]
            if min(Counter(labels).values()) < 10:
                continue
            plan = stratified_kfold(labels, 10, seed=trial)
            totals = Counter(labels)
            for fold in plan.folds:
                fold_counts = Counter(labels[i] for i in fold)
                for cls, total in totals.items():
                    assert abs(fold_counts[cls] - total / 10) < 1.0

    def test_k_equal_n_is_leave_one_out(self):
        labels = [0, 0, 1, 1, 2, 2]
        with pytest.warns(UserWarning, match="fewer than k"):
            plan = stratified_kfold(labels, 6, seed=0)
        assert sorted(len(fold) for fold in plan.folds) == [1] * 6

    def test_small_class_warns(self):
        labels = [0] * 20 + [1] * 2
        with pytest.warns(UserWarning, match="fewer than k"):
            stratified_kfold(labels, 5, seed=0)

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            stratified_kfold([0, 1], 1, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            stratified_kfold([0, 1], 3, seed=0)

    def test_deterministic_and_seed_sensitive(self):
        labels = [i % 4 for i in range(80)]
        first = stratified_kfold(labels, 5, seed=9)
        second = stratified_kfold(labels, 5, seed=9)
        assert first.folds == second.folds
        third = stratified_kfold(labels, 5, seed=10)
        assert first.folds != third.folds


def noisy_corpus(n_docs: int = 60) -> tuple[list[list[str]], list[int]]:
    """Three classes where only every other document carries its class token."""
    rng = np.random.default_rng(17)
    documents, labels = [], []
    for i in range(n_docs):
        label = i % 3 + 1
        noise = [f"w{int(t)}" for t in rng.integers(0, 12, size=5)]
        documents.append(noise + [f"sig{label}"] * (i % 2))
        labels.append(label)
    return documents, labels


# Differ in every stage, so each scores differently on noisy_corpus.
SCORED_CONFIGS = [
    PipelineConfig(seed=5),
    PipelineConfig(ngram_range=NgramRange(1, 2), norm="l1", penalty="l1", alpha=1e-3, seed=5),
    PipelineConfig(loss="logreg", use_idf=False, smote=True, smote_k=2, seed=5),
]


# Pairs that share one vector key. The first two are twins (one twin_key),
# the last is not: SMOTE keeps its model apart.
TWIN_PAIRS = {
    "without-idf": [
        PipelineConfig(use_idf=False, seed=5),
        PipelineConfig(use_idf=False, smooth_idf=False, seed=5),
    ],
    "smote-without-idf": [
        PipelineConfig(use_idf=False, smote=True, smote_k=2, seed=5),
        PipelineConfig(use_idf=False, smooth_idf=False, smote=True, smote_k=2, seed=5),
    ],
    "smote-and-not": [PipelineConfig(smote=True, smote_k=2, seed=5), PipelineConfig(seed=5)],
}


class TestCrossValidate:
    def test_separable_corpus_scores_perfectly(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=9)
        [report] = cross_validate(documents, labels, [PipelineConfig(seed=5)], k=3)
        assert report.fold_accuracies == [1.0, 1.0, 1.0]
        assert report.mean == 1.0
        assert report.std == 0.0
        assert report.std == float(np.std(report.fold_accuracies))
        assert len(report.fold_seconds) == 3
        assert report.total_seconds == sum(report.fold_seconds)

    def test_fold_failure_wrapped_with_index(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=2, per_class=4)
        config = PipelineConfig(ngram_range=NgramRange(3, 3))  # every document too short
        [error] = cross_validate(documents, labels, [config], k=2)
        assert isinstance(error, CrossValidationError)
        assert str(error).startswith("fold 0: ")
        assert error.fold == 0
        assert isinstance(error.__cause__, EmptyCorpusError)

    def test_every_report_carries_the_call_s_fold_times(self, signature_corpus):
        # L1 and L2 train in different groups; each fold is still timed once, over both.
        documents, labels = signature_corpus(n_classes=3, per_class=9)
        configs = [PipelineConfig(penalty=penalty, seed=5) for penalty in ("l1", "l2")]
        first, second = cross_validate(documents, labels, configs, k=3)
        assert len(first.fold_seconds) == 3
        assert first.fold_seconds == second.fold_seconds
        assert first.total_seconds == second.total_seconds == sum(first.fold_seconds)

    def test_documents_are_counted_once_per_ngram_range(self, signature_corpus, monkeypatch):
        documents, labels = signature_corpus(n_classes=2, per_class=4)
        configs = enumerate_grid(GridSpec(), PipelineConfig(epochs=1, seed=5))
        counted, taken = [], []
        count, take = features.count, features.NgramCounts.take
        monkeypatch.setattr(
            features, "count", lambda docs, r: counted.append(r) or count(docs, r)
        )
        monkeypatch.setattr(
            features.NgramCounts, "take", lambda self, rows: taken.append(1) or take(self, rows)
        )
        reports = cross_validate(documents, labels, configs, k=2)
        assert len(configs) == 96 and all(r.mean == 1.0 for r in reports)
        assert counted == [NgramRange(1, 1), NgramRange(1, 2)]
        assert len(taken) == 2 * 2 * 2  # folds x n-gram ranges x (train, held out)

    def test_the_default_grid_trains_one_stacked_pass_per_fold_and_group(
        self, signature_corpus, monkeypatch, read_only_vectors
    ):
        # Groups share n-gram range, loss, penalty and epochs: 2 ranges x 2 penalties.
        # A group's 24 members hold 6 vector keys (norm x use_idf x effective
        # smooth_idf) and 18 twin keys (those x 3 alphas).
        documents, labels = signature_corpus(n_classes=2, per_class=6)
        configs = enumerate_grid(GridSpec(), PipelineConfig(epochs=1, seed=5))
        passes, fits, decisions = [], [], []
        fit_rows, fit, decision = sgd._fit_rows, features.fit, sgd.decision
        monkeypatch.setattr(
            sgd, "_fit_rows",
            lambda X, values, *rest: passes.append(len(values)) or fit_rows(X, values, *rest),
        )
        monkeypatch.setattr(
            features, "fit", lambda counts, config: fits.append(config) or fit(counts, config)
        )
        monkeypatch.setattr(
            sgd, "decision", lambda *args: decisions.append(args) or decision(*args)
        )
        reports = cross_validate(documents, labels, configs, k=3)
        assert len(configs) == 96 and all(r.mean == 1.0 for r in reports)
        assert passes == [18] * 12
        assert len(fits) == 288
        # Per fold and group: 6 training and 6 held-out transforms, 18 predictions.
        assert len(read_only_vectors) == 144
        assert len(decisions) == 216

    def test_configs_score_as_they_would_alone(self):
        documents, labels = noisy_corpus()
        together = cross_validate(documents, labels, SCORED_CONFIGS, k=4)
        alone = [cross_validate(documents, labels, [c], k=4)[0] for c in SCORED_CONFIGS]
        assert len({r.mean for r in alone}) == len(SCORED_CONFIGS)
        for joint, lone in zip(together, alone):
            assert joint.fold_accuracies == lone.fold_accuracies
            assert (joint.mean, joint.std) == (lone.mean, lone.std)

    @pytest.mark.parametrize("pair", TWIN_PAIRS.values(), ids=list(TWIN_PAIRS))
    def test_twins_score_as_they_would_alone(self, pair, read_only_vectors):
        documents, labels = noisy_corpus()
        labels = [1] * 12 + labels[12:]  # skew: 28/16/16, so SMOTE adds rows
        together = cross_validate(documents, labels, pair, k=4)
        shared = len(read_only_vectors)
        alone = [cross_validate(documents, labels, [c], k=4)[0] for c in pair]
        for joint, lone in zip(together, alone):
            assert joint.fold_accuracies == lone.fold_accuracies
            assert (joint.mean, joint.std) == (lone.mean, lone.std)
        # Twins score alike; SMOTE's pair scores apart, so it shares no model.
        twins = twin_key(pair[0]) == twin_key(pair[1])
        assert (alone[0].fold_accuracies == alone[1].fold_accuracies) == twins
        # One vector key: per fold, one training and one held-out transform.
        assert shared == 4 * 2 and len(read_only_vectors) == shared + 2 * shared

    def test_a_failed_config_leaves_the_others_as_they_would_be_alone(self):
        documents, labels = noisy_corpus()
        failing = PipelineConfig(ngram_range=NgramRange(9, 9), seed=5)
        first, error, last = cross_validate(
            documents, labels, [SCORED_CONFIGS[0], failing, SCORED_CONFIGS[2]], k=4
        )
        assert isinstance(error, CrossValidationError) and error.fold == 0
        assert isinstance(error.__cause__, EmptyCorpusError)
        for joint, config in ((first, SCORED_CONFIGS[0]), (last, SCORED_CONFIGS[2])):
            [lone] = cross_validate(documents, labels, [config], k=4)
            assert joint.fold_accuracies == lone.fold_accuracies
            assert (joint.mean, joint.std) == (lone.mean, lone.std)

    def test_configs_with_different_seeds_rejected(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=8)
        with pytest.raises(ValueError, match="one seed"):
            cross_validate(documents, labels, [PipelineConfig(seed=1), PipelineConfig(seed=2)], k=3)
        with pytest.raises(ValueError, match="one seed"):
            cross_validate(documents, labels, [], k=3)

    def test_fold_plan_and_fold_seeds_come_from_the_config_seed(
        self, signature_corpus, monkeypatch
    ):
        documents, labels = signature_corpus(n_classes=2, per_class=6)
        plan_seeds, fit_seeds = [], []
        plan = evaluation.stratified_kfold
        fit = evaluation.fit_group
        monkeypatch.setattr(
            evaluation, "stratified_kfold",
            lambda labels, k, seed: plan_seeds.append(seed) or plan(labels, k, seed),
        )
        monkeypatch.setattr(
            evaluation, "fit_group",
            lambda counts, labs, group: fit_seeds.extend(c.seed for c in group)
            or fit(counts, labs, group),
        )
        configs = [PipelineConfig(seed=8), PipelineConfig(alpha=1e-3, seed=8)]
        cross_validate(documents, labels, configs, k=3)
        assert plan_seeds == [substream(8, "folds")]
        assert fit_seeds == [substream(8, f"fold-{i}") for i in range(3) for _ in configs]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            cross_validate([["a"]], [0, 1], [PipelineConfig()], k=2)

    def test_render_and_dict(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=2, per_class=6)
        [report] = cross_validate(documents, labels, [PipelineConfig(seed=1)], k=2)
        assert render_cv_line(report) == "1.00000 (+/- 0.00000)"
        data = asdict(report)
        assert data["mean"] == 1.0
        assert len(data["fold_accuracies"]) == 2
        assert "total_seconds" in data
