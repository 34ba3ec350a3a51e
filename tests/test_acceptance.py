"""Acceptance battery: one test per required behavior, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with the measured value. Every tolerance is stated inline; the
final test needs a user-supplied CSV (set GTD_CSV) and is skipped without
one.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from sgdtext import corpus, sgd
from sgdtext.cli import EXIT_OK, main
from sgdtext.evaluation import (
    ConfusionMatrix,
    confusion,
    cross_validate,
    per_class_metrics,
    stratified_kfold,
)
from sgdtext.features import NgramRange, SparseRows, fit, transform
from sgdtext.pipeline import PipelineConfig, fit_pipeline, predict_pipeline
from sgdtext.resample import smote
from sgdtext.search import GridSpec, compare_runs, grid_search, params_label
from sgdtext.sgd import loss_dmargin

from oracles import (
    batch_gd_oracle,
    binary_row,
    loss_value,
    micro_averages,
    normalize,
    regularized_objective,
)
from rows import Row, row, row_bytes, rows_of, to_dict


def dense_of(v: Row, dim: int) -> np.ndarray:
    out = np.zeros(dim)
    out[v[0]] = v[1]
    return out


def random_sparse(rng: np.random.Generator, dim: int, max_nnz: int) -> Row:
    nnz = int(rng.integers(1, max_nnz + 1))
    idx = np.sort(rng.choice(dim, size=nnz, replace=False)).astype(np.int64)
    vals = rng.normal(size=nnz)
    vals[vals == 0.0] = 1.0
    return idx, vals


def l1(v: Row) -> float:
    return float(np.abs(v[1]).sum())


def l2(v: Row) -> float:
    return float(math.sqrt(v[1] @ v[1]))


def test_tfidf_oracle():
    """Hand-computed weights on a two-document corpus, within 1e-12."""
    started = time.perf_counter()
    docs = [["a", "b"], ["b", "c"]]
    doc = ["a", "b"]

    plain = fit(docs, PipelineConfig(use_idf=True, smooth_idf=False, norm="none"))
    got = to_dict(transform(plain, [doc]).row(0))
    expected = {plain.vocabulary["a"]: math.log(2.0) + 1.0, plain.vocabulary["b"]: 1.0}
    worst = max(abs(got[k] - expected[k]) for k in expected)
    assert set(got) == set(expected)
    assert worst < 1e-12

    smooth = fit(docs, PipelineConfig(use_idf=True, smooth_idf=True, norm="none"))
    got_smooth = to_dict(transform(smooth, [doc]).row(0))
    expected_smooth = {
        smooth.vocabulary["a"]: math.log(3.0 / 2.0) + 1.0,
        smooth.vocabulary["b"]: 1.0,
    }
    worst = max(worst, max(abs(got_smooth[k] - expected_smooth[k]) for k in expected_smooth))
    assert worst < 1e-12

    for smooth_flag in (False, True):
        model = fit(docs, PipelineConfig(use_idf=True, smooth_idf=smooth_flag, norm="l2"))
        norm_err = abs(l2(transform(model, [doc]).row(0)) - 1.0)
        worst = max(worst, norm_err)
        assert norm_err < 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS tfidf-oracle: max abs error {worst:.3e} (tol 1e-12), {elapsed:.2f}s")


def test_normalization_identities():
    """1,000 random sparse vectors reach unit L1/L2 norm within 1e-12."""
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        v = random_sparse(rng, dim=200, max_nnz=12)
        worst = max(worst, abs(l2(normalize(v, "l2")) - 1.0))
        worst = max(worst, abs(l1(normalize(v, "l1")) - 1.0))
    assert worst < 1e-12
    zero = row()
    assert normalize(zero, "l1") is zero and normalize(zero, "l2") is zero
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS normalization: max norm error {worst:.3e} over 1000 vectors, {elapsed:.2f}s")


def test_gradient_checks():
    """Analytic loss derivatives match centered finite differences, rel err < 1e-6."""
    started = time.perf_counter()
    rng = np.random.default_rng(203)
    h = 1e-6
    worst = 0.0
    for kind in sgd.LOSSES:
        checked = 0
        while checked < 100:
            margin = float(rng.uniform(-6.0, 6.0))
            if kind == "svm" and abs(margin - 1.0) < 1e-3:
                continue
            if kind == "perceptron" and abs(margin) < 1e-3:
                continue
            numeric = (loss_value(kind, margin + h) - loss_value(kind, margin - h)) / (2 * h)
            analytic = loss_dmargin(kind, margin)
            rel = abs(numeric - analytic) / max(1.0, abs(analytic))
            worst = max(worst, rel)
            assert rel < 1e-6
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS gradient-check: worst relative error {worst:.3e} (tol 1e-6), {elapsed:.2f}s")


def test_sgd_matches_batch_oracle():
    """SGD lands within 5% of the converged batch objective on a convex problem."""
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    dense = rng.normal(size=(50, 10))
    w_true = rng.normal(size=10)
    noise = rng.normal(size=50)
    y = np.where(dense @ w_true + 0.1 * noise >= 0, 1.0, -1.0)
    X = SparseRows.from_rows((np.arange(10), r.copy()) for r in dense)

    config = PipelineConfig(loss="logreg", penalty="l2", alpha=0.05, epochs=200, seed=0)
    w_sgd, b_sgd = binary_row(X, y, config)
    sgd_objective = regularized_objective(X, y, w_sgd, b_sgd, config.loss, config.alpha)

    w_star, b_star = batch_gd_oracle(X, y, config, iterations=5000)
    oracle_objective = regularized_objective(X, y, w_star, b_star, config.loss, config.alpha)

    gap = abs(sgd_objective - oracle_objective) / oracle_objective
    assert gap < 0.05
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"PASS sgd-vs-batch: objectives {sgd_objective:.6f} vs {oracle_objective:.6f}, "
        f"relative gap {gap:.2e} (tol 5e-2), {elapsed:.2f}s"
    )


def test_separable_fixture_all_losses():
    """Nine signature classes reach training accuracy 1.0 and CV 1.0 +/- 0.0."""
    started = time.perf_counter()
    documents, labels = [], []
    for k in range(9):
        for _ in range(12):
            documents.append([f"sig{k}", "common"])
            labels.append(k + 1)
    for loss in sgd.LOSSES:
        config = PipelineConfig(
            ngram_range=NgramRange(1, 2),
            norm="l2",
            use_idf=True,
            smooth_idf=True,
            penalty="l2",
            alpha=1e-05,
            loss=loss,
            seed=7,
        )
        fitted = fit_pipeline(documents, labels, config)
        train_accuracy = sum(
            1 for pred, lab in zip(predict_pipeline(fitted, documents), labels) if pred == lab
        ) / len(labels)
        assert train_accuracy == 1.0, f"{loss}: train accuracy {train_accuracy}"
        report = cross_validate(documents, labels, config, k=10)
        assert report.mean == 1.0, f"{loss}: CV mean {report.mean}"
        assert report.std == 0.0, f"{loss}: CV std {report.std}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        "PASS separable-fixture: train 1.0 and 10-fold 1.00000 (+/- 0.00000) "
        f"for hinge/log/perceptron with (1,2),'l2',True,True,'l2',1e-05, {elapsed:.2f}s"
    )


def test_smote_histogram_and_provenance():
    """40/10/5 equalizes to 40/40/40; synthetics trace to recorded 5-NN pairs."""
    started = time.perf_counter()
    rng = np.random.default_rng(205)
    points, labels = [], []
    for cls, count in ((0, 40), (1, 10), (2, 5)):
        for _ in range(count):
            points.append(random_sparse(rng, dim=12, max_nnz=6))
            labels.append(cls)
    X = SparseRows.from_rows(points)

    config = PipelineConfig(smote_k=5, seed=11)
    result = smote(X, labels, config)

    histogram = Counter(result.labels)
    assert histogram == {0: 40, 1: 40, 2: 40}

    for original, kept in zip(points, rows_of(result.vectors)):
        assert row_bytes(original) == row_bytes(kept)

    dense = np.array([dense_of(v, 12) for v in points])
    synthetics = rows_of(result.vectors)[len(X):]
    assert len(synthetics) == len(result.records) == 30 + 35
    for record, vector in zip(result.records, synthetics):
        assert 0.0 <= record.gap < 1.0
        assert labels[record.base_index] == record.label
        assert labels[record.neighbor_index] == record.label
        expected = dense[record.base_index] + record.gap * (
            dense[record.neighbor_index] - dense[record.base_index]
        )
        assert np.array_equal(dense_of(vector, 12), expected)

        members = [i for i, lab in enumerate(labels) if lab == record.label]
        d2 = np.sum((dense[members] - dense[record.base_index]) ** 2, axis=1)
        d2[members.index(record.base_index)] = np.inf
        k = min(config.smote_k, len(members) - 1)
        kth = np.sort(d2)[k - 1]
        neighbor_d2 = d2[members.index(record.neighbor_index)]
        assert neighbor_d2 <= kth * (1 + 1e-9)

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0
    print(
        "PASS smote: 40/10/5 -> 40/40/40, all 65 synthetics verified against "
        f"brute-force 5-NN provenance, {elapsed:.2f}s"
    )


def test_metric_identities():
    """Weighted recall and micro recall equal accuracy on 500 random matrices."""
    started = time.perf_counter()
    rng = np.random.default_rng(206)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 9))
        counts = rng.integers(0, 50, size=(k, k)).astype(np.int64)
        if counts.sum() == 0:
            counts[0, 0] = 1
        cm = ConfusionMatrix(counts=counts, classes=list(range(k)))
        report = per_class_metrics(cm)
        _, micro_recall, _ = micro_averages(cm)
        worst = max(worst, abs(report.weighted_avg[1] - report.accuracy))
        worst = max(worst, abs(micro_recall - report.accuracy))
    assert worst < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0
    print(
        f"PASS metric-identities: max |weighted recall - accuracy| {worst:.3e} "
        f"over 500 matrices (tol 1e-12), {elapsed:.2f}s"
    )


def test_stratified_fold_balance():
    """Every fold holds each class within +/-1 of class_count/k, k=10."""
    started = time.perf_counter()
    rng = np.random.default_rng(207)
    trials = 0
    for _ in range(15):
        n_classes = int(rng.integers(2, 11))
        n = int(rng.integers(500, 10001))
        labels = [int(c) for c in rng.integers(0, n_classes, size=n)]
        plan = stratified_kfold(labels, 10, seed=int(rng.integers(0, 1000)))
        merged = sorted(i for fold in plan.folds for i in fold)
        assert merged == list(range(n))
        totals = Counter(labels)
        for fold in plan.folds:
            fold_counts = Counter(labels[i] for i in fold)
            for cls, total in totals.items():
                assert abs(fold_counts[cls] - total / 10) < 1.0
        trials += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0
    print(
        f"PASS stratified-folds: {trials} random label vectors (N up to 10000) "
        f"balanced within +/-1 at k=10, {elapsed:.2f}s"
    )


def test_grid_search_bigram_winner_and_jobs():
    """The word-order fixture is solved only by bigrams; ranking is jobs-invariant."""
    started = time.perf_counter()
    documents, labels = [], []
    for _ in range(12):
        documents.append(["x", "y"])
        labels.append(0)
    for _ in range(12):
        documents.append(["y", "x"])
        labels.append(1)

    spec = GridSpec()
    sequential = grid_search(documents, labels, PipelineConfig(seed=3), spec)
    assert len(sequential) == 96
    winner = sequential[0]
    assert winner.params.ngram_range == NgramRange(1, 2)
    assert winner.mean == 1.0
    unigram_means = [
        c.mean for c in sequential if c.params.ngram_range == NgramRange(1, 1)
    ]
    assert max(unigram_means) < 1.0

    parallel = grid_search(documents, labels, PipelineConfig(seed=3), GridSpec(), jobs=8)
    assert [(c.rank, c.params, c.mean, c.std, c.error) for c in sequential] == [
        (c.rank, c.params, c.mean, c.std, c.error) for c in parallel
    ]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"PASS grid-search: 96 candidates, winner {params_label(winner.params)} "
        f"mean {winner.mean:.5f}, jobs=1 == jobs=8, {elapsed:.2f}s"
    )


def test_smote_recovers_silent_class():
    """Without resampling the overlapped minority class scores recall 0; with it, none do."""
    started = time.perf_counter()
    documents, labels = [], []
    for i in range(60):
        extra = ["r1"] if i % 3 == 0 else []
        documents.append(["alpha", "common"] + extra)
        labels.append(1)
    for i in range(30):
        documents.append(["beta", "common"])
        labels.append(2)
    for i in range(6):
        documents.append(["alpha", "common", "r1"])
        labels.append(3)

    plan = corpus.split(len(documents), 0.7, 99, labels)
    train_docs = [documents[i] for i in plan.train_indices]
    train_labels = [labels[i] for i in plan.train_indices]
    test_docs = [documents[i] for i in plan.test_indices]
    test_labels = [labels[i] for i in plan.test_indices]

    recalls = {}
    for name, smote_on in (("none", False), ("smote", True)):
        config = PipelineConfig(
            loss="logreg", alpha=1e-2, epochs=5, smote=smote_on, seed=7
        )
        fitted = fit_pipeline(train_docs, train_labels, config)
        predictions = predict_pipeline(fitted, test_docs)
        report = per_class_metrics(confusion(test_labels, predictions, [1, 2, 3]))
        recalls[name] = {cls: report.per_class[cls].recall for cls in (1, 2, 3)}

    assert min(recalls["none"].values()) == 0.0
    assert recalls["none"][3] == 0.0
    assert all(r > 0.0 for r in recalls["smote"].values())
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"PASS smote-vs-none: recalls without {tuple(recalls['none'].values())} -> "
        f"with {tuple(round(r, 3) for r in recalls['smote'].values())}, {elapsed:.2f}s"
    )


@pytest.mark.skipif(
    not os.environ.get("GTD_CSV"),
    reason="set GTD_CSV to a labeled export to run the full-corpus protocol check",
)
def test_full_corpus_protocol(tmp_path):
    """Best-effort full-data run: split totals and the tuned-beats-default direction."""
    csv_path = os.environ["GTD_CSV"]
    out = tmp_path / "full"
    code = main(
        [
            "prepare",
            "--input",
            csv_path,
            "--schema",
            "gtd",
            "--split",
            "0.7",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    manifest = json.loads((out / "split.json").read_text("utf-8"))
    usable = manifest["row_count"] - manifest["drop_count"]
    totals = manifest["totals"]
    assert totals["train"] + totals["test"] == usable
    assert totals["train"] == round(0.7 * usable)
    if usable == 102669:
        assert totals["train"] == 71868
        assert totals["test"] == 30801

    rows = [
        json.loads(line) for line in (out / "corpus.jsonl").read_text("utf-8").splitlines()
    ]
    train_indices = manifest["train_indices"]
    documents = [rows[i]["tokens"] for i in train_indices]
    labels = [rows[i]["label"] for i in train_indices]
    if len(documents) > 9000:  # keep the check at desk scale
        sub = corpus.split(len(documents), 9000 / len(documents), 1, labels)
        documents = [documents[i] for i in sub.train_indices]
        labels = [labels[i] for i in sub.train_indices]

    tuned = PipelineConfig(NgramRange(1, 2), "l2", True, True, "l2", 1e-05)
    report = compare_runs(documents, labels, PipelineConfig(), tuned, k=3)
    assert report.tuned.mean > report.default.mean
    print(
        f"PASS full-corpus: split {totals['train']}/{totals['test']}, tuned "
        f"{report.tuned.mean:.5f} > default {report.default.mean:.5f}"
    )
