"""Shared fixtures: corpus builders and random sparse-row generation."""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest


@pytest.fixture
def signature_corpus():
    """Factory for a separable corpus: class k owns the token sig{k}."""

    def build(n_classes: int = 3, per_class: int = 9) -> tuple[list[list[str]], list[int]]:
        documents: list[list[str]] = []
        labels: list[int] = []
        for k in range(n_classes):
            for _ in range(per_class):
                documents.append([f"sig{k}", "common"])
                labels.append(k + 1)
        return documents, labels

    return build


@pytest.fixture
def random_vector():
    """Factory for a random (indices, values) row with at least one nonzero entry."""

    def build(
        rng: np.random.Generator, dim: int = 50, max_nnz: int = 8
    ) -> tuple[np.ndarray, np.ndarray]:
        nnz = int(rng.integers(1, max_nnz + 1))
        indices = np.sort(rng.choice(dim, size=nnz, replace=False)).astype(np.int64)
        values = rng.normal(size=nnz)
        values[values == 0.0] = 1.0
        return indices, values

    return build


@pytest.fixture
def labeled_csv(tmp_path):
    """Write a small generic-schema CSV and return its path.

    Thirty usable rows across three classes, plus one null-text row and
    one row that cleans to nothing, both of which prepare must drop.
    """
    rows = ["label,text"]
    fillers = ["quick brown fox", "lazy dog sleeps", "bright red apple"]
    markers = ["alfa", "bravo", "carlo"]
    for i in range(30):
        cls = i % 3
        unique = "u" + chr(ord("a") + i // 26) + chr(ord("a") + i % 26)
        rows.append(f'{cls},"{markers[cls]} {fillers[cls]} {unique}"')
    rows.append("0,NaN")
    rows.append('1,"123 456 789"')
    path = tmp_path / "corpus.csv"
    path.write_text("\n".join(rows) + "\n", "utf-8")
    return path


@pytest.fixture
def read_only_vectors(monkeypatch):
    """Make every batch features.transform returns read-only, and count the calls.

    A pipeline that shares one batch among several configs then raises if
    any of them writes to it.
    """
    from sgdtext import features

    transform, calls = features.transform, []

    def frozen(model, counts):
        batch = transform(model, counts)
        for array in (batch.indptr, batch.indices, batch.values):
            array.flags.writeable = False
        calls.append(model)
        return batch

    monkeypatch.setattr(features, "transform", frozen)
    return calls


@pytest.fixture(scope="class", params=["numpy", "kernel"])
def step_loop(request):
    """Run sgd._fit_rows' steps and sgd.decision's products in numpy or in the compiled kernel.

    Patches the kernel handle, which binds both loops, off, or loads it and
    patches it on; the kernel case skips where the kernel cannot be built or
    bound. Class-scoped, so Hypothesis tests can use it.
    """
    from sgdtext import sgd

    with pytest.MonkeyPatch.context() as patch:
        if request.param == "numpy":
            patch.setattr(sgd, "_kernel", False)
        else:
            patch.setattr(sgd, "_kernel", None)
            if not sgd._compiled():
                pytest.skip("the compiled kernel does not load here")
        yield request.param


@pytest.fixture
def fold_clock_reads(monkeypatch):
    """What each read of cross_validate's fold clock found: (kernel handle set, probe run).

    Starts from a fresh kernel handle and counts the raw-draw probe's calls,
    so fold 0's first read shows whether either one-time cost is left for it.
    """
    from sgdtext import evaluation, resample, sgd

    reads, probes, probe = [], [], resample._probe

    def perf_counter():
        reads.append((sgd._kernel is not None, bool(probes)))
        return time.perf_counter()

    monkeypatch.setattr(sgd, "_kernel", None)
    monkeypatch.setattr(resample, "_probe", lambda: probes.append(1) or probe())
    monkeypatch.setattr(evaluation, "time", SimpleNamespace(perf_counter=perf_counter))
    return reads


@pytest.fixture(scope="class", params=["raw", "scalar"])
def draw_path(request):
    """Draw SMOTE's provenance from the raw PCG64 stream or with the scalar Generator calls.

    Patches resample._probe to return its verdict, or False; the raw case
    skips where the probe fails. Class-scoped, so Hypothesis tests can use it.
    """
    from sgdtext import resample

    with pytest.MonkeyPatch.context() as patch:
        verdict = request.param == "raw" and resample._probe()
        patch.setattr(resample, "_probe", lambda: verdict)
        if request.param == "raw" and not verdict:
            pytest.skip("the raw-stream draws differ from numpy's here")
        yield request.param
