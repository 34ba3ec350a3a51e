"""Tests for grid enumeration, candidate ranking, and the tuned-params files."""

from __future__ import annotations

import json
import math
import re

import pytest

from sgdtext import evaluation, search
from sgdtext.features import NgramRange
from sgdtext.pipeline import PipelineConfig
from sgdtext.search import (
    GRID_AXES,
    TUNED_FIELDS,
    Candidate,
    GridSpec,
    candidate_to_dict,
    enumerate_grid,
    grid_search,
    grid_spec_from_dict,
    load_grid_spec,
    params_from_dict,
    params_label,
    params_to_dict,
    render_grid_table,
    winner_params,
)


def tiny_spec(**overrides) -> GridSpec:
    spec = GridSpec(
        ngram_ranges=[NgramRange(1, 1)],
        norms=["l2"],
        use_idf=[True],
        smooth_idf=[True],
        penalties=["l2"],
        alphas=[1e-3, 1e-4],
        inner_folds=2,
        dev_fraction=0.5,
    )
    for key, value in overrides.items():
        setattr(spec, key, value)
    return spec


class TestEnumerateGrid:
    def test_default_grid_has_96_candidates(self):
        combos = enumerate_grid(GridSpec(), PipelineConfig())
        assert len(combos) == 96
        assert len(set(combos)) == 96

    def test_axis_order_alpha_varies_fastest(self):
        combos = enumerate_grid(GridSpec(), PipelineConfig())
        assert combos[0].alpha == 1e-3
        assert combos[1].alpha == 1e-4
        assert combos[2].alpha == 1e-5
        assert combos[0].ngram_range == NgramRange(1, 1)
        assert combos[-1].ngram_range == NgramRange(1, 2)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="alphas"):
            enumerate_grid(tiny_spec(alphas=[]), PipelineConfig())


class TestTunedParams:
    def test_label_format(self):
        params = PipelineConfig(NgramRange(1, 2), "l2", True, True, "l2", 1e-05)
        assert params_label(params) == "(1, 2),'l2',True,True,'l2',1e-05"

    def test_default_params_label(self):
        assert params_label(PipelineConfig()) == "(1, 1),'l2',True,True,'l2',0.0001"

    def test_dict_round_trip(self):
        params = PipelineConfig(NgramRange(2, 3), "l1", False, True, "l1", 1e-3)
        candidate = Candidate(params=params, mean=0.5, std=0.1, rank=4, error=None)
        data = candidate_to_dict(candidate)
        assert data["rank"] == 4
        assert params_from_dict(data["params"], PipelineConfig()) == params


class TestGridSpecIO:
    def test_partial_dict_keeps_defaults(self):
        spec = grid_spec_from_dict({"alphas": [0.5], "inner_folds": 4})
        assert spec.alphas == [0.5]
        assert spec.inner_folds == 4
        assert spec.norms == ["l1", "l2"]
        assert spec.ngram_ranges == [NgramRange(1, 1), NgramRange(1, 2)]

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"ngram_ranges": [[2, 2]]}), "utf-8")
        spec = load_grid_spec(path)
        assert spec.ngram_ranges == [NgramRange(2, 2)]

    def test_load_from_file_names_the_file_in_a_shape_error(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"norms": "l2"}), "utf-8")
        message = f"{path}: malformed grid spec: axis 'norms' must be a JSON array"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_grid_spec(path)

    def test_load_from_file_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"ngram_ranges": [[2, 2]]}), "utf-8-sig")
        assert load_grid_spec(path).ngram_ranges == [NgramRange(2, 2)]

    def test_scalar_axis_rejected(self):
        with pytest.raises(ValueError, match="malformed grid spec"):
            grid_spec_from_dict({"alphas": 5})

    def test_scalar_ngram_range_rejected(self):
        with pytest.raises(ValueError, match="malformed grid spec"):
            grid_spec_from_dict({"ngram_ranges": [5]})

    def test_three_bound_ngram_range_rejected(self):
        with pytest.raises(ValueError, match="malformed grid spec"):
            grid_spec_from_dict({"ngram_ranges": [[1, 2, 3]]})

    def test_axis_values_parse_as_params_values(self):
        # Grid axes and params objects share one converter per tuned field.
        raw = {"ngram_range": [1, 3], "norm": "none", "use_idf": False, "smooth_idf": True,
               "penalty": "l1", "alpha": 2}
        spec = grid_spec_from_dict(
            {axis: [raw[name]] for axis, name in zip(GRID_AXES, TUNED_FIELDS)}
        )
        (from_grid,) = enumerate_grid(spec, PipelineConfig())
        assert from_grid == params_from_dict(raw, PipelineConfig())
        assert from_grid == PipelineConfig(NgramRange(1, 3), "none", False, True, "l1", 2.0)

    def test_seed_key_rejected(self):
        # The seed is the base config's; a grid file cannot set one.
        with pytest.raises(ValueError, match="unknown grid spec keys \\['seed'\\]"):
            grid_spec_from_dict({"seed": 7})

    @pytest.mark.parametrize("fraction", [0, 1, 1.5, -0.25])
    def test_dev_fraction_outside_the_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="dev_fraction must be in \\(0, 1\\)"):
            grid_spec_from_dict({"dev_fraction": fraction})

    def test_string_axis_rejected(self):
        # A string would otherwise be swept character by character.
        with pytest.raises(ValueError, match="'use_idf' must be a JSON array"):
            grid_spec_from_dict({"use_idf": "no"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown grid spec keys \\['alpha'\\]"):
            grid_spec_from_dict({"alpha": [0.1]})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object, got list"):
            grid_spec_from_dict([1, 2])


class TestWinnerParams:
    def test_lowest_rank_wins(self):
        first = PipelineConfig(NgramRange(1, 2), "l1", False, True, "l1", 1e-3)
        data = {
            "candidates": [
                {"rank": 2, "params": params_to_dict(PipelineConfig())},
                {"rank": 1, "params": params_to_dict(first)},
            ]
        }
        assert winner_params(data, PipelineConfig()) == first

    def test_failed_winner_rejected(self):
        failed = {"rank": 1, "error": "boom", "params": params_to_dict(PipelineConfig())}
        with pytest.raises(ValueError, match="rank-1 grid candidate failed: boom"):
            winner_params({"candidates": [failed]}, PipelineConfig())

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", "1e-3"), ("alpha", True), ("use_idf", 1), ("smooth_idf", "false"),
         ("ngram_range", [1.7, 2]), ("ngram_range", [True, 2])],
    )
    def test_wrongly_typed_params_rejected(self, field, value):
        params = params_to_dict(PipelineConfig())
        params[field] = value
        with pytest.raises(ValueError, match="must be"):
            params_from_dict(params, PipelineConfig())
        with pytest.raises(ValueError, match="malformed grid results candidate"):
            winner_params({"candidates": [{"rank": 1, "params": params}]}, PipelineConfig())

    @pytest.mark.parametrize(
        "data", [{"candidates": 5}, [], {"candidates": []}, {"candidates": [{"rank": 1}]}]
    )
    def test_malformed_results_rejected(self, data):
        with pytest.raises(ValueError):
            winner_params(data, PipelineConfig())


class TestGridSearch:
    def test_candidates_ranked_by_mean(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=8)
        candidates = grid_search(documents, labels, PipelineConfig(seed=2), tiny_spec())
        assert [c.rank for c in candidates] == [1, 2]
        assert candidates[0].mean >= candidates[1].mean
        assert all(c.error is None for c in candidates)

    def test_failing_candidates_ranked_last_with_note(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=8)
        spec = tiny_spec(ngram_ranges=[NgramRange(1, 1), NgramRange(4, 4)], alphas=[1e-4])
        candidates = grid_search(documents, labels, PipelineConfig(seed=2), spec)
        assert len(candidates) == 2
        assert candidates[0].error is None
        assert candidates[1].error is not None
        assert candidates[1].params.ngram_range == NgramRange(4, 4)
        assert math.isnan(candidates[1].mean)
        assert "CrossValidationError" in candidates[1].error

    def test_parallel_ranking_matches_sequential(self, signature_corpus):
        documents, labels = signature_corpus(n_classes=3, per_class=8)
        spec = tiny_spec(alphas=[1e-3, 1e-4, 1e-5])
        sequential = grid_search(documents, labels, PipelineConfig(seed=4), spec, jobs=1)
        parallel = grid_search(documents, labels, PipelineConfig(seed=4), spec, jobs=2)
        assert [(c.rank, c.params, c.mean, c.std, c.error) for c in sequential] == [
            (c.rank, c.params, c.mean, c.std, c.error) for c in parallel
        ]

    def test_parallel_failed_candidate_matches_sequential(self, signature_corpus):
        # One candidate per worker: the failing one's error text crosses the process boundary.
        documents, labels = signature_corpus(n_classes=3, per_class=8)
        spec = tiny_spec(ngram_ranges=[NgramRange(1, 1), NgramRange(4, 4)], alphas=[1e-4])
        runs = [grid_search(documents, labels, PipelineConfig(seed=2), spec, jobs=jobs)
                for jobs in (1, 2)]
        sequential, parallel = [
            [(c.rank, c.params, repr(c.mean), repr(c.std), c.error) for c in run] for run in runs
        ]
        assert sequential == parallel
        assert sequential[1][2:] == ("nan", "nan", parallel[1][4])
        assert parallel[1][4].startswith("CrossValidationError: fold 0: ")

    def test_workers_clamped_to_candidate_count(self, signature_corpus, monkeypatch):
        # Stands in for the process pool, so no process is ever started.
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        documents, labels = signature_corpus(n_classes=3, per_class=8)
        sequential = grid_search(documents, labels, PipelineConfig(seed=4), tiny_spec())
        pooled = grid_search(documents, labels, PipelineConfig(seed=4), tiny_spec(), jobs=500)
        assert pools == [2]
        assert [(c.params, c.mean, c.std) for c in pooled] == [
            (c.params, c.mean, c.std) for c in sequential
        ]
        grid_search(documents, labels, PipelineConfig(), tiny_spec(alphas=[1e-4]), jobs=500)
        assert pools == [2]

    def test_one_fold_plan_scores_every_candidate(self, signature_corpus, monkeypatch):
        plans = []
        plan = evaluation.stratified_kfold
        monkeypatch.setattr(
            evaluation, "stratified_kfold", lambda *args: plans.append(args) or plan(*args)
        )
        documents, labels = signature_corpus(n_classes=3, per_class=8)
        spec = tiny_spec(norms=["l1", "l2"], alphas=[1e-3, 1e-4, 1e-5])
        candidates = grid_search(documents, labels, PipelineConfig(seed=3), spec, jobs=1)
        assert len(candidates) == 6
        assert len(plans) == 1

    def test_every_candidate_sees_the_same_development_set(self, signature_corpus):
        # Two identical parameter rows in one sweep must score identically.
        documents, labels = signature_corpus(n_classes=3, per_class=8)
        spec = tiny_spec(alphas=[1e-4, 1e-4])
        candidates = grid_search(documents, labels, PipelineConfig(seed=5), spec)
        assert candidates[0].mean == candidates[1].mean
        assert candidates[0].std == candidates[1].std


    @pytest.mark.parametrize("extra", [-1, 1], ids=["short-labels", "long-labels"])
    def test_length_mismatch(self, signature_corpus, monkeypatch, extra):
        scored = []
        monkeypatch.setattr(search, "cross_validate", lambda *args, **kwargs: scored.append(args))
        documents, labels = signature_corpus(n_classes=3, per_class=8)
        labels = labels[:extra] if extra < 0 else labels + labels[:extra]
        with pytest.raises(ValueError, match="documents and labels must have equal length"):
            grid_search(documents, labels, PipelineConfig(seed=5), tiny_spec())
        assert scored == []


@pytest.mark.usefixtures("step_loop")
class TestParallelRankingInEachLoop:
    """The --jobs 2 ranking equals the sequential one with the numpy loops and with the kernel."""

    test_parallel_ranking_matches_sequential = (
        TestGridSearch.test_parallel_ranking_matches_sequential
    )


class TestRenderGridTable:
    def test_header_and_rows(self):
        params = PipelineConfig(NgramRange(1, 2), "l2", True, True, "l2", 1e-05)
        rows = [
            Candidate(params=params, mean=0.8, std=0.12, rank=1),
            Candidate(params=params, mean=float("nan"), std=float("nan"), rank=2, error="boom"),
        ]
        text = render_grid_table(rows, "svm")
        lines = text.splitlines()
        assert lines[0] == "Classifier\tmean\t(+/-)\tParameters"
        assert lines[1] == "svm\t0.80000\t(+/-0.12000)\t(1, 2),'l2',True,True,'l2',1e-05"
        assert "failed" in lines[2] and "boom" in lines[2]
