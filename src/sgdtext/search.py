"""Exhaustive grid search over the six pipeline hyperparameters.

Candidates are scored by stratified inner-fold cross-validation on a
development subset carved out of the provided corpus, then ranked by mean
accuracy (descending), standard deviation (ascending), and enumeration
order. A failing candidate is ranked last with an error note instead of
aborting the sweep.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

from . import corpus
from .artifacts import read_json
from .evaluation import CvReport, cross_validate
from .features import NgramRange
from .pipeline import PipelineConfig
from .seeds import substream


# GridSpec's six swept fields, in enumeration order (alpha varies fastest).
GRID_AXES = ("ngram_ranges", "norms", "use_idf", "smooth_idf", "penalties", "alphas")
# The PipelineConfig field each axis sets, in the same order.
TUNED_FIELDS = ("ngram_range", "norm", "use_idf", "smooth_idf", "penalty", "alpha")


def _tuned_from_json(name: str, value: object) -> object:
    """A tuned field's PipelineConfig value from its JSON value in a grid spec or params object.

    A pair becomes an NgramRange and a number a float alpha, so "alphas": [1]
    sweeps 1.0. Every other value passes as it is, for PipelineConfig to check.
    """
    if name == "ngram_range":
        lo, hi = value
        return NgramRange(lo, hi)
    if name == "alpha" and type(value) in (int, float):
        return float(value)
    return value


@dataclass
class GridSpec:
    ngram_ranges: list[NgramRange] = field(
        default_factory=lambda: [NgramRange(1, 1), NgramRange(1, 2)]
    )
    norms: list[str] = field(default_factory=lambda: ["l1", "l2"])
    use_idf: list[bool] = field(default_factory=lambda: [True, False])
    smooth_idf: list[bool] = field(default_factory=lambda: [True, False])
    penalties: list[str] = field(default_factory=lambda: ["l1", "l2"])
    alphas: list[float] = field(default_factory=lambda: [1e-3, 1e-4, 1e-5])
    inner_folds: int = 3
    dev_fraction: float = 0.5


@dataclass
class Candidate:
    params: PipelineConfig
    mean: float
    std: float
    error: str | None = None
    rank: int = 0


def grid_spec_from_dict(data: object) -> GridSpec:
    """Build a GridSpec from a JSON object; absent keys keep their defaults.

    Raises ValueError for anything but an object of GridSpec's keys with
    values of the right shape.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a grid spec must be a JSON object, got {type(data).__name__}")
    known = [f.name for f in fields(GridSpec)]
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown grid spec keys {unknown}; expected some of {known}")
    spec = GridSpec()
    try:
        for axis, name in zip(GRID_AXES, TUNED_FIELDS):
            if axis in data:
                if not isinstance(data[axis], list):
                    raise ValueError(f"axis {axis!r} must be a JSON array")
                setattr(spec, axis, [_tuned_from_json(name, v) for v in data[axis]])
        if "inner_folds" in data:
            spec.inner_folds = data["inner_folds"]
            if type(spec.inner_folds) is not int:
                raise ValueError(f"inner_folds must be a JSON integer, got {spec.inner_folds!r}")
            if spec.inner_folds < 2:
                raise ValueError(f"inner_folds must be >= 2, got {spec.inner_folds}")
        if "dev_fraction" in data:
            spec.dev_fraction = data["dev_fraction"]
            if type(spec.dev_fraction) not in (int, float):
                raise ValueError(f"dev_fraction must be a JSON number, got {spec.dev_fraction!r}")
            if not 0.0 < spec.dev_fraction < 1.0:
                raise ValueError(f"dev_fraction must be in (0, 1), got {spec.dev_fraction}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed grid spec: {exc}") from exc
    return spec


def load_grid_spec(path: str | Path) -> GridSpec:
    return read_json(path, parse=grid_spec_from_dict)


def enumerate_grid(spec: GridSpec, base: PipelineConfig) -> list[PipelineConfig]:
    """base with its six tuned fields set to each point of the grid, in axis order.

    Raises ValueError for an empty axis or an axis value PipelineConfig rejects.
    """
    axes = [getattr(spec, name) for name in GRID_AXES]
    for name, axis in zip(GRID_AXES, axes):
        if not axis:
            raise ValueError(f"grid axis {name!r} is empty")
    try:
        return [
            replace(base, **dict(zip(TUNED_FIELDS, combo))) for combo in itertools.product(*axes)
        ]
    except ValueError as exc:
        raise ValueError(f"invalid grid value: {exc}") from exc


def _scores(documents: Sequence[Sequence[str]], labels: Sequence[int], k: int,
            configs: list[PipelineConfig]) -> list[tuple[float, float, str | None]]:
    """Each config's mean, std and error text, the three values a Candidate takes."""
    return [(report.mean, report.std, None) if isinstance(report, CvReport)
            else (float("nan"), float("nan"), f"{type(report).__name__}: {report}")
            for report in cross_validate(documents, labels, configs, k)]


def grid_search(
    documents: Sequence[Sequence[str]],
    labels: Sequence[int],
    base: PipelineConfig,
    spec: GridSpec,
    *,
    jobs: int = 1,
) -> list[Candidate]:
    """Score every grid candidate on a stratified development subset.

    Each candidate is base with its six tuned fields taken from the grid.
    Every candidate sees the identical development set, fold plan, and
    training seeds, all derived from base.seed, so the ranking is a pure
    function of that seed and is identical for any worker count. With
    jobs > 1, each of up to jobs workers (no more than there are
    candidates) scores its share in one cross_validate call and sends back
    each candidate's mean, std and error text. A development set too small
    for spec.inner_folds raises ValueError before any candidate runs.
    """
    if len(documents) != len(labels):
        raise ValueError("documents and labels must have equal length")
    combos = enumerate_grid(spec, base)
    plan = corpus.split(labels, spec.dev_fraction, substream(base.seed, "dev"))
    score_configs = functools.partial(
        _scores,
        [documents[i] for i in plan.train_indices],
        [labels[i] for i in plan.train_indices],
        spec.inner_folds,
    )
    # Candidate.params keeps base.seed; the scored copies share the inner-CV seed.
    configs = [c.reseed(substream(base.seed, "inner-cv")) for c in combos]
    workers = min(jobs, len(configs))
    if workers <= 1:
        scores = score_configs(configs)
    else:
        # Imported here: a CLI process that never runs a pool does not pay for its import.
        from concurrent.futures import ProcessPoolExecutor

        scores = [None] * len(configs)
        # One task per worker, so each worker is sent the development set once.
        shares = [configs[w::workers] for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for w, share in enumerate(pool.map(score_configs, shares)):
                scores[w::workers] = share
    candidates = [Candidate(params, *score) for params, score in zip(combos, scores)]
    # A failed candidate ranks after every scored one; the stable sort keeps ties in grid order.
    ranked = sorted(candidates, key=lambda c: (1,) if c.error is not None else (0, -c.mean, c.std))
    for rank, candidate in enumerate(ranked, start=1):
        candidate.rank = rank
    return ranked


def candidate_to_dict(candidate: Candidate) -> dict:
    # vars, not asdict: asdict would deep-copy params only for this to replace them.
    return {**vars(candidate), "params": params_to_dict(candidate.params)}


def params_to_dict(config: PipelineConfig) -> dict:
    """JSON form of the six tuned fields; params_from_dict reads it back."""
    data = {name: getattr(config, name) for name in TUNED_FIELDS}
    data["ngram_range"] = [config.ngram_range.lo, config.ngram_range.hi]
    return data


def params_label(config: PipelineConfig) -> str:
    """The six tuned values as one tuple-like label, as in grid_results.txt."""
    return (
        f"({config.ngram_range.lo}, {config.ngram_range.hi}),"
        f"{config.norm!r},{config.use_idf},{config.smooth_idf},"
        f"{config.penalty!r},{config.alpha!r}"
    )


def params_from_dict(data: dict, base: PipelineConfig) -> PipelineConfig:
    """base with its six tuned fields read from a params_to_dict object."""
    return replace(base, **{name: _tuned_from_json(name, data[name]) for name in TUNED_FIELDS})


def winner_params(grid_results: object, base: PipelineConfig) -> PipelineConfig:
    """base with the rank-1 candidate's parameters from a grid_results.json object.

    Raises ValueError if there is no such candidate to read, or if it failed.
    """
    candidates = grid_results.get("candidates") if isinstance(grid_results, dict) else None
    if not isinstance(candidates, list) or not candidates:
        raise ValueError("grid results must be a JSON object with a non-empty 'candidates' list")
    try:
        best = min(candidates, key=lambda c: c["rank"])
        error = best.get("error")
        config = params_from_dict(best["params"], base)
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"malformed grid results candidate: {exc!r}") from exc
    if error is not None:
        raise ValueError(f"the rank-1 grid candidate failed: {error}")
    return config


def render_grid_table(candidates: Sequence[Candidate], loss_name: str) -> str:
    """Ranked tab-separated table: classifier, mean, (+/- std), parameter tuple."""
    lines = ["Classifier\tmean\t(+/-)\tParameters"]
    for candidate in candidates:
        if candidate.error is not None:
            lines.append(f"{loss_name}\tfailed\t\t{params_label(candidate.params)}\t{candidate.error}")
            continue
        lines.append(
            f"{loss_name}\t{candidate.mean:.5f}\t(+/-{candidate.std:.5f})"
            f"\t{params_label(candidate.params)}"
        )
    return "\n".join(lines) + "\n"
