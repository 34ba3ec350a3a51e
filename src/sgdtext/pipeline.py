"""End-to-end glue: vectorize, optionally resample, train, predict.

One PipelineConfig carries the six tunable hyperparameters (n-gram range,
norm, use_idf, smooth_idf, penalty, alpha) plus loss, epochs, optional
SMOTE, and the seed every random choice derives from. It is the only
hyperparameter type: every stage reads its fields from it, the CLI builds
one from its flags, and grid search sweeps the six tunable fields over a
base config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import features, sgd
from .features import NgramCounts, NgramRange, SparseRows, TfidfModel
from .resample import smote
from .seeds import substream
from .sgd import LinearModel

# The types each non-string field accepts. bool is an int subclass, but a
# switch is never a number here, nor a number a switch.
_FIELD_TYPES = {
    "ngram_range": (NgramRange,),
    "use_idf": (bool,),
    "smooth_idf": (bool,),
    "alpha": (int, float),
    "epochs": (int,),
    "smote": (bool,),
    "smote_k": (int,),
    "seed": (int,),
}


@dataclass(frozen=True)
class PipelineConfig:
    ngram_range: NgramRange = NgramRange(1, 1)
    norm: str = "l2"
    use_idf: bool = True
    smooth_idf: bool = True
    penalty: str = "l2"
    alpha: float = 1e-4
    loss: str = "svm"
    epochs: int = 5
    smote: bool = False
    smote_k: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        # A wrongly typed or out-of-range value fails here, not in the middle of a fit.
        for name, types in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                kinds = " or ".join(t.__name__ for t in types)
                raise ValueError(f"{name} must be {kinds}, got {value!r}")
        if self.loss not in sgd.LOSSES:
            raise ValueError(f"loss must be one of {sgd.LOSSES}, got {self.loss!r}")
        if self.norm not in features.NORMS:
            raise ValueError(f"norm must be one of {features.NORMS}, got {self.norm!r}")
        if self.penalty not in sgd.PENALTIES:
            raise ValueError(f"penalty must be one of {sgd.PENALTIES}, got {self.penalty!r}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.smote_k < 1:
            raise ValueError(f"smote_k must be >= 1, got {self.smote_k}")


@dataclass
class FittedPipeline:
    tfidf: TfidfModel
    model: LinearModel


def fit_pipeline(
    counts: NgramCounts,
    labels: Sequence[int],
    config: PipelineConfig,
) -> FittedPipeline:
    """Fit the vectorizer and the classifier on the counts of training documents only.

    SMOTE, when configured, runs in feature space on the training vectors
    before the classifier sees them. All randomness derives from
    config.seed: resampling draws and shuffle order each get a substream.
    """
    if len(counts) != len(labels):
        raise ValueError("documents and labels must have equal length")
    tfidf = features.fit(counts, config)
    vectors = features.transform(tfidf, counts)
    # A caller that handed over its only reference frees the counts before SGD.
    del counts
    return _train(tfidf, vectors, [int(lab) for lab in labels], config)


def _train(
    tfidf: TfidfModel, vectors: SparseRows, labels: list[int], config: PipelineConfig
) -> FittedPipeline:
    """The classifier stage of fit_pipeline, in a pass of its own."""
    if config.smote:
        resampled = smote(
            vectors, labels, replace(config, seed=substream(config.seed, "smote"))
        )
        vectors = resampled.vectors
        labels = resampled.labels
    shuffle = replace(config, seed=substream(config.seed, "shuffle"))
    model = sgd.fit_multiclass(vectors, labels, shuffle, feature_dim=len(tfidf.grams))
    return FittedPipeline(tfidf=tfidf, model=model)


def fit_group(
    counts: NgramCounts,
    labels: Sequence[int],
    configs: Sequence[PipelineConfig],
) -> list[FittedPipeline | Exception]:
    """fit_pipeline for each config on the same counts, training the classifiers together.

    The configs must share loss, penalty, epochs and seed. Each config fits
    and applies its own vectorizer. The configs without SMOTE whose vectors
    have the first such config's pattern (indptr and indices) and dimension
    train in one sgd.fit_stacked pass, which keeps only their values; any
    other config trains alone. Each result is bitwise what fit_pipeline
    gives for its config, or the exception it raises.
    """
    if len(counts) != len(labels):
        raise ValueError("documents and labels must have equal length")
    train_labels = [int(lab) for lab in labels]
    results: list[FittedPipeline | Exception | None] = [None] * len(configs)
    stacked: list[tuple[int, TfidfModel]] = []
    pattern: SparseRows | None = None  # the first stacked member's vectors
    values: np.ndarray | None = None  # one row per stacked member, from the second on
    for c, config in enumerate(configs):
        try:
            tfidf = features.fit(counts, config)
            vectors = features.transform(tfidf, counts)
            stacks = not config.smote and (pattern is None or (
                len(tfidf.grams) == len(stacked[0][1].grams)
                and np.array_equal(vectors.indptr, pattern.indptr)
                and np.array_equal(vectors.indices, pattern.indices)
            ))
            if not stacks:
                results[c] = _train(tfidf, vectors, train_labels, config)
                continue
        except Exception as exc:  # becomes this config's result; the others carry on
            results[c] = exc
            continue
        if pattern is None:
            pattern = vectors
        else:
            if values is None:  # room for the first member and every config left
                values = np.empty((1 + len(configs) - c, pattern.nnz))
                values[0] = pattern.values
            values[len(stacked)] = vectors.values
        stacked.append((c, tfidf))
    if len(stacked) == 1:
        [(c, tfidf)] = stacked
        try:
            results[c] = _train(tfidf, pattern, train_labels, configs[c])
        except Exception as exc:  # as above
            results[c] = exc
    elif stacked:
        shuffle = [
            replace(configs[c], seed=substream(configs[c].seed, "shuffle")) for c, _ in stacked
        ]
        try:
            models = sgd.fit_stacked(
                pattern, values[: len(stacked)], train_labels, shuffle,
                feature_dim=len(stacked[0][1].grams),
            )
        except Exception as exc:  # a lone pass would raise it for every member
            models = [exc] * len(stacked)
        for (c, tfidf), model in zip(stacked, models):
            results[c] = model if isinstance(model, Exception) else FittedPipeline(tfidf, model)
    return results


def predict_pipeline(fitted: FittedPipeline, counts: NgramCounts) -> list[int]:
    return sgd.predict(fitted.model, features.transform(fitted.tfidf, counts))
