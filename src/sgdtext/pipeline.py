"""End-to-end glue: vectorize, optionally resample, train, predict.

One PipelineConfig carries the six tunable hyperparameters (n-gram range,
norm, use_idf, smooth_idf, penalty, alpha) plus loss, epochs, optional
SMOTE, and the seed every random choice derives from. It is the only
hyperparameter type: every stage reads its fields from it, the CLI builds
one from its flags, and grid search sweeps the six tunable fields over a
base config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import features, sgd
from .features import NgramCounts, NgramRange, TfidfModel
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
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
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
    This is fit_group's case of one config.
    """
    [fitted] = fit_group(counts, labels, [config])
    if isinstance(fitted, Exception):
        raise fitted
    return fitted


def fit_group(
    counts: NgramCounts,
    labels: Sequence[int],
    configs: Sequence[PipelineConfig],
) -> list[FittedPipeline | Exception]:
    """fit_pipeline for each config on the same counts, training the classifiers together.

    The configs must share one sgd.pass_key. Each config fits
    and applies its own vectorizer. Every fit on one counts object keeps the
    same grams, and each value idf * tf >= 1 stays nonzero when divided by a
    finite row norm, so all the configs' vectors have one pattern (indptr
    and indices), in which every gram occurs: each model, as wide as its
    rows, has one weight column per gram. The configs without SMOTE train
    in one sgd.fit_stacked pass on that pattern, which keeps only their
    values. A SMOTE config, or the one config without SMOTE, trains alone
    through sgd.fit_multiclass. Each result is a FittedPipeline, or the
    exception its fit raised.
    """
    if len(counts) != len(labels):
        raise ValueError("documents and labels must have equal length")
    train_labels = [int(lab) for lab in labels]
    shuffles = [replace(config, seed=substream(config.seed, "shuffle")) for config in configs]
    alone = sum(not config.smote for config in configs) == 1
    results: list[FittedPipeline | Exception | None] = [None] * len(configs)
    stacked: list[tuple[int, TfidfModel]] = []
    for c, config in enumerate(configs):
        try:
            tfidf = features.fit(counts, config)
            X, y = features.transform(tfidf, counts), train_labels
            if config.smote:
                resampled = smote(X, y, replace(config, seed=substream(config.seed, "smote")))
                X, y = resampled.vectors, resampled.labels
            if config.smote or alone:
                results[c] = FittedPipeline(tfidf, sgd.fit_multiclass(X, y, shuffles[c]))
                continue
        except Exception as exc:  # becomes this config's result; the others carry on
            results[c] = exc
            continue
        if not stacked:  # the shared pattern, and room for the values of every config left
            pattern, values = X, np.empty((len(configs) - c, X.nnz))
        values[len(stacked)] = X.values
        stacked.append((c, tfidf))
    if stacked:
        try:
            models = sgd.fit_stacked(
                pattern, values[: len(stacked)], train_labels, [shuffles[c] for c, _ in stacked]
            )
        except Exception as exc:  # a lone pass would raise it for every member
            models = [exc] * len(stacked)
        for (c, tfidf), model in zip(stacked, models):
            results[c] = model if isinstance(model, Exception) else FittedPipeline(tfidf, model)
    return results


def predict_pipeline(fitted: FittedPipeline, counts: NgramCounts) -> list[int]:
    return sgd.predict(fitted.model, features.transform(fitted.tfidf, counts))
