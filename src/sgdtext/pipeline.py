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
from dataclasses import dataclass
from typing import Sequence

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
        for name in _FIELD_TYPES:
            _check_type(name, getattr(self, name))
        choices = {"loss": sgd.LOSSES, "norm": features.NORMS, "penalty": sgd.PENALTIES}
        for name, allowed in choices.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.smote_k < 1:
            raise ValueError(f"smote_k must be >= 1, got {self.smote_k}")

    def reseed(self, seed: int) -> PipelineConfig:
        """This config with another seed, checking only the seed: the other fields passed.

        dataclasses.replace would run every check again, once per fold and fit.
        """
        _check_type("seed", seed)
        return _unchecked_replace(self, seed=seed)


def _check_type(name: str, value: object) -> None:
    types = _FIELD_TYPES[name]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        kinds = " or ".join(t.__name__ for t in types)
        raise ValueError(f"{name} must be {kinds}, got {value!r}")


def _unchecked_replace(config: PipelineConfig, **changes) -> PipelineConfig:
    """dataclasses.replace without __post_init__, for changes that pass its checks."""
    copy = object.__new__(type(config))
    copy.__dict__.update(config.__dict__, **changes)
    return copy


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


def twin_key(config: PipelineConfig) -> PipelineConfig:
    """config as it computes: without IDF, smooth_idf changes nothing, so it reads False."""
    if config.smooth_idf and not config.use_idf:
        return _unchecked_replace(config, smooth_idf=False)
    return config


def vector_key(settings: PipelineConfig | TfidfModel) -> tuple[str, bool, bool]:
    """The settings transform reads: fits on one counts object with equal keys give equal rows."""
    return settings.norm, settings.use_idf, settings.use_idf and settings.smooth_idf


def fit_group(
    counts: NgramCounts,
    labels: Sequence[int],
    configs: Sequence[PipelineConfig],
) -> list[FittedPipeline | Exception]:
    """fit_pipeline for each config on the same counts, training the classifiers together.

    Each config fits its own vectorizer; the counts are transformed once per
    vector_key, and twins (equal twin_key) share one model or exception. The
    twin keys are grouped by the rows they train on, then by sgd.pass_key.
    Those without SMOTE train on their transformed rows: every fit on one
    counts object keeps the same grams, and each value idf * tf >= 1 stays
    nonzero when divided by a finite row norm, so all the vectors have one
    pattern (indptr and indices), in which every gram occurs, and each model,
    as wide as its rows, has one weight column per gram. The SMOTE configs
    with equal vector_key, smote_k and seed share one smote call, as smote
    reads nothing else, and train on its rows; if it fails, each of them gets
    its exception. Each pass_key group trains in one sgd.fit_stacked pass, or,
    if it holds one twin key, through sgd.fit_multiclass.
    Each result is a FittedPipeline, or the exception its fit raised.
    """
    if len(counts) != len(labels):
        raise ValueError("documents and labels must have equal length")
    train_labels = [int(lab) for lab in labels]
    results: list[FittedPipeline | TfidfModel | Exception] = []
    # Rows per vector key; per twin key, its model or exception; per batch (None
    # for the transformed rows, else a smote call's vector key, smote_k and seed)
    # and pass key, each twin key's shuffle config.
    vectors, trained, passes = {}, {}, {}
    for config in configs:
        try:
            tfidf = features.fit(counts, config)
            if (key := vector_key(config)) not in vectors:
                vectors[key] = features.transform(tfidf, counts)
        except Exception as exc:  # becomes this config's result; the others carry on
            results.append(exc)
            continue
        results.append(tfidf)
        batch = (key, config.smote_k, config.seed) if config.smote else None
        group = passes.setdefault(batch, {}).setdefault(sgd.pass_key(config), {})
        group[twin_key(config)] = config.reseed(substream(config.seed, "shuffle"))
    for batch, groups in passes.items():
        rows, batch_labels = None, train_labels
        if batch is not None:
            [[first, *_], *_] = groups.values()  # smote reads its smote_k and seed
            try:
                smoted = smote(
                    vectors[batch[0]], train_labels, first.reseed(substream(first.seed, "smote"))
                )
            except Exception as exc:  # every member of the batch gets it
                trained.update((twin, exc) for members in groups.values() for twin in members)
                continue
            rows, batch_labels = smoted.vectors, smoted.labels
        for members in groups.values():
            X = [vectors[vector_key(twin)] if rows is None else rows for twin in members]
            shuffles = list(members.values())
            try:  # a stacked pass reads each member's values in place, on the pattern they share
                if len(members) == 1:
                    models = [sgd.fit_multiclass(X[0], batch_labels, shuffles[0])]
                else:
                    models = sgd.fit_stacked(X[0], [x.values for x in X], batch_labels, shuffles)
            except Exception as exc:  # a lone fit of each member would raise it
                models = [exc] * len(members)
            trained.update(zip(members, models))
    for c, (config, tfidf) in enumerate(zip(configs, results)):
        if isinstance(tfidf, TfidfModel):
            model = trained[twin_key(config)]
            results[c] = model if isinstance(model, Exception) else FittedPipeline(tfidf, model)
    return results


def predict_pipeline(fitted: FittedPipeline, counts: NgramCounts) -> list[int]:
    return predict_group([fitted], counts)[0]


def predict_group(
    fitted: Sequence[FittedPipeline | Exception], counts: NgramCounts
) -> list[list[int] | Exception]:
    """predict_pipeline for each of fit_group's results on the same counts, sharing the work.

    The counts are transformed once per vector_key and training counts (the
    fits on one counts object share one doc_freq array), and each model
    object predicts once. A fit's exception is passed through as its result.
    """
    vectors, predicted = {}, {}
    for result in fitted:
        if isinstance(result, FittedPipeline):
            key = (id(result.tfidf.doc_freq), *vector_key(result.tfidf))  # all results are alive
            if key not in vectors:
                vectors[key] = features.transform(result.tfidf, counts)
            if result.model not in predicted:  # twins share one model object
                predicted[result.model] = sgd.predict(result.model, vectors[key])
    return [r if isinstance(r, Exception) else predicted[r.model] for r in fitted]
