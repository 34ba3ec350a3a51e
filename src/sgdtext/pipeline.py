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

from . import features, sgd
from .features import NgramRange, TfidfModel
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
    documents: Sequence[Sequence[str]],
    labels: Sequence[int],
    config: PipelineConfig,
) -> FittedPipeline:
    """Fit the vectorizer and the classifier on training documents only.

    SMOTE, when configured, runs in feature space on the training vectors
    before the classifier sees them. All randomness derives from
    config.seed: resampling draws and shuffle order each get a substream.
    """
    if len(documents) != len(labels):
        raise ValueError("documents and labels must have equal length")
    tfidf = features.fit(documents, config)
    vectors = features.transform(tfidf, documents)
    train_labels = [int(lab) for lab in labels]
    if config.smote:
        resampled = smote(
            vectors, train_labels, replace(config, seed=substream(config.seed, "smote"))
        )
        vectors = resampled.vectors
        train_labels = resampled.labels
    shuffle = replace(config, seed=substream(config.seed, "shuffle"))
    model = sgd.fit_multiclass(vectors, train_labels, shuffle, feature_dim=len(tfidf.vocabulary))
    return FittedPipeline(tfidf=tfidf, model=model)


def predict_pipeline(fitted: FittedPipeline, documents: Sequence[Sequence[str]]) -> list[int]:
    return sgd.predict(fitted.model, features.transform(fitted.tfidf, documents))
