"""End-to-end glue: vectorize, optionally resample, train, predict.

One PipelineConfig carries the six tunable hyperparameters (n-gram range,
norm, use_idf, smooth_idf, penalty, alpha) plus loss, epochs, optional
SMOTE, and the seed every random choice derives from. It is the only
hyperparameter type: the CLI builds one from its flags, and grid search
sweeps the six tunable fields over a base config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from . import features, sgd
from .features import NgramRange, TfidfConfig, TfidfModel
from .resample import SmoteConfig, smote
from .seeds import substream
from .sgd import LinearModel, LossKind, TrainConfig


@dataclass(frozen=True)
class PipelineConfig:
    ngram_range: NgramRange = NgramRange(1, 1)
    norm: str = "l2"
    use_idf: bool = True
    smooth_idf: bool = True
    penalty: str = "l2"
    alpha: float = 1e-4
    loss: LossKind = LossKind.HINGE
    epochs: int = 5
    smote: SmoteConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # The stage configs check their own values; build them so that an
        # out-of-range value fails here rather than in the middle of a fit.
        self.tfidf_config()
        self.train_config()

    def tfidf_config(self) -> TfidfConfig:
        return TfidfConfig(
            ngram_range=self.ngram_range,
            use_idf=self.use_idf,
            smooth_idf=self.smooth_idf,
            norm=self.norm,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            loss=self.loss,
            penalty=self.penalty,
            alpha=self.alpha,
            epochs=self.epochs,
            seed=substream(self.seed, "shuffle"),
        )


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
    before the classifier sees them. All randomness (resampling draws,
    shuffle order) derives from config.seed; the seed field of an attached
    SmoteConfig is replaced by a substream of it.
    """
    if len(documents) != len(labels):
        raise ValueError("documents and labels must have equal length")
    tfidf = features.fit(documents, config.tfidf_config())
    vectors = features.transform(tfidf, documents)
    train_labels = [int(lab) for lab in labels]
    if config.smote is not None:
        resampled = smote(
            vectors,
            train_labels,
            replace(config.smote, seed=substream(config.seed, "smote")),
        )
        vectors = resampled.vectors
        train_labels = resampled.labels
    model = sgd.fit_multiclass(
        vectors, train_labels, config.train_config(), feature_dim=len(tfidf.vocabulary)
    )
    return FittedPipeline(tfidf=tfidf, model=model)


def predict_pipeline(fitted: FittedPipeline, documents: Sequence[Sequence[str]]) -> list[int]:
    return sgd.predict(fitted.model, features.transform(fitted.tfidf, documents))
