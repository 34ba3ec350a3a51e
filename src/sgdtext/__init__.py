"""One-vs-rest linear text classification with SGD training.

TF-IDF n-gram features, hinge/log/perceptron losses with L1/L2 penalty,
SMOTE oversampling, stratified k-fold cross-validation, and exhaustive
grid search, all reproducible from a single seed.
"""

from .corpus import LabeledCorpus, SplitPlan, clean_text, load_corpus, load_stop_words, split
from .evaluation import (
    ClassReport,
    ConfusionMatrix,
    CvReport,
    FoldPlan,
    confusion,
    cross_validate,
    per_class_metrics,
    stratified_kfold,
)
from .features import (
    NgramCounts,
    NgramRange,
    SparseRows,
    TfidfModel,
    count,
    fit,
    transform,
)
from .pipeline import FittedPipeline, PipelineConfig, fit_pipeline, predict_pipeline
from .resample import SmoteResult, neighbor_table, smote
from .search import Candidate, GridSpec, enumerate_grid, grid_search
from .seeds import substream
from .sgd import LinearModel, decision, fit_multiclass, loss_dmargin, predict

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "ClassReport",
    "ConfusionMatrix",
    "CvReport",
    "FittedPipeline",
    "FoldPlan",
    "GridSpec",
    "LabeledCorpus",
    "LinearModel",
    "NgramCounts",
    "NgramRange",
    "PipelineConfig",
    "SmoteResult",
    "SparseRows",
    "SplitPlan",
    "TfidfModel",
    "clean_text",
    "confusion",
    "count",
    "cross_validate",
    "decision",
    "enumerate_grid",
    "fit",
    "fit_multiclass",
    "fit_pipeline",
    "grid_search",
    "load_corpus",
    "load_stop_words",
    "loss_dmargin",
    "neighbor_table",
    "per_class_metrics",
    "predict",
    "predict_pipeline",
    "smote",
    "split",
    "stratified_kfold",
    "substream",
    "transform",
]
