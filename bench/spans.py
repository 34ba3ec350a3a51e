"""Span tracing installed from outside the program, by wrapping module attributes.

Each wrapped call records (name, start, end, parent, info) in memory; info
is a small value computed from the call's arguments and result, so counts
come from the data and repeat exactly. Names a module imported directly
(``from .resample import smote``) are patched too, by identity, across
every loaded ``sgdtext`` module. A target that no longer exists is skipped
and simply reports no calls.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable


def _fit_info(args, kwargs, result) -> tuple:
    model = result
    key = (
        model.ngram_range.lo,
        model.ngram_range.hi,
        model.use_idf,
        model.smooth_idf,
        model.norm,
        model.n_docs,
        hashlib.blake2b(model.doc_freq.tobytes(), digest_size=16).hexdigest(),
    )
    return key, len(model.vocabulary)


def _sgd_fit_info(args, kwargs, result) -> tuple:
    X, _labels, config = args[:3]
    return config.penalty, len(X) * config.epochs * len(result.classes)


def _smote_info(args, kwargs, result) -> int:
    return len(result.vectors) - len(args[0])


def _load_corpus_info(args, kwargs, result) -> tuple:
    return result.total_rows, result.dropped


def _grid_info(args, kwargs, result) -> tuple:
    return len(result), sum(1 for c in result if c.error is not None)


# (module, attribute, info function or None)
TARGETS: list[tuple[str, str, Callable | None]] = [
    ("corpus", "load_corpus", _load_corpus_info),
    ("corpus", "split", None),
    ("features", "fit", _fit_info),
    ("features", "transform", lambda a, k, r: r.nnz),
    ("features", "save_tfidf", None),
    ("features", "load_tfidf", None),
    ("resample", "smote", _smote_info),
    ("resample", "knn_indices", None),
    ("resample", "interpolate", None),
    ("sgd", "fit_multiclass", _sgd_fit_info),
    ("sgd", "predict", None),
    ("sgd", "save_model", None),
    ("sgd", "load_model", None),
    ("pipeline", "fit_pipeline", None),
    ("pipeline", "predict_pipeline", None),
    ("evaluation", "cross_validate", None),
    ("evaluation", "stratified_kfold", lambda a, k, r: len(r.folds)),
    ("search", "grid_search", _grid_info),
]


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while installed; restores every patched attribute on uninstall.

    Used as a context manager, it is installed for the duration of the block.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        return self._call(name, fn, None, args, kwargs)

    def _call(self, name: str, fn: Callable, info: Callable | None, args, kwargs):
        record = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
        if info is not None:
            record.info = info(args, kwargs, result)
        return result

    def _wrap(self, name: str, original: Callable, info: Callable | None) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(name, original, info, args, kwargs)

        return wrapper

    def install(self, package: str = "sgdtext") -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == package and m]
        for module_name, attr, info in TARGETS:
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", original, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()



def self_times(spans: list[Span], duration: Callable[[Span], float]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    whole = [duration(s) for s in spans]
    own = list(whole)
    for s, seconds in zip(spans, whole):
        if s.parent >= 0:
            own[s.parent] -= seconds
    return own
