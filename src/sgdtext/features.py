"""N-gram counting and TF-IDF vectorization producing normalized sparse vectors.

The weighting follows the convention

    idf(t) = ln(n_docs / df(t)) + 1            (plain)
    idf(t) = ln((1 + n_docs) / (1 + df(t))) + 1 (smoothed)

with raw in-document counts as term frequency, followed by optional L1 or
L2 normalization of the resulting vector.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .artifacts import atomic_write

NORMS = ("l1", "l2", "none")

TFIDF_FORMAT_VERSION = 1


class EmptyCorpusError(ValueError):
    """Fit was asked to build a vocabulary from no usable documents."""


class TfidfFormatError(ValueError):
    """A serialized vectorizer file is malformed or has the wrong version."""


@dataclass(frozen=True)
class NgramRange:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)):
            raise ValueError(f"n-gram bounds must be integers, got ({self.lo!r}, {self.hi!r})")
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"need 1 <= lo <= hi, got ({self.lo}, {self.hi})")


class SparseVector:
    """Sorted (index, value) pairs: indices strictly increasing, values nonzero."""

    __slots__ = ("indices", "values")

    def __init__(self, indices: np.ndarray, values: np.ndarray) -> None:
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if indices.ndim != 1 or indices.shape != values.shape:
            raise ValueError("indices and values must be 1-D arrays of equal length")
        if indices.size:
            if indices[0] < 0:
                raise ValueError("feature indices must be non-negative")
            if np.any(np.diff(indices) <= 0):
                raise ValueError("indices must be strictly increasing")
            if np.any(values == 0.0):
                raise ValueError("explicit zeros are not stored")
        self.indices = indices
        self.values = values

    @classmethod
    def empty(cls) -> "SparseVector":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

    @classmethod
    def from_pairs(cls, pairs: Mapping[int, float] | Iterable[tuple[int, float]]) -> "SparseVector":
        """Build from (index, value) pairs; duplicate indices are summed."""
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        acc: dict[int, float] = {}
        for index, value in items:
            acc[int(index)] = acc.get(int(index), 0.0) + float(value)
        kept = sorted((i, v) for i, v in acc.items() if v != 0.0)
        if not kept:
            return cls.empty()
        idx, vals = zip(*kept)
        return cls(np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=np.float64))

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def dot(self, dense: np.ndarray) -> float:
        """Sparse dot product against a dense weight vector."""
        if self.nnz == 0:
            return 0.0
        return float(dense[self.indices] @ self.values)

    def norm_l1(self) -> float:
        return float(np.abs(self.values).sum())

    def norm_l2(self) -> float:
        return float(math.sqrt(self.values @ self.values)) if self.nnz else 0.0

    def to_dict(self) -> dict[int, float]:
        return {int(i): float(v) for i, v in zip(self.indices, self.values)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )

    def __hash__(self) -> int:
        return hash((self.indices.tobytes(), self.values.tobytes()))

    def __repr__(self) -> str:
        return f"SparseVector({self.to_dict()!r})"


@dataclass(frozen=True)
class TfidfConfig:
    ngram_range: NgramRange = NgramRange(1, 1)
    use_idf: bool = True
    smooth_idf: bool = True
    norm: str = "l2"

    def __post_init__(self) -> None:
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}, got {self.norm!r}")


@dataclass(eq=False)
class TfidfModel:
    """Fitted vocabulary with document frequencies and weighting flags.

    Immutable after fit; safe to share across concurrent transform calls.
    """

    vocabulary: dict[str, int]
    doc_freq: np.ndarray
    n_docs: int
    ngram_range: NgramRange
    use_idf: bool
    smooth_idf: bool
    norm: str

    @cached_property
    def idf_array(self) -> np.ndarray:
        if not self.use_idf:
            return np.ones(len(self.vocabulary), dtype=np.float64)
        df = self.doc_freq.astype(np.float64)
        if self.smooth_idf:
            return np.log((1.0 + self.n_docs) / (1.0 + df)) + 1.0
        return np.log(self.n_docs / df) + 1.0


def extract_ngrams(tokens: Sequence[str], ngram_range: NgramRange) -> Counter[str]:
    """Count every contiguous n-gram for each n in [lo, hi].

    N-grams of more than one token join the tokens with a single space.
    Fewer tokens than lo yields an empty multiset.
    """
    counts: Counter[str] = Counter()
    n_tokens = len(tokens)
    for n in range(ngram_range.lo, ngram_range.hi + 1):
        if n > n_tokens:
            break
        if n == 1:
            counts.update(tokens)
        else:
            counts.update(" ".join(tokens[i : i + n]) for i in range(n_tokens - n + 1))
    return counts


def fit(documents: Sequence[Sequence[str]], config: TfidfConfig) -> TfidfModel:
    """Build the vocabulary and document frequencies from training documents.

    Feature indices are assigned in lexicographic n-gram order, so refitting
    the same corpus always yields the identical model.
    """
    documents = list(documents)
    df_counter: Counter[str] = Counter()
    for tokens in documents:
        df_counter.update(set(extract_ngrams(tokens, config.ngram_range)))
    if not df_counter:
        raise EmptyCorpusError("no n-grams found: corpus is empty or all documents are too short")
    grams = sorted(df_counter)
    vocabulary = {gram: index for index, gram in enumerate(grams)}
    doc_freq = np.asarray([df_counter[g] for g in grams], dtype=np.int64)
    return TfidfModel(
        vocabulary=vocabulary,
        doc_freq=doc_freq,
        n_docs=len(documents),
        ngram_range=config.ngram_range,
        use_idf=config.use_idf,
        smooth_idf=config.smooth_idf,
        norm=config.norm,
    )


def normalize(v: SparseVector, norm: str) -> SparseVector:
    """Scale a vector to unit L1 or L2 norm; 'none' and the zero vector pass through."""
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")
    if norm == "none" or v.nnz == 0:
        return v
    scale = v.norm_l1() if norm == "l1" else v.norm_l2()
    scaled = v.values / scale
    keep = scaled != 0.0
    if bool(np.all(keep)):
        return SparseVector(v.indices, scaled)
    return SparseVector(v.indices[keep], scaled[keep])


def transform(model: TfidfModel, tokens: Sequence[str]) -> SparseVector:
    """Vectorize one document: count known n-grams, weight by IDF, normalize.

    N-grams absent from the fitted vocabulary are silently dropped; a
    document with no known n-grams maps to the empty vector.
    """
    counts = extract_ngrams(tokens, model.ngram_range)
    if not counts:
        return SparseVector.empty()
    vocab = model.vocabulary
    pairs = [(j, count) for gram, count in counts.items() if (j := vocab.get(gram)) is not None]
    if not pairs:
        return SparseVector.empty()
    pairs.sort()
    indices = np.asarray([p[0] for p in pairs], dtype=np.int64)
    values = np.asarray([p[1] for p in pairs], dtype=np.float64) * model.idf_array[indices]
    return normalize(SparseVector(indices, values), model.norm)


def tfidf_to_dict(model: TfidfModel) -> dict:
    """JSON-ready form; the vocabulary is stored as sorted [ngram, index, df] rows."""
    rows = [
        [gram, index, int(model.doc_freq[index])]
        for gram, index in sorted(model.vocabulary.items())
    ]
    return {
        "version": TFIDF_FORMAT_VERSION,
        "ngram_range": [model.ngram_range.lo, model.ngram_range.hi],
        "use_idf": model.use_idf,
        "smooth_idf": model.smooth_idf,
        "norm": model.norm,
        "n_docs": model.n_docs,
        "vocabulary": rows,
    }


def tfidf_from_dict(data: dict) -> TfidfModel:
    try:
        version = data["version"]
        if version != TFIDF_FORMAT_VERSION:
            raise TfidfFormatError(
                f"unsupported vectorizer format version {version!r}; expected {TFIDF_FORMAT_VERSION}"
            )
        lo, hi = data["ngram_range"]
        rows = data["vocabulary"]
        vocabulary = {gram: int(index) for gram, index, _ in rows}
        if sorted(vocabulary.values()) != list(range(len(vocabulary))):
            raise TfidfFormatError("vocabulary indices are not a dense 0..V-1 range")
        doc_freq = np.zeros(len(rows), dtype=np.int64)
        for _, index, df in rows:
            doc_freq[int(index)] = int(df)
        model = TfidfModel(
            vocabulary=vocabulary,
            doc_freq=doc_freq,
            n_docs=int(data["n_docs"]),
            ngram_range=NgramRange(int(lo), int(hi)),
            use_idf=bool(data["use_idf"]),
            smooth_idf=bool(data["smooth_idf"]),
            norm=str(data["norm"]),
        )
    except TfidfFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise TfidfFormatError(f"malformed vectorizer file: {exc}") from exc
    return model


def save_tfidf(model: TfidfModel, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(tfidf_to_dict(model), sort_keys=True, indent=1))


def load_tfidf(path: str | Path) -> TfidfModel:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such vectorizer file: {path}")
    try:
        data = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise TfidfFormatError(f"vectorizer file is not valid JSON: {exc}") from exc
    return tfidf_from_dict(data)
