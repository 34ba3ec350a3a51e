"""N-gram counting and TF-IDF vectorization into a batch of normalized sparse rows.

The weighting follows the convention

    idf(t) = ln(n_docs / df(t)) + 1            (plain)
    idf(t) = ln((1 + n_docs) / (1 + df(t))) + 1 (smoothed)

with raw in-document counts as term frequency, followed by optional L1 or
L2 normalization of the resulting vector.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .artifacts import atomic_write

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

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
        if not (type(self.lo) is int and type(self.hi) is int):
            raise ValueError(f"n-gram bounds must be integers, got ({self.lo!r}, {self.hi!r})")
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"need 1 <= lo <= hi, got ({self.lo}, {self.hi})")


# One sparse row: its feature indices and the matching values.
Row = tuple[np.ndarray, np.ndarray]


class SparseRows:
    """A batch of sparse rows in CSR form, validated once when built.

    Row i holds the feature indices indices[indptr[i]:indptr[i + 1]] and the
    matching values; within a row the indices strictly increase, and no
    value is an explicit zero.
    """

    __slots__ = ("indptr", "indices", "values")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if indptr.ndim != 1 or indices.ndim != 1 or indices.shape != values.shape:
            raise ValueError("indptr, indices and values must be 1-D, the last two of equal length")
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must never decrease")
        if indices.size:
            if indices.min() < 0:
                raise ValueError("feature indices must be non-negative")
            # A row may start below where the previous one ended: count the step
            # into each row's first index as 1, then every step must be positive.
            step = np.empty_like(indices)
            np.subtract(indices[1:], indices[:-1], out=step[1:])
            starts = indptr[:-1]
            step[starts[starts < indices.size]] = 1
            if np.any(step <= 0):
                raise ValueError("indices must be strictly increasing within each row")
            if np.any(values == 0.0):
                raise ValueError("explicit zeros are not stored")
        self.indptr = indptr
        self.indices = indices
        self.values = values

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "SparseRows":
        """Stack (indices, values) rows into one batch, in order.

        Each row is copied in as it arrives, so rows made on the fly by an
        iterator are never all held at once.
        """
        indptr, indices, values = [0], array("q"), array("d")
        for row_indices, row_values in rows:
            indices.frombytes(np.asarray(row_indices, dtype=np.int64).tobytes())
            values.frombytes(np.asarray(row_values, dtype=np.float64).tobytes())
            if len(values) != len(indices):
                raise ValueError("each row's indices and values must be of equal length")
            indptr.append(len(indices))
        return cls(indptr, np.frombuffer(indices, dtype=np.int64), np.frombuffer(values))

    def __len__(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row(self, i: int) -> Row:
        """Views of row i's (indices, values)."""
        start, end = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:end], self.values[start:end]


@dataclass(eq=False)
class TfidfModel:
    """Fitted vocabulary with document frequencies and the four TF-IDF settings.

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


def fit(documents: Sequence[Sequence[str]], config: PipelineConfig) -> TfidfModel:
    """Build the vocabulary and document frequencies from training documents.

    Reads the config's four TF-IDF fields: ngram_range, use_idf, smooth_idf, norm.

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
        vocabulary, doc_freq, len(documents), ngram_range=config.ngram_range,
        use_idf=config.use_idf, smooth_idf=config.smooth_idf, norm=config.norm,
    )


def transform(model: TfidfModel, documents: Sequence[Sequence[str]]) -> SparseRows:
    """Vectorize documents into one batch: count known n-grams, weight by IDF, normalize.

    N-grams absent from the fitted vocabulary are silently dropped; a
    document with no known n-grams maps to an empty row. Each row's L1 or L2
    norm is reduced over that row alone, and a value the scaling rounds to
    zero is dropped.
    """
    vocab = model.vocabulary
    indptr = [0]
    indices: list[int] = []
    counts: list[int] = []
    for tokens in documents:
        known = sorted(
            (j, count)
            for gram, count in extract_ngrams(tokens, model.ngram_range).items()
            if (j := vocab.get(gram)) is not None
        )
        indices.extend(j for j, _ in known)
        counts.extend(count for _, count in known)
        indptr.append(len(indices))
    index_array = np.asarray(indices, dtype=np.int64)
    values = model.idf_array[index_array]
    values *= counts
    if model.norm != "none":
        # An empty row gets scale 0, which divides nothing.
        scales = np.empty(len(indptr) - 1, dtype=np.float64)
        for i, (start, end) in enumerate(zip(indptr[:-1], indptr[1:])):
            row = values[start:end]
            scales[i] = np.abs(row).sum() if model.norm == "l1" else math.sqrt(row @ row)
        values /= np.repeat(scales, np.diff(indptr))
    keep = values != 0.0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return SparseRows(kept_before[indptr], index_array[keep], values[keep])


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
        n_docs = data["n_docs"]
        if type(n_docs) is not int or not all(
            type(index) is int and type(df) is int for _, index, df in rows
        ):
            raise TfidfFormatError(
                "n_docs, vocabulary indices and document frequencies must be JSON integers"
            )
        if not (type(data["use_idf"]) is bool and type(data["smooth_idf"]) is bool):
            raise TfidfFormatError("use_idf and smooth_idf must be JSON booleans")
        vocabulary = {gram: index for gram, index, _ in rows}
        if sorted(vocabulary.values()) != list(range(len(vocabulary))):
            raise TfidfFormatError("vocabulary indices are not a dense 0..V-1 range")
        doc_freq = np.zeros(len(rows), dtype=np.int64)
        for _, index, df in rows:
            doc_freq[index] = df
        if n_docs < 1:
            raise TfidfFormatError(f"n_docs must be >= 1, got {n_docs}")
        if doc_freq.size and not (doc_freq.min() >= 1 and doc_freq.max() <= n_docs):
            raise TfidfFormatError(f"document frequencies must lie in [1, n_docs = {n_docs}]")
        norm = data["norm"]
        if norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")
        model = TfidfModel(
            vocabulary, doc_freq, n_docs, ngram_range=NgramRange(lo, hi),
            use_idf=data["use_idf"], smooth_idf=data["smooth_idf"], norm=norm,
        )
    except TfidfFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise TfidfFormatError(f"malformed vectorizer file: {exc}") from exc
    return model


def save_tfidf(model: TfidfModel, path: str | Path) -> None:
    with atomic_write(path) as fh:
        json.dump(tfidf_to_dict(model), fh, sort_keys=True, indent=1)


def load_tfidf(path: str | Path) -> TfidfModel:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such vectorizer file: {path}")
    try:
        data = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise TfidfFormatError(f"vectorizer file is not valid JSON: {exc}") from exc
    return tfidf_from_dict(data)
