"""N-gram counting and TF-IDF vectorization into a batch of normalized sparse rows.

Documents are counted once into an NgramCounts matrix; fit and transform
work on counts (or row subsets of them), never on tokens.

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
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .artifacts import atomic_write, read_json

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
    def concat(cls, batches: Iterable["SparseRows"]) -> "SparseRows":
        """Stack batches into one, rows in order.

        Each batch is copied in as it arrives, so batches made on the fly by
        an iterator are never all held at once.
        """
        indptr, indices, values = array("q", [0]), array("q"), array("d")
        for batch in batches:
            indptr.frombytes(memoryview(batch.indptr[1:] + len(indices)).cast("B"))
            indices.frombytes(memoryview(batch.indices).cast("B"))
            values.frombytes(memoryview(batch.values).cast("B"))
        return cls(indptr, indices, values)

    def __len__(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row(self, i: int) -> Row:
        """Views of row i's (indices, values)."""
        start, end = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:end], self.values[start:end]

    def take(self, positions: Sequence[int]) -> "SparseRows":
        """The rows at positions, in that order, as a new batch."""
        positions = np.asarray(positions, dtype=np.int64)
        starts = self.indptr[positions]
        lengths = self.indptr[positions + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        gather = np.repeat(starts - indptr[:-1], lengths)
        gather += np.arange(indptr[-1])
        return SparseRows(indptr, self.indices[gather], self.values[gather])


@dataclass(eq=False)
class TfidfModel:
    """Fitted vocabulary with document frequencies and the four TF-IDF settings.

    grams[i] is the n-gram of feature index i, and doc_freq[i] its document
    frequency. Immutable after fit; safe to share across concurrent
    transform calls.
    """

    grams: list[str]
    doc_freq: np.ndarray
    n_docs: int
    ngram_range: NgramRange
    use_idf: bool
    smooth_idf: bool
    norm: str
    # The gram list of the counts fit read, with each gram's vocabulary index
    # (-1 if absent): transforming rows of those counts looks up no gram.
    fitted_on: tuple[list[str], np.ndarray] | None = field(default=None, repr=False)

    @cached_property
    def vocabulary(self) -> dict[str, int]:
        """Each n-gram's feature index."""
        return {gram: index for index, gram in enumerate(self.grams)}

    @cached_property
    def idf_array(self) -> np.ndarray:
        if not self.use_idf:
            return np.ones(len(self.grams), dtype=np.float64)
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


@dataclass(frozen=True, eq=False)
class NgramCounts:
    """Per-document n-gram counts of one batch of documents, as a CSR count matrix.

    Column j of rows counts grams[j]; grams holds the batch's distinct
    n-grams in sorted() order, so within a row the columns are in gram order.
    """

    grams: list[str]
    rows: SparseRows
    ngram_range: NgramRange

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, positions: Sequence[int]) -> "NgramCounts":
        """The rows at positions, in that order, sharing this batch's gram list."""
        return NgramCounts(self.grams, self.rows.take(positions), self.ngram_range)

    @cached_property
    def _vocabulary(self) -> tuple[np.ndarray, list[str], np.ndarray]:
        """The part of a fit that depends on these counts alone, shared by every fit on them.

        The document frequencies and the grams of the columns that occur, and
        each column's vocabulary index (-1 if absent).
        """
        # Columns are distinct within a row, so counting them counts documents.
        doc_freq = np.bincount(self.rows.indices, minlength=len(self.grams))
        present = np.flatnonzero(doc_freq)
        if not present.size:
            raise EmptyCorpusError(
                "no n-grams found: corpus is empty or all documents are too short"
            )
        grams = self.grams
        column = np.full(len(grams), -1, dtype=np.int64)
        column[present] = np.arange(present.size)
        if present.size < len(grams):  # else every gram occurs, and the model shares the list
            grams = np.asarray(grams, dtype=object)[present].tolist()
        return doc_freq[present], grams, column


def count(documents: Iterable[Sequence[str]], ngram_range: NgramRange) -> NgramCounts:
    """Count every document's n-grams in one pass: one row per document, in order.

    A document shorter than ngram_range.lo gets an empty row.
    """
    ids: dict[str, int] = {}
    indptr, columns, counts = array("q", [0]), array("q"), array("d")
    for tokens in documents:
        grams = extract_ngrams(tokens, ngram_range)
        columns.extend(ids.setdefault(gram, len(ids)) for gram in grams)
        counts.extend(grams.values())
        indptr.append(len(columns))
    grams = sorted(ids)
    # Renumber the columns from first-seen order to gram order.
    rank = np.empty(len(grams), dtype=np.int64)
    rank[np.fromiter(map(ids.__getitem__, grams), dtype=np.int64, count=len(grams))] = (
        np.arange(len(grams))
    )
    del ids
    ranked, order = _sort_rows(indptr, rank[np.frombuffer(columns, dtype=np.int64)], len(grams))
    del rank, columns
    rows = SparseRows(indptr, ranked, np.frombuffer(counts)[order])
    return NgramCounts(grams, rows, ngram_range)


def _check_range(counts: NgramCounts, ngram_range: NgramRange) -> None:
    if counts.ngram_range != ngram_range:
        raise ValueError(
            f"the counts are of n-gram range {counts.ngram_range}, but {ngram_range} is needed"
        )


def fit(counts: NgramCounts, config: PipelineConfig) -> TfidfModel:
    """Build the vocabulary and document frequencies from training counts.

    Reads the config's four TF-IDF fields: ngram_range, use_idf, smooth_idf,
    norm; the counts must be of the config's n-gram range, or this raises
    ValueError. The vocabulary is every gram that occurs in some row,
    indexed in gram order, so refitting the same corpus always yields the
    identical model.
    """
    _check_range(counts, config.ngram_range)
    # Every fit on the same counts shares these arrays, which no model mutates.
    doc_freq, grams, column = counts._vocabulary
    return TfidfModel(
        grams, doc_freq, len(counts),
        ngram_range=config.ngram_range, use_idf=config.use_idf,
        smooth_idf=config.smooth_idf, norm=config.norm, fitted_on=(counts.grams, column),
    )


def transform(model: TfidfModel, counts: NgramCounts) -> SparseRows:
    """Vectorize counted documents into one batch: weight known n-grams by IDF, normalize.

    The counts must be of the model's n-gram range, or this raises
    ValueError. N-grams absent from the fitted vocabulary are silently
    dropped; a document with no known n-grams maps to an empty row. Each
    row's L1 or L2 norm is reduced over that row alone, and a value the
    scaling rounds to zero is dropped.
    """
    _check_range(counts, model.ngram_range)
    if model.fitted_on is not None and model.fitted_on[0] is counts.grams:
        column = model.fitted_on[1]
    else:
        vocab = model.vocabulary
        column = np.fromiter(
            (vocab.get(gram, -1) for gram in counts.grams), dtype=np.int64, count=len(counts.grams)
        )
    indptr, index_array, tf = counts.rows.indptr, column[counts.rows.indices], counts.rows.values
    known = index_array >= 0
    if not known.all():
        indptr, index_array, tf = _kept(indptr, known), index_array[known], tf[known]
    known_columns = column[column >= 0]
    if np.any(known_columns[1:] < known_columns[:-1]):
        # A vocabulary not indexed in gram order (a hand-made tfidf.json) reorders each row.
        index_array, order = _sort_rows(indptr, index_array, len(model.grams))
        tf = tf[order]
    values = model.idf_array[index_array]
    values *= tf
    if model.norm != "none":
        # An empty row gets scale 0, which divides nothing.
        scales = np.empty(indptr.size - 1, dtype=np.float64)
        for i, (start, end) in enumerate(zip(indptr[:-1].tolist(), indptr[1:].tolist())):
            row = values[start:end]
            scales[i] = np.abs(row).sum() if model.norm == "l1" else math.sqrt(row @ row)
        values /= np.repeat(scales, np.diff(indptr))
    keep = values != 0.0
    if keep.all():
        return SparseRows(indptr, index_array, values)
    return SparseRows(_kept(indptr, keep), index_array[keep], values[keep])


def _sort_rows(
    indptr: np.ndarray, columns: np.ndarray, n_columns: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's columns in increasing order, and the permutation that sorts them.

    The rows stay in place: the sort key of an entry is row * n_columns + column.
    """
    lengths = np.diff(indptr)
    key = np.repeat(np.arange(lengths.size) * n_columns, lengths)
    key += columns
    del columns  # frees a temporary the caller handed over, before the sort
    order = np.argsort(key)
    key = key[order]
    key %= max(n_columns, 1)
    return key, order


def _kept(indptr: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The row boundaries once only the entries where keep holds remain."""
    return np.concatenate(([0], np.cumsum(keep)))[indptr]


def tfidf_to_dict(model: TfidfModel) -> dict:
    """JSON-ready form; the vocabulary is stored as sorted [ngram, index, df] rows."""
    rows = sorted(
        [gram, index, int(df)] for index, (gram, df) in enumerate(zip(model.grams, model.doc_freq))
    )
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
        if not all(type(gram) is str for gram, _, _ in rows):
            raise TfidfFormatError("vocabulary n-grams must be JSON strings")
        if not (type(data["use_idf"]) is bool and type(data["smooth_idf"]) is bool):
            raise TfidfFormatError("use_idf and smooth_idf must be JSON booleans")
        if sorted(index for _, index, _ in rows) != list(range(len(rows))):
            raise TfidfFormatError("vocabulary indices are not a dense 0..V-1 range")
        grams = [""] * len(rows)
        doc_freq = np.zeros(len(rows), dtype=np.int64)
        for gram, index, df in rows:
            grams[index] = gram
            doc_freq[index] = df
        if len(set(grams)) != len(grams):
            raise TfidfFormatError("the vocabulary lists an n-gram twice")
        if n_docs < 1:
            raise TfidfFormatError(f"n_docs must be >= 1, got {n_docs}")
        if doc_freq.size and not (doc_freq.min() >= 1 and doc_freq.max() <= n_docs):
            raise TfidfFormatError(f"document frequencies must lie in [1, n_docs = {n_docs}]")
        norm = data["norm"]
        if norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")
        model = TfidfModel(
            grams, doc_freq, n_docs, ngram_range=NgramRange(lo, hi),
            use_idf=data["use_idf"], smooth_idf=data["smooth_idf"], norm=norm,
        )
    except TfidfFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TfidfFormatError(f"malformed vectorizer file: {exc}") from exc
    return model


def save_tfidf(model: TfidfModel, path: str | Path) -> None:
    with atomic_write(path) as fh:
        json.dump(tfidf_to_dict(model), fh, sort_keys=True, indent=1)


def load_tfidf(path: str | Path) -> TfidfModel:
    data = read_json(path, TfidfFormatError)
    try:
        return tfidf_from_dict(data)
    except TfidfFormatError as exc:
        raise TfidfFormatError(f"{path}: {exc}") from exc
