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

import math
import operator
import re
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

from .artifacts import read_json, write_json_rows

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

NORMS = ("l1", "l2", "none")

TFIDF_FORMAT_VERSION = 2


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
        if indices.min(initial=0) < 0:
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
        self.indptr, self.indices, self.values = indptr, indices, values

    @classmethod
    def _trusted(cls, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> "SparseRows":
        """Unchecked: contiguous int64, int64, float64 arrays derived from checked batches."""
        rows = object.__new__(cls)
        rows.indptr, rows.indices, rows.values = indptr, indices, values
        return rows

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
        return cls._trusted(*map(np.frombuffer, (indptr, indices, values), ("i8", "i8", "f8")))

    def __len__(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row(self, i: int) -> Row:
        """Views of row i's (indices, values): i in [0, len), or ValueError."""
        if not 0 <= i < len(self):
            raise ValueError(f"position {i} is outside [0, {len(self)})")
        start, end = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:end], self.values[start:end]

    def take(self, positions: Sequence[int]) -> "SparseRows":
        """The rows at positions, in that order, as a new batch: each in [0, len), or ValueError."""
        positions = np.asarray(positions, dtype=np.int64)
        if (bad := positions[(positions < 0) | (positions >= len(self))]).size:
            raise ValueError(f"position {bad[0]} is outside [0, {len(self)})")
        starts = self.indptr[positions]
        lengths = self.indptr[positions + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        gather = np.repeat(starts - indptr[:-1], lengths)
        gather += np.arange(indptr[-1])
        return SparseRows._trusted(indptr, self.indices[gather], self.values[gather])


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


TOKEN_RULE = "every token must be nonempty, with every character above U+0020 (space)"
_SPACE_OR_CONTROL = re.compile(r"[\x00- ]")

# Gram codes are int64: one never reaches this.
_CODE_LIMIT = 2**63


def breaks_token_rule(tokens: Collection[str]) -> bool:
    """Whether some token is empty or has a character at or below U+0020: see count."""
    return "" in tokens or _SPACE_OR_CONTROL.search("".join(tokens)) is not None


def count(documents: Iterable[Sequence[str]], ngram_range: NgramRange) -> NgramCounts:
    """Count every document's n-grams in one pass: one row per document, in order.

    A document shorter than ngram_range.lo gets an empty row. N-grams of
    more than one token join the tokens with a single space.

    Every token must be nonempty, with every character above U+0020, or this
    raises ValueError. Then " " sorts below every token character, so gram
    strings sort as the tuples of their tokens' ranks, zero-padded to hi
    tokens; distinct tuples join to distinct strings. The grams are counted
    on those tuples, coded as int64, with integer sorts: each gram's string
    is built once, for the gram list.
    """
    lo, hi = ngram_range.lo, ngram_range.hi
    documents = list(documents)  # read twice, so a generator is held as a list
    vocab = sorted(set(chain.from_iterable(documents)))
    if breaks_token_rule(vocab):
        raise ValueError(TOKEN_RULE)
    # Token ranks start at 1: 0 pads a gram shorter than hi.
    base = len(vocab) + 1
    rank = dict(zip(vocab, range(1, base)))
    lengths = np.fromiter(map(len, documents), dtype=np.int64, count=len(documents))
    ids = np.fromiter(
        map(rank.__getitem__, chain.from_iterable(documents)), dtype=np.int32,
        count=int(lengths.sum()),
    )
    # Each intermediate is deleted once used: the peak memory stays low.
    del rank, documents
    position = np.int32 if ids.size + hi < 2**31 else np.int64
    # Each token's document, and how many tokens its document has from it on.
    doc = np.repeat(np.arange(lengths.size, dtype=position), lengths)
    room = np.cumsum(lengths)[doc]
    room -= np.arange(ids.size)
    # Every occurrence is a start position, in blocks by gram length lo..hi.
    starts = [np.flatnonzero(room >= n).astype(position) for n in range(lo, hi + 1)]
    del room
    block = np.cumsum([0] + [s.size for s in starts]).tolist()
    start = np.concatenate(starts)
    del starts
    # Append each occurrence's ranks, one token at a time; a code stays below
    # bound. Where the next token would overflow, the prefixes so far are
    # replaced by their dense rank, which keeps their order.
    code = np.zeros(start.size, dtype=np.int64)
    bound = 1
    for k in range(hi):
        if bound * base > _CODE_LIMIT:
            prefixes, code = np.unique(code, return_inverse=True)
            bound = prefixes.size
        code *= base
        longer = block[max(k + 1 - lo, 0)]  # the blocks of grams longer than k
        code[longer:] += ids[start[longer:] + k]
        bound *= base
    # The columns are the distinct codes, in gram order.
    distinct, column = np.unique(code, return_inverse=True)
    n_grams = distinct.size
    del code, distinct
    gram_start = np.empty(n_grams, dtype=position)
    gram_start[column] = start
    gram_size = np.empty(n_grams, dtype=np.min_scalar_type(hi))
    for n, a, b in zip(range(lo, hi + 1), block, block[1:]):
        gram_size[column[a:b]] = n
    # Sorting row * n_grams + column puts each row's occurrences together, in
    # column order: each run of one key is one entry, its length the count.
    key = np.multiply(doc[start], n_grams, dtype=np.int64)
    del doc, start
    key += column
    del column
    key.sort()
    first = np.flatnonzero(np.concatenate((key[:1] >= 0, key[1:] != key[:-1])))  # keys are >= 0
    values = np.diff(first, append=key.size).astype(np.float64)
    key = key[first]
    del first
    indptr = np.searchsorted(key, np.arange(lengths.size + 1) * n_grams)
    key %= n_grams
    rows = SparseRows._trusted(indptr, key, values)
    del key, values
    words = np.array(["", *vocab], dtype=object)
    grams = np.empty(n_grams, dtype=object)
    for n in range(lo, hi + 1):
        columns = np.flatnonzero(gram_size == n)
        at = gram_start[columns]
        parts = [words[ids[at + k]] for k in range(n)]
        grams[columns] = parts[0] if n == 1 else np.fromiter(
            map(" ".join, zip(*parts)), dtype=object, count=columns.size
        )
    return NgramCounts(grams.tolist(), rows, ngram_range)


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
        # fit's column map of these counts increases: each row stays in order, unchecked.
        column, build = model.fitted_on[1], SparseRows._trusted
    else:
        vocab, build = model.vocabulary, SparseRows
        column = np.fromiter(
            (vocab.get(gram, -1) for gram in counts.grams), dtype=np.int64, count=len(counts.grams)
        )
    indptr, index_array, tf = counts.rows.indptr, column[counts.rows.indices], counts.rows.values
    known = index_array >= 0
    if not known.all():
        indptr, index_array, tf = _kept(indptr, known), index_array[known], tf[known]
    values = model.idf_array[index_array]
    values *= tf
    if model.norm != "none":
        values /= np.repeat(_row_norms(indptr, values, model.norm), np.diff(indptr))
    keep = values != 0.0
    if keep.all():
        return build(indptr, index_array, values)
    return build(_kept(indptr, keep), index_array[keep], values[keep])


# From this many rows on, _row_norms reduces a block of rows of one length at
# a time; below it, one row at a time, which costs less on a small batch.
_GROUPED_NORM_ROWS = 128


def _row_norms(indptr: np.ndarray, values: np.ndarray, norm: str) -> np.ndarray:
    """Each row's L1 or L2 norm, reduced over that row alone: 0 for an empty row.

    A row's values are reduced as one contiguous run either way, by a pairwise
    sum (L1) or a dot product (L2), so the grouped and per-row norms are equal
    bit for bit.
    """
    n = indptr.size - 1
    scales = np.zeros(n, dtype=np.float64)
    if n < _GROUPED_NORM_ROWS:
        for i, (start, end) in enumerate(zip(indptr[:-1].tolist(), indptr[1:].tolist())):
            row = values[start:end]
            scales[i] = np.abs(row).sum() if norm == "l1" else math.sqrt(row @ row)
        return scales
    # The rows in a stable order by length, their values in that order: each
    # length's rows are then one (rows, length) block.
    lengths = np.diff(indptr)
    order = np.argsort(lengths, kind="stable")
    sizes = lengths[order]
    ends = np.cumsum(sizes)
    gather = np.repeat(indptr[order] - (ends - sizes), sizes)
    gather += np.arange(values.size)
    blocked = np.abs(values[gather]) if norm == "l1" else values[gather]
    reduced = np.zeros(n, dtype=np.float64)  # empty rows start no block and keep 0
    first = np.flatnonzero(np.concatenate((sizes[:1] != 0, sizes[1:] != sizes[:-1])))
    for a, b in zip(first.tolist(), [*first[1:].tolist(), n]):
        length = int(sizes[a])
        block = blocked[ends[a] - length : ends[b - 1]].reshape(b - a, length)
        if norm == "l1":
            np.add.reduce(block, axis=1, out=reduced[a:b])
        else:
            np.matmul(block[:, None, :], block[:, :, None], out=reduced[a:b, None, None])
    scales[order] = reduced if norm == "l1" else np.sqrt(reduced)
    return scales


def _kept(indptr: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The row boundaries once only the entries where keep holds remain."""
    return np.concatenate(([0], np.cumsum(keep)))[indptr]


def tfidf_from_dict(data: dict) -> TfidfModel:
    try:
        version = data["version"]
        if version != TFIDF_FORMAT_VERSION:
            raise TfidfFormatError(
                f"unsupported vectorizer format version {version!r}; expected {TFIDF_FORMAT_VERSION}"
            )
        lo, hi = data["ngram_range"]
        n_docs = data["n_docs"]
        if not (type(data["use_idf"]) is bool and type(data["smooth_idf"]) is bool):
            raise TfidfFormatError("use_idf and smooth_idf must be JSON booleans")
        grams, dfs = data["grams"], data["doc_freq"]
        if not (type(grams) is list and type(dfs) is list and len(grams) == len(dfs)):
            raise TfidfFormatError("grams and doc_freq must be JSON lists of equal length")
        if type(n_docs) is not int or not set(map(type, dfs)) <= {int}:
            raise TfidfFormatError("n_docs and document frequencies must be JSON integers")
        if not set(map(type, grams)) <= {str}:
            raise TfidfFormatError("vocabulary n-grams must be JSON strings")
        if not all(map(operator.lt, grams, grams[1:])):
            twice = next(a == b for a, b in zip(grams, grams[1:]) if not a < b)
            fault = "lists an n-gram twice" if twice else "is not in n-gram order"
            raise TfidfFormatError(f"the vocabulary {fault}")
        doc_freq = np.array(dfs, dtype=np.int64)
        if n_docs < 1:
            raise TfidfFormatError(f"n_docs must be >= 1, got {n_docs}")
        # The int64 range doc_freq lives in; past it the IDF's float arithmetic overflows.
        if n_docs > np.iinfo(np.int64).max:
            raise TfidfFormatError("n_docs must be at most 2**63 - 1")
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


# Grams or document frequencies formatted and written at a time: bounds the text held at once.
_VOCABULARY_BLOCK = 4096


def _blocks(items: list, encode: Callable[[object], str]) -> Iterator[str]:
    for start in range(0, len(items), _VOCABULARY_BLOCK):
        yield "  " + ",\n  ".join(map(encode, items[start : start + _VOCABULARY_BLOCK]))


def save_tfidf(model: TfidfModel, path: str | Path) -> None:
    """Write tfidf.json: sorted keys, a one-space indent, the vocabulary as two lists.

    "grams" lists the n-grams in index order, which is n-gram order, and
    "doc_freq" their document frequencies; both are written a block at a time.
    """
    head = {
        "version": TFIDF_FORMAT_VERSION,
        "ngram_range": [model.ngram_range.lo, model.ngram_range.hi],
        "use_idf": model.use_idf,
        "smooth_idf": model.smooth_idf,
        "norm": model.norm,
        "n_docs": model.n_docs,
    }
    write_json_rows(path, head, {"grams": _blocks(model.grams, encode_basestring_ascii),
                                 "doc_freq": _blocks(model.doc_freq.tolist(), int.__repr__)})


def load_tfidf(path: str | Path) -> TfidfModel:
    return read_json(path, TfidfFormatError, tfidf_from_dict)
