"""Small builders for the sparse data the tests feed the library.

A row is an (indices, values) pair of arrays, as SparseRows.row returns it;
a batch of rows is one SparseRows. fit_on and vectorize take token lists
through features.count, as the library does.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import pytest

from sgdtext.features import Row, SparseRows, TfidfModel, count, fit, transform
from sgdtext.pipeline import PipelineConfig


def row(pairs: Mapping[int, float] | Iterable[tuple[int, float]] = ()) -> Row:
    """A row from (index, value) pairs; duplicate indices are summed, zero sums dropped."""
    items = pairs.items() if isinstance(pairs, Mapping) else pairs
    acc: dict[int, float] = {}
    for index, value in items:
        acc[int(index)] = acc.get(int(index), 0.0) + float(value)
    kept = sorted((i, v) for i, v in acc.items() if v != 0.0)
    return (
        np.asarray([i for i, _ in kept], dtype=np.int64),
        np.asarray([v for _, v in kept], dtype=np.float64),
    )


def from_rows(rows: Iterable[Row]) -> SparseRows:
    """Stack (indices, values) rows into one batch, in order, each checked as a batch of one."""
    return SparseRows.concat(
        SparseRows([0, len(indices)], indices, values) for indices, values in rows
    )


def rows(*pair_sets: Mapping[int, float] | Iterable[tuple[int, float]]) -> SparseRows:
    """A batch with one row per argument, each built as row() builds it."""
    return from_rows(row(pairs) for pairs in pair_sets)


def dense_rows(matrix: np.ndarray) -> SparseRows:
    """The nonzeros of every row of a dense matrix, as one batch."""
    return from_rows((np.flatnonzero(r), r[np.flatnonzero(r)]) for r in matrix)


def to_dict(r: Row) -> dict[int, float]:
    return {int(i): float(v) for i, v in zip(*r)}


def to_dense(batch: SparseRows, dim: int) -> np.ndarray:
    out = np.zeros((len(batch), dim))
    for i in range(len(batch)):
        indices, values = batch.row(i)
        out[i, indices] = values
    return out


def row_bytes(r: Row) -> tuple[bytes, bytes]:
    """Bitwise identity of a row: equal bytes mean equal indices and values."""
    return r[0].tobytes(), r[1].tobytes()


def batch_bytes(batch: SparseRows) -> tuple[bytes, bytes, bytes]:
    """Bitwise identity of a batch: its three CSR arrays as bytes."""
    return batch.indptr.tobytes(), batch.indices.tobytes(), batch.values.tobytes()


@contextmanager
def unchecked_batches() -> Iterator[list[SparseRows]]:
    """Every batch SparseRows._trusted builds while the block runs, in order."""
    built: list[SparseRows] = []
    trusted = SparseRows._trusted.__func__

    def recording(cls, indptr, indices, values):
        built.append(trusted(cls, indptr, indices, values))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SparseRows, "_trusted", classmethod(recording))
        yield built


def assert_passes_the_checks(batch: SparseRows) -> None:
    """The checked constructor takes the batch's arrays as they are, converting none of them."""
    checked = SparseRows(batch.indptr, batch.indices, batch.values)
    assert checked.indptr is batch.indptr
    assert checked.indices is batch.indices and checked.values is batch.values


def rows_of(batch: SparseRows) -> list[Row]:
    """Every row of a batch, in order."""
    return [batch.row(i) for i in range(len(batch))]


def fit_on(documents: Sequence[Sequence[str]], config: PipelineConfig) -> TfidfModel:
    """features.fit on the counts of the documents."""
    return fit(count(documents, config.ngram_range), config)


def vectorize(model: TfidfModel, documents: Sequence[Sequence[str]]) -> SparseRows:
    """features.transform on the counts of the documents."""
    return transform(model, count(documents, model.ngram_range))
