"""CSV corpus ingestion, text cleaning, and stratified train/test splitting."""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

_TOKEN_RE = re.compile(r"[a-z]+")

# Full-field text values treated as a missing document, case-insensitive.
DEFAULT_NULL_SENTINELS = frozenset({"nan", "null", "na", "n/a", "none"})


class CorpusError(Exception):
    """Base class for corpus ingestion failures."""


class MissingColumnError(CorpusError):
    """The CSV header lacks a required column."""


class LabelValueError(CorpusError):
    """A label cell does not parse as a non-negative integer."""


@dataclass(frozen=True)
class CsvSchema:
    """Names of the label and text columns in an input CSV."""

    label_column: str = "label"
    text_column: str = "text"


SCHEMAS = {
    "generic": CsvSchema(),
    "gtd": CsvSchema(label_column="attacktype1", text_column="summary"),
}


@dataclass
class LabeledCorpus:
    """Cleaned token documents with integer class labels."""

    documents: list[list[str]]
    labels: list[int]

    def __len__(self) -> int:
        return len(self.documents)

    def classes(self) -> list[int]:
        return sorted(set(self.labels))


@dataclass
class LoadResult:
    corpus: LabeledCorpus
    dropped: int
    total_rows: int


@dataclass(frozen=True)
class SplitPlan:
    train_indices: list[int]
    test_indices: list[int]


def load_stop_words(path: str | Path | None = None) -> frozenset[str]:
    """Read a stop-word file: one word per line, '#' lines are comments.

    A leading byte order mark is skipped. With no path, returns the packaged English list.
    """
    if path is None:
        text = resources.files("sgdtext").joinpath("data/stopwords.txt").read_text("utf-8")
    else:
        try:
            text = Path(path).read_text("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not UTF-8 text: {exc}") from exc
    words = set()
    for line in text.splitlines():
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return frozenset(words)


def clean_text(raw: str, stop_words: frozenset[str] | set[str]) -> list[str]:
    """Lowercase, keep maximal runs of ASCII letters, drop stop words.

    Token order follows the source text. An all-noise input yields an
    empty list; the caller decides whether to drop the record.
    """
    tokens = _TOKEN_RE.findall(raw.lower())
    if not stop_words:
        return tokens
    return [t for t in tokens if t not in stop_words]


def load_corpus(
    path: str | Path,
    schema: CsvSchema | None = None,
    stop_words: frozenset[str] | set[str] = frozenset(),
) -> LoadResult:
    """Load a labeled CSV corpus, dropping rows whose text is null or cleans to nothing.

    A leading byte order mark is skipped. Raises the OSError of an unreadable
    path, CorpusError naming a file that is not UTF-8 or not CSV, or
    MissingColumnError or LabelValueError naming the file and the offending
    column or line number.
    """
    schema = schema or SCHEMAS["generic"]
    documents: list[list[str]] = []
    labels: list[int] = []
    dropped = 0
    total = 0
    try:
        with Path(path).open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            for column in (schema.label_column, schema.text_column):
                if column not in header:
                    raise MissingColumnError(
                        f"{path}: column {column!r} not found in header {header!r}"
                    )
            # Header is line 1; data starts at line 2.
            for line_number, row in enumerate(reader, start=2):
                total += 1
                raw_label = (row.get(schema.label_column) or "").strip()
                try:
                    label = int(raw_label)
                except ValueError:
                    raise LabelValueError(
                        f"{path}: line {line_number}: label {raw_label!r} is not an integer"
                    ) from None
                if label < 0:
                    raise LabelValueError(f"{path}: line {line_number}: label {label} is negative")
                text = row.get(schema.text_column) or ""
                stripped = text.strip()
                if not stripped or stripped.lower() in DEFAULT_NULL_SENTINELS:
                    dropped += 1
                    continue
                tokens = clean_text(text, stop_words)
                if not tokens:
                    dropped += 1
                    continue
                documents.append(tokens)
                labels.append(label)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise CorpusError(f"{path} is not a UTF-8 CSV file: {exc}") from exc

    return LoadResult(LabeledCorpus(documents, labels), dropped=dropped, total_rows=total)


def by_class(labels: Sequence[int]) -> dict[int, list[int]]:
    """Each class's positions in labels, in index order, keyed by int(label) in ascending order."""
    groups: dict[int, list[int]] = {}
    for index, label in enumerate(labels):
        groups.setdefault(int(label), []).append(index)
    return dict(sorted(groups.items()))


def split(labels: Sequence[int], train_fraction: float, seed: int) -> SplitPlan:
    """Stratified train/test split over the indices of labels.

    Each class contributes floor(train_fraction * class_count) training
    samples, then the classes with the largest fractional remainders take
    one extra until the total reaches round(train_fraction * len(labels)).
    Every class therefore stays within one sample of its exact proportion
    while the overall count lands on the rounded target. Membership within a
    class is decided by a seeded shuffle; single-member classes go to the
    training side with a warning.
    """
    n = len(labels)
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")

    groups = by_class(labels)
    take: dict[int, int] = {}
    remainders: list[tuple[float, int]] = []
    for cls, members in groups.items():
        if len(members) == 1:
            warnings.warn(f"class {cls} has a single member; assigning it to the training set",
                          stacklevel=2)
            take[cls] = 1
            continue
        exact = train_fraction * len(members)
        take[cls] = int(math.floor(exact))
        remainders.append((exact - take[cls], cls))

    # Hand out the remaining slots to the largest remainders; ties go to the
    # lower class id so the allocation is deterministic. A class of two or
    # more keeps a test member, since floor(f * size) + 1 <= size for f < 1.
    leftover = max(round(train_fraction * n) - sum(take.values()), 0)
    remainders.sort(key=lambda item: (-item[0], item[1]))
    for _, cls in remainders[:leftover]:
        take[cls] += 1

    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls, members in groups.items():
        shuffled = rng.permutation(members).tolist()
        train += shuffled[: take[cls]]
        test += shuffled[take[cls] :]
    return SplitPlan(train_indices=sorted(train), test_indices=sorted(test))
