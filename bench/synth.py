"""Seeded synthetic corpora in the generic CSV schema (label,text).

Each document is a run of Zipf-distributed background words with a share
of words drawn from its class's own topic list. Words are made of
consonant-vowel syllables, so they survive cleaning (letters only) and
never collide with the packaged stop-word list. A few rows carry a
null-sentinel text or digits only, so prepare's drop path always runs.
Nothing is downloaded; the same arguments give the same CSV bytes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CONSONANTS = "bcdfghjklmnprstvwxz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

NULL_TEXTS = ("NaN", "null", "", "N/A")
DOC_TOKENS = 30
ZIPF_EXPONENT = 1.1
TOPIC_WORDS = 60


@dataclass(frozen=True)
class CorpusSpec:
    n_docs: int
    prior: tuple[float, ...]
    vocab_size: int = 20000
    # Share of each document's tokens drawn from its class's topic words.
    topic_share: float = 0.2


def _word(index: int, n_syllables: int) -> str:
    parts = []
    for _ in range(n_syllables):
        index, digit = divmod(index, len(_SYLLABLES))
        parts.append(_SYLLABLES[digit])
    return "".join(parts)


def generate_rows(spec: CorpusSpec, seed: int) -> list[tuple[int, str]]:
    """Labelled rows: spec.n_docs usable documents plus a few rows prepare drops."""
    rng = np.random.default_rng(seed)
    prior = np.asarray(spec.prior, dtype=np.float64)
    prior /= prior.sum()
    n_classes = prior.size
    # Background words have three syllables, topic words four, so the two
    # sets never overlap.
    background = [_word(i, 3) for i in range(spec.vocab_size)]
    topic = [[_word(c * TOPIC_WORDS + i, 4) for i in range(TOPIC_WORDS)] for c in range(n_classes)]
    ranks = np.arange(1, spec.vocab_size + 1, dtype=np.float64)
    zipf = ranks**-ZIPF_EXPONENT
    zipf /= zipf.sum()

    # Exact class counts (largest remainder), so the seed changes the text
    # and the order but not the class sizes that SGD and SMOTE work scales with.
    exact = prior * spec.n_docs
    counts = np.floor(exact).astype(np.int64)
    counts[np.argsort(counts - exact, kind="stable")[: spec.n_docs - counts.sum()]] += 1
    labels = rng.permutation(np.repeat(np.arange(n_classes), counts))
    shape = (spec.n_docs, DOC_TOKENS)
    words = rng.choice(spec.vocab_size, size=shape, p=zipf)
    is_topic = rng.random(shape) < spec.topic_share
    topic_pick = rng.integers(TOPIC_WORDS, size=shape)
    rows = []
    for d in range(spec.n_docs):
        cls = int(labels[d])
        tokens = [
            topic[cls][topic_pick[d, j]] if is_topic[d, j] else background[words[d, j]]
            for j in range(DOC_TOKENS)
        ]
        rows.append((cls + 1, " ".join(tokens)))

    n_noise = max(2, spec.n_docs // 500)
    for i in range(n_noise):
        at = int(rng.integers(len(rows) + 1))
        if i % 2 == 0:
            text = NULL_TEXTS[(i // 2) % len(NULL_TEXTS)]
        else:
            text = " ".join(str(v) for v in rng.integers(10, 10000, size=4))
        rows.insert(at, (int(rng.integers(n_classes)) + 1, text))
    return rows


def write_csv(rows: list[tuple[int, str]], path: Path) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["label", "text"])
    writer.writerows(rows)
    path.write_text(buffer.getvalue(), "utf-8")
