"""Tests for CSV ingestion, text cleaning, and stratified splitting."""

from __future__ import annotations

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgdtext import corpus
from sgdtext.corpus import (
    CsvSchema,
    LabelValueError,
    MissingColumnError,
    clean_text,
    load_corpus,
    load_stop_words,
    split,
)
from sgdtext.evaluation import stratified_kfold

from oracles import kfold_by_loops, split_by_loops


class TestCleanText:
    def test_lowercases_and_keeps_letter_runs(self):
        assert clean_text("The Quick, brown FOX!", frozenset()) == [
            "the",
            "quick",
            "brown",
            "fox",
        ]

    def test_digits_and_punctuation_split_tokens(self):
        assert clean_text("sept11 attack-2001", frozenset()) == ["sept", "attack"]

    def test_stop_words_removed(self):
        tokens = clean_text("the bomb and the gun", frozenset({"the", "and"}))
        assert tokens == ["bomb", "gun"]

    def test_all_noise_yields_empty_list(self):
        assert clean_text("12345 --- 999", frozenset()) == []
        assert clean_text("the the the", frozenset({"the"})) == []

    def test_order_preserved(self):
        assert clean_text("c a b a", frozenset()) == ["c", "a", "b", "a"]


class TestLoadStopWords:
    def test_packaged_default_list(self):
        words = load_stop_words()
        assert len(words) > 100
        assert "the" in words
        assert "and" in words
        assert all(w == w.lower() for w in words)

    def test_custom_file_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nThe\n\nof\n", "utf-8")
        assert load_stop_words(path) == frozenset({"the", "of"})


class TestLoadCorpus:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, "utf-8")
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(tmp_path, 'label,text\n1,"one two"\n2,"three"\n')
        result = load_corpus(path)
        assert result.corpus.documents == [["one", "two"], ["three"]]
        assert result.corpus.labels == [1, 2]
        assert result.dropped == 0
        assert result.total_rows == 2
        assert result.corpus.classes() == [1, 2]

    def test_alternate_schema_columns(self, tmp_path):
        path = self.write(tmp_path, 'attacktype1,summary\n3,"hostage taken"\n')
        schema = CsvSchema(label_column="attacktype1", text_column="summary")
        result = load_corpus(path, schema)
        assert result.corpus.documents == [["hostage", "taken"]]
        assert result.corpus.labels == [3]

    def test_missing_column_raises(self, tmp_path):
        path = self.write(tmp_path, "label,body\n1,hello\n")
        with pytest.raises(MissingColumnError, match="text"):
            load_corpus(path)

    def test_bad_label_reports_line_number(self, tmp_path):
        path = self.write(tmp_path, "label,text\n1,ok\nxyz,bad\n")
        with pytest.raises(LabelValueError, match="line 3"):
            load_corpus(path)

    def test_negative_label_rejected(self, tmp_path):
        path = self.write(tmp_path, "label,text\n-2,uh oh\n")
        with pytest.raises(LabelValueError, match="negative"):
            load_corpus(path)

    def test_null_sentinels_and_empty_rows_dropped(self, tmp_path):
        path = self.write(
            tmp_path,
            "label,text\n1,real words\n1,NaN\n1,null\n1,\n1,42 7\n",
        )
        result = load_corpus(path)
        assert len(result.corpus) == 1
        assert result.dropped == 4
        assert result.total_rows == 5

    def test_stop_words_applied_during_load(self, tmp_path):
        path = self.write(tmp_path, "label,text\n1,the bomb\n")
        result = load_corpus(path, stop_words=frozenset({"the"}))
        assert result.corpus.documents == [["bomb"]]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "absent.csv")


class TestSplit:
    def test_partition_is_disjoint_and_complete(self):
        labels = [i % 4 for i in range(100)]
        plan = split(labels, 0.7, 5)
        combined = sorted(plan.train_indices + plan.test_indices)
        assert combined == list(range(100))
        assert not set(plan.train_indices) & set(plan.test_indices)

    @pytest.mark.filterwarnings("ignore:class .* has a single member")
    def test_total_matches_rounded_fraction(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(10, 400))
            labels = [int(c) for c in rng.integers(0, 5, size=n)]
            fraction = float(rng.uniform(0.2, 0.9))
            plan = split(labels, fraction, trial)
            assert len(plan.train_indices) == round(fraction * n)

    def test_per_class_counts_stay_proportional(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            n = int(rng.integers(40, 500))
            labels = [int(c) for c in rng.integers(0, 4, size=n)]
            plan = split(labels, 0.7, trial)
            train_counts = Counter(labels[i] for i in plan.train_indices)
            for cls, count in Counter(labels).items():
                if count == 1:
                    continue
                assert abs(train_counts[cls] - 0.7 * count) < 1.0

    def test_realistic_skewed_totals(self):
        """A nine-class distribution with heavy skew lands on the exact rounded total."""
        class_counts = [6187, 24534, 54813, 262, 280, 7196, 5057, 550, 3790]
        labels = []
        for cls, count in enumerate(class_counts, start=1):
            labels.extend([cls] * count)
        n = len(labels)
        assert n == 102669
        plan = split(labels, 0.7, 0)
        assert len(plan.train_indices) == 71868
        assert len(plan.test_indices) == 30801
        train_counts = Counter(labels[i] for i in plan.train_indices)
        for cls, count in enumerate(class_counts, start=1):
            assert abs(train_counts[cls] - 0.7 * count) < 1.0

    def test_single_member_class_goes_to_train_with_warning(self):
        labels = [0] * 9 + [1]
        with pytest.warns(UserWarning, match="single member"):
            plan = split(labels, 0.5, 3)
        assert labels.index(1) in [i for i in plan.train_indices]

    def test_deterministic_for_seed(self):
        labels = [i % 3 for i in range(60)]
        first = split(labels, 0.6, 17)
        second = split(labels, 0.6, 17)
        assert first.train_indices == second.train_indices
        assert first.test_indices == second.test_indices

    def test_different_seeds_differ(self):
        labels = [i % 3 for i in range(60)]
        memberships = {tuple(split(labels, 0.6, seed).train_indices) for seed in range(6)}
        assert len(memberships) > 1

    def test_indices_sorted(self):
        labels = [i % 5 for i in range(50)]
        plan = split(labels, 0.7, 2)
        assert plan.train_indices == sorted(plan.train_indices)
        assert plan.test_indices == sorted(plan.test_indices)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="train_fraction"):
            split([0] * 10, 1.0, 0)
        with pytest.raises(ValueError, match="at least 2"):
            split([0], 0.5, 0)

    def test_fraction_extremes_keep_both_sides_for_majority(self):
        labels = [0] * 50 + [1] * 50
        plan = split(labels, 0.9, 1)
        train_counts = Counter(labels[i] for i in plan.train_indices)
        test_counts = Counter(labels[i] for i in plan.test_indices)
        assert train_counts[0] == 45 and train_counts[1] == 45
        assert test_counts[0] == 5 and test_counts[1] == 5


@st.composite
def class_labels(draw):
    """Labels of 1-6 classes with gapped ids, 1-12 members each, in a shuffled order."""
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
    sizes = draw(st.lists(st.integers(1, 12), min_size=len(ids), max_size=len(ids)))
    labels = [cls for cls, size in zip(ids, sizes) for _ in range(size)]
    return draw(st.permutations(labels))


def with_warnings(fn, *args):
    """fn(*args) and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


class TestStratifyOracle:
    """split and stratified_kfold share corpus.by_class and deal by slicing, as the loops did."""

    def test_by_class(self):
        assert corpus.by_class([7, 2, 7, np.int64(0), 2]) == {0: [3], 2: [1, 4], 7: [0, 2]}
        assert list(corpus.by_class([9, 3, 5, 3])) == [3, 5, 9]
        assert corpus.by_class([]) == {}

    @settings(max_examples=200, deadline=None)
    @given(labels=class_labels(), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**32))
    def test_split_equals_the_loops(self, labels, fraction, seed):
        assume(len(labels) >= 2)
        expected = with_warnings(split_by_loops, len(labels), fraction, seed, labels)
        assert with_warnings(split, labels, fraction, seed) == expected

    @settings(max_examples=200, deadline=None)
    @given(labels=class_labels(), k=st.integers(2, 12), seed=st.integers(0, 2**32))
    def test_kfold_equals_the_loops(self, labels, k, seed):
        assume(k <= len(labels))
        expected = with_warnings(kfold_by_loops, labels, k, seed)
        assert with_warnings(stratified_kfold, labels, k, seed) == expected


class TestSchemas:
    def test_known_schema_names(self):
        assert set(corpus.SCHEMAS) == {"generic", "gtd"}
        assert corpus.SCHEMAS["generic"].label_column == "label"
        assert corpus.SCHEMAS["gtd"].label_column == "attacktype1"
        assert corpus.SCHEMAS["gtd"].text_column == "summary"
