"""No mutated artifact ends a command in a traceback.

One trained run of a tiny bench/synth.py corpus is built for the class. Each
example copies it, replaces one JSON leaf of an artifact the command reads
(tfidf.json, model.json, train_meta.json, split.json or one corpus.jsonl
row) with one of VALUES, runs the command through main, and requires exit
0 or 3 with no exception escaping.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdtext.cli import EXIT_DATA, EXIT_OK, main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import synth  # noqa: E402

# Wrong types, out-of-range numbers, non-finite floats, bad strings and containers.
VALUES = (
    None, True, False, 0, 1, -1, 2, 10**30, -(10**30), 0.5, -0.0, 1e308, -1e308,
    float("inf"), float("nan"), "", "!!!!", "1", "svm", "l1", "AAAAAAAAAAA=",
    [], [1], [[1, 2]], ["a"], {}, {"a": 1},
)
TRAINED = ("tfidf.json", "model.json", "train_meta.json")
PREPARED = ("split.json", "corpus.jsonl")
# Each command's arguments and the artifacts it reads.
COMMANDS = {
    "eval": (["eval"], TRAINED + PREPARED),
    "train": (["train"], PREPARED),
    "crossval": (["crossval", "--k", "2"], PREPARED),
    "compare": (["compare", "--k", "2"], PREPARED),
}


def leaves(node, path: tuple = ()):
    """The path of every leaf of a JSON document: each scalar, empty list and empty object."""
    if isinstance(node, (dict, list)) and node:
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaves(value, (*path, key))
    else:
        yield path


def read(path: Path):
    """A JSON artifact, or the list of a .jsonl file's rows."""
    text = path.read_text("utf-8")
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def write(path: Path, document) -> None:
    if path.suffix == ".jsonl":
        path.write_text("".join(json.dumps(row) + "\n" for row in document), "utf-8")
    else:
        path.write_text(json.dumps(document), "utf-8")


class TestMutatedRun:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """A prepared and trained run of 40 documents in three classes."""
        base = tmp_path_factory.mktemp("mutation")
        rows = synth.generate_rows(synth.CorpusSpec(40, (0.5, 0.3, 0.2), vocab_size=300), 0)
        synth.write_csv(rows, base / "input.csv")
        run = base / "run"
        assert main(["prepare", "--input", str(base / "input.csv"), "--out", str(run)]) == EXIT_OK
        assert main(["train", "--out", str(run)]) == EXIT_OK
        return run

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_a_replaced_leaf_exits_0_or_3(self, trained, data):
        argv, reads = COMMANDS[data.draw(st.sampled_from(sorted(COMMANDS)), label="command")]
        name = data.draw(st.sampled_from(reads), label="artifact")
        document = read(trained / name)
        path = data.draw(st.sampled_from(list(leaves(document))), label="leaf")
        value = data.draw(st.sampled_from(VALUES), label="value")
        if path:
            node = document
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        else:
            document = value
        with tempfile.TemporaryDirectory(dir=trained.parent) as scratch:
            run = Path(scratch) / "run"
            shutil.copytree(trained, run)
            write(run / name, document)
            assert main([*argv, "--out", str(run)]) in (EXIT_OK, EXIT_DATA)
