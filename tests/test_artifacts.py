"""Tests for atomic artifact writes and the one JSON reader."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import sgdtext
from sgdtext import artifacts
from sgdtext.sgd import LinearModel, load_model, save_model


def tiny_model(weight: float) -> LinearModel:
    return LinearModel(weights=np.array([[weight, 0.0]]), intercepts=np.array([0.5]), classes=[1])


class TestAtomicWrite:
    def test_writes_text(self, tmp_path):
        path = tmp_path / "out.txt"
        with artifacts.atomic_write(path) as fh:
            fh.write("first\n")
        assert path.read_bytes() == b"first\n"

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(tiny_model(1.0), path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="serializer"):
            with artifacts.atomic_write(path) as fh:
                fh.write('{"weights": [')
                raise RuntimeError("serializer failed halfway")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_failed_replace_keeps_the_previous_model(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_model(tiny_model(1.0), path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(artifacts.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_model(tiny_model(2.0), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_model(path).weights[0, 0] == 1.0
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


class FormatError(ValueError):
    pass


class TestReadJson:
    def test_reads_the_value(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text('{"a": [1, 2.5, "caf\u00e9"]}', "utf-8")
        assert artifacts.read_json(path) == {"a": [1, 2.5, "caf\u00e9"]}
        assert artifacts.read_json(str(path)) == {"a": [1, 2.5, "caf\u00e9"]}

    @pytest.mark.parametrize(
        "content",
        [b"{broken", b'["caf\xe9"]', b"", b"[" * 100_000],
        ids=["not-json", "not-utf8", "empty", "nested-too-deep"],
    )
    def test_bad_content_raises_the_given_error_naming_the_path(self, tmp_path, content):
        path = tmp_path / "data.json"
        path.write_bytes(content)
        message = re.escape(f"{path} is not valid JSON")
        with pytest.raises(ValueError, match=message):
            artifacts.read_json(path)
        with pytest.raises(FormatError, match=message):
            artifacts.read_json(path, FormatError)

    def test_parse_errors_of_the_given_class_name_the_path(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text('{"a": 1}', "utf-8")
        assert artifacts.read_json(path, parse=lambda value: value["a"] + 1) == 2

        def reject(value):
            raise FormatError(f"no key b in {sorted(value)}")

        with pytest.raises(FormatError, match=re.escape(f"{path}: no key b in ['a']")) as info:
            artifacts.read_json(path, FormatError, reject)
        assert isinstance(info.value.__cause__, FormatError)
        # An error of another class is the parser's own fault and passes through as it is.
        with pytest.raises(KeyError, match="'b'"):
            artifacts.read_json(path, FormatError, lambda value: value["b"])

    def test_unreadable_path_raises_the_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "absent.json"))):
            artifacts.read_json(tmp_path / "absent.json", FormatError)
        with pytest.raises(IsADirectoryError, match=re.escape(str(tmp_path))):
            artifacts.read_json(tmp_path, FormatError)


def package_calls():
    """(file, outermost enclosing function or None, node) for each call in the package."""
    for path in sorted(Path(sgdtext.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        # ast.walk visits outer functions first.
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owner.setdefault(node, func.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield path, owner.get(node), node


def test_files_are_read_through_artifacts():
    """No module checks a path with is_file before opening it, and JSON is parsed in two places.

    artifacts.read_json parses whole files; cli._rows parses corpus.jsonl's nonblank lines in
    one call, all of them, or one at a time to name the first bad line.
    """
    allowed = {("artifacts", "read_json"), ("cli", "_rows")}
    found = []
    for path, owner, node in package_calls():
        if not isinstance(node.func, ast.Attribute):
            continue
        name, target = node.func.attr, node.func.value
        is_json_parse = (name in ("load", "loads") and isinstance(target, ast.Name)
                         and target.id == "json")
        if name == "is_file" or (is_json_parse and (path.stem, owner) not in allowed):
            found.append(f"{path.name}:{node.lineno} calls .{name}(")
    assert found == []


def test_no_module_calls_json_dump():
    """json.dump with an indent runs the pure-Python encoder, one write per token.

    Small files go through json.dumps; model.json and tfidf.json are streamed
    by artifacts.write_json_rows, model.json one weight row (two base64
    strings) at a time and tfidf.json a block of vocabulary rows at a time.
    """
    found = [
        f"{path.name}:{node.lineno}"
        for path, owner, node in package_calls()
        if getattr(node.func, "attr", None) == "dump"
        and getattr(node.func.value, "id", None) == "json"
    ]
    assert found == []


def test_the_dict_forms_of_the_artifacts_are_test_oracles():
    """model_to_dict, tfidf_to_dict, SmoteRecord and records are defined only in tests/oracles.py.

    save_model and save_tfidf write the bytes of their dumps without building them.
    model_to_dict packs each weight row with struct, so the oracle of model.json's
    base64 rows does not share save_model's numpy encoding. smote's provenance is
    SmoteResult.drawn's arrays; one SmoteRecord per sample is only the tests' view of it.
    """
    names = ("model_to_dict", "tfidf_to_dict", "SmoteRecord", "records")
    files = [*Path(sgdtext.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    defined = sorted(
        f"{path.parent.name}/{path.name}:{node.name}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
    )
    assert defined == [f"tests/oracles.py:{name}" for name in sorted(names)]


def test_documents_are_tokenized_in_one_place():
    """features.count counts token ranks: the gram-string counter extract_ngrams is only
    the tests' oracle, and no module in the package calls it."""
    files = [*Path(sgdtext.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    defined = sorted(
        f"{path.parent.name}/{path.name}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "extract_ngrams"
    )
    assert defined == ["tests/oracles.py"]
    callers = [
        f"{path.stem}.{owner}"
        for path, owner, node in package_calls()
        if "extract_ngrams" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert callers == []


def test_one_fold_loop():
    """stratified_kfold has one caller in the package, cross_validate, so every score shares it."""
    callers = [
        f"{path.stem}.{owner}"
        for path, owner, node in package_calls()
        if "stratified_kfold" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert callers == ["evaluation.cross_validate"]


def test_labels_are_grouped_by_class_in_one_place():
    """corpus.by_class is the one loop over labels by position: split, stratified_kfold and
    smote call it, and no other package function iterates enumerate(labels)."""
    callers = sorted(
        f"{path.stem}.{owner}"
        for path, owner, node in package_calls()
        if "by_class" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )
    assert callers == ["corpus.split", "evaluation.stratified_kfold", "resample.smote"]
    loops = [
        f"{path.stem}.{owner}"
        for path, owner, node in package_calls()
        if ast.unparse(node) == "enumerate(labels)"
    ]
    assert loops == ["corpus.by_class"]


def test_rows_are_gathered_by_sparse_rows_take():
    """SparseRows.take is the one CSR row gather: NgramCounts.take delegates to it, smote
    gathers with it, and in resample only neighbor_table reads a row at a time."""
    gathers = sorted(
        f"{path.stem}.{owner}: {ast.unparse(node.func.value)}"
        for path, owner, node in package_calls()
        if path.stem in ("features", "resample") and getattr(node.func, "attr", None) == "take"
    )
    assert gathers == [
        "features.take: self.rows",
        "resample._synthesize: X",
        "resample.smote: X",
    ]
    row_readers = {
        owner
        for path, owner, node in package_calls()
        if path.stem == "resample" and getattr(node.func, "attr", None) == "row"
    }
    assert row_readers == {"neighbor_table"}


def test_pipelines_are_fitted_in_one_place():
    """pipeline.fit_group is the only code that fits a vectorizer or trains a classifier.

    fit_pipeline is its case of one config, and sgd.fit_multiclass is
    sgd.fit_stacked's case of one config.
    """
    trainers = {"fit_stacked", "fit_multiclass"}
    calls = sorted(
        f"{path.stem}.{owner}: {ast.unparse(node.func)}"
        for path, owner, node in package_calls()
        if getattr(node.func, "attr", getattr(node.func, "id", None)) in trainers
        or ast.unparse(node.func) == "features.fit"
        or (path.stem == "features" and getattr(node.func, "id", None) == "fit")
    )
    assert calls == [
        "pipeline.fit_group: features.fit",
        "pipeline.fit_group: sgd.fit_multiclass",
        "pipeline.fit_group: sgd.fit_stacked",
        "sgd.fit_multiclass: fit_stacked",
    ]
    defined = [
        f"{path.stem}.{node.name}"
        for path in Path(sgdtext.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_train"
    ]
    assert defined == []


def test_pipelines_predict_in_one_place():
    """pipeline.py is the only code that transforms counts or predicts with a model.

    fit_group transforms its training rows; predict_group, of which
    predict_pipeline is the case of one pipeline, transforms and predicts
    held-out rows.
    """
    calls = sorted(
        f"{path.stem}.{owner}: {ast.unparse(node.func)}"
        for path, owner, node in package_calls()
        if getattr(node.func, "attr", getattr(node.func, "id", None)) in {"transform", "predict"}
    )
    assert calls == [
        "pipeline.fit_group: features.transform",
        "pipeline.predict_group: features.transform",
        "pipeline.predict_group: sgd.predict",
    ]


def test_each_fact_is_stated_once():
    """A trainer works out a model's width, and a report's JSON form is its dataclass's.

    Only the pass itself and the range check take feature_dim; LinearModel
    derives it from its weights; CvReport serializes through asdict and grid
    search ranks cross_validate's reports without a scoring wrapper.
    """
    trees = {
        path.stem: ast.parse(path.read_text("utf-8"))
        for path in Path(sgdtext.__file__).parent.glob("*.py")
    }
    functions = [
        (stem, node)
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    takes_width = sorted(
        f"{stem}.{node.name}"
        for stem, node in functions
        if "feature_dim" in [a.arg for a in (*node.args.args, *node.args.kwonlyargs)]
    )
    assert takes_width == ["sgd._check_feature_range", "sgd._fit_rows"]
    [linear_model] = [
        node for node in ast.walk(trees["sgd"])
        if isinstance(node, ast.ClassDef) and node.name == "LinearModel"
    ]
    fields = [ast.unparse(n.target) for n in linear_model.body if isinstance(n, ast.AnnAssign)]
    assert fields == ["weights", "intercepts", "classes"]
    restated = [
        f"{stem}.{node.name}" for stem, node in functions if node.name in ("cv_to_dict", "_score")
    ]
    assert restated == []


def test_eval_reads_its_train_run_in_one_place():
    """cli._load_run is the one reader of train_meta.json, and its params go through search.

    _check_eval_flags is gone. Outside search.py, a "params" value is only
    ever passed whole to params_from_dict, never indexed by hand.
    """
    trees = {
        path.stem: ast.parse(path.read_text("utf-8"))
        for path in Path(sgdtext.__file__).parent.glob("*.py")
    }
    functions = {
        f"{stem}.{node.name}": node
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert "cli._check_eval_flags" not in functions
    readers = sorted(
        name for name, func in functions.items()
        if any(isinstance(node, ast.Constant) and node.value == "train_meta.json"
               for node in ast.walk(func))
        and any(isinstance(node, ast.Call) and ast.unparse(node.func) == "read_json"
                for node in ast.walk(func))
    )
    assert readers == ["cli._load_run"]
    passed_whole = set()
    by_hand = []
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("params_from_dict"):
                passed_whole.update(map(id, node.args))
        by_hand += [
            f"{stem}.py:{node.lineno}" for node in ast.walk(tree)
            if stem != "search" and isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant) and node.slice.value == "params"
            and id(node) not in passed_whole
        ]
    assert by_hand == []
