"""End-to-end tests of the command-line subcommands and exit codes."""

from __future__ import annotations

import argparse
import base64
import codecs
import hashlib
import json
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdtext import cli, evaluation, features, search, sgd
from sgdtext.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    _config_from_args,
    _load_prepared,
    _load_run,
    build_parser,
    main,
)
from sgdtext.evaluation import cross_validate
from sgdtext.pipeline import PipelineConfig
from sgdtext.seeds import substream

from oracles import rows_by_lines, weight_row


def run_prepare(csv_path, out_dir, *extra: str) -> int:
    return main(
        ["prepare", "--input", str(csv_path), "--out", str(out_dir), "--seed", "3", *extra]
    )


def read_json(path):
    return json.loads(path.read_text("utf-8"))


def strip_seconds(data):
    """Drop wall-clock keys so reruns can be compared exactly."""
    if isinstance(data, dict):
        return {
            key: strip_seconds(value)
            for key, value in data.items()
            if not key.endswith("_seconds")
        }
    if isinstance(data, list):
        return [strip_seconds(item) for item in data]
    return data


class TestPrepare:
    def test_outputs_and_counts(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_prepare(labeled_csv, out) == EXIT_OK
        assert "dropped" in capsys.readouterr().out

        manifest = read_json(out / "split.json")
        assert manifest["row_count"] == 32
        assert manifest["drop_count"] == 2
        rows = [
            json.loads(line)
            for line in (out / "corpus.jsonl").read_text("utf-8").splitlines()
        ]
        assert len(rows) == 30
        assert manifest["totals"]["train"] == 21
        assert manifest["totals"]["test"] == 9
        assert sorted(manifest["train_indices"] + manifest["test_indices"]) == list(range(30))
        for counts in manifest["class_histogram"].values():
            assert counts["train"] == 7 and counts["test"] == 3

    def test_histogram_table(self, labeled_csv, tmp_path):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        lines = (out / "histogram.txt").read_text("utf-8").splitlines()
        assert lines[0] == "Class\tTraining Set\tTesting Set"
        assert lines[-1] == "Totals\t21\t9"
        assert lines[1] == "0\t7\t3"

    def test_stopwords_removed_by_default(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(
            'label,text\n0,"the bomb"\n0,"the knife"\n1,"a gun"\n1,"a rifle"\n', "utf-8"
        )
        out = tmp_path / "run"
        assert run_prepare(csv_path, out, "--split", "0.5") == EXIT_OK
        rows = [
            json.loads(line)
            for line in (out / "corpus.jsonl").read_text("utf-8").splitlines()
        ]
        assert [r["tokens"] for r in rows] == [["bomb"], ["knife"], ["gun"], ["rifle"]]

    def test_no_stopwords_flag(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(
            'label,text\n0,"the bomb"\n0,"the knife"\n1,"a gun"\n1,"a rifle"\n', "utf-8"
        )
        out = tmp_path / "run"
        assert run_prepare(csv_path, out, "--split", "0.5", "--no-stopwords") == EXIT_OK
        rows = [
            json.loads(line)
            for line in (out / "corpus.jsonl").read_text("utf-8").splitlines()
        ]
        assert rows[0]["tokens"] == ["the", "bomb"]

    def test_input_files_may_start_with_a_byte_order_mark(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with one.
        csv_path, stop_path = tmp_path / "data.csv", tmp_path / "stop.txt"
        csv_path.write_text(
            'label,text\n0,"the bomb"\n0,"the knife"\n1,"a gun"\n1,"a rifle"\n', "utf-8-sig"
        )
        stop_path.write_text("the\na\n", "utf-8-sig")
        assert csv_path.read_bytes().startswith(codecs.BOM_UTF8)
        out = tmp_path / "run"
        code = run_prepare(csv_path, out, "--split", "0.5", "--stopwords", str(stop_path))
        assert code == EXIT_OK
        rows = [
            json.loads(line)
            for line in (out / "corpus.jsonl").read_text("utf-8").splitlines()
        ]
        assert [r["label"] for r in rows] == [0, 0, 1, 1]
        assert [r["tokens"] for r in rows] == [["bomb"], ["knife"], ["gun"], ["rifle"]]

    def test_gtd_schema_columns(self, tmp_path):
        csv_path = tmp_path / "gtd.csv"
        csv_path.write_text(
            "attacktype1,summary\n"
            + "".join(f'{i % 2 + 1},"event number {i} details"\n' for i in range(10)),
            "utf-8",
        )
        out = tmp_path / "run"
        assert run_prepare(csv_path, out, "--schema", "gtd") == EXIT_OK
        assert (out / "split.json").is_file()

    def test_too_few_usable_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("label,text\n0,NaN\n1,words here\n", "utf-8")
        assert run_prepare(csv_path, tmp_path / "run") == EXIT_DATA
        assert "usable rows" in capsys.readouterr().err


class TestTrainEval:
    @pytest.fixture
    def prepared(self, labeled_csv, tmp_path):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        return out

    def test_train_writes_artifacts(self, prepared):
        assert main(["train", "--out", str(prepared), "--seed", "5"]) == EXIT_OK
        assert (prepared / "tfidf.json").is_file()
        assert (prepared / "model.json").is_file()
        meta = read_json(prepared / "train_meta.json")
        assert meta["loss"] == "svm"
        assert meta["seed"] == 5
        assert meta["smote"] is False
        assert meta["smote_k"] == 5
        assert meta["elapsed_seconds"] >= 0.0

    def test_vocabulary_never_includes_test_only_tokens(self, prepared):
        main(["train", "--out", str(prepared), "--seed", "5"])
        manifest = read_json(prepared / "split.json")
        rows = [
            json.loads(line)
            for line in (prepared / "corpus.jsonl").read_text("utf-8").splitlines()
        ]
        train_tokens = {
            token for i in manifest["train_indices"] for token in rows[i]["tokens"]
        }
        test_tokens = {
            token for i in manifest["test_indices"] for token in rows[i]["tokens"]
        }
        vocabulary = set(read_json(prepared / "tfidf.json")["grams"])
        assert vocabulary == train_tokens
        assert not (test_tokens - train_tokens) & vocabulary

    def test_eval_reports(self, prepared, capsys):
        main(["train", "--out", str(prepared), "--seed", "5"])
        assert main(["eval", "--out", str(prepared), "--seed", "5"]) == EXIT_OK
        assert "accuracy on test" in capsys.readouterr().out
        report = read_json(prepared / "eval_report.json")
        assert report["on"] == "test"
        assert abs(report["summary"]["recall"] - report["summary"]["accuracy"]) < 1e-12
        text = (prepared / "eval_report.txt").read_text("utf-8")
        assert text.startswith("accuracy\t")
        assert "avg / total" in text
        assert "summary\t" in text

    def test_eval_on_train_split(self, prepared):
        main(["train", "--out", str(prepared), "--seed", "5"])
        assert main(["eval", "--on", "train", "--out", str(prepared)]) == EXIT_OK
        report = read_json(prepared / "eval_report.json")
        assert report["on"] == "train"
        assert report["summary"]["accuracy"] == 1.0

    def test_blank_corpus_lines_are_skipped(self, prepared):
        main(["train", "--out", str(prepared), "--seed", "5"])
        model = (prepared / "model.json").read_bytes()
        path = prepared / "corpus.jsonl"
        path.write_text(path.read_text("utf-8").replace("\n", "\n\n", 3) + " \t\n", "utf-8")
        assert main(["train", "--out", str(prepared), "--seed", "5"]) == EXIT_OK
        assert (prepared / "model.json").read_bytes() == model

    def test_eval_without_train_artifacts(self, prepared, capsys):
        assert main(["eval", "--out", str(prepared)]) == EXIT_DATA
        assert "missing" in capsys.readouterr().err

    def test_eval_accepts_flags_that_match_the_train_run(self, prepared):
        main(["train", "--ngram", "1,2", "--loss", "logreg", "--alpha", "0.001",
              "--out", str(prepared)])
        code = main(["eval", "--ngram", "1,2", "--loss", "logreg", "--alpha", "0.001",
                     "--norm", "l2", "--use-idf", "--epochs", "5",
                     "--out", str(prepared)])
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "flags, named, artifact",
        [
            (["--ngram", "3,3"], "--ngram", "tfidf.json"),
            (["--norm", "l1"], "--norm", "tfidf.json"),
            (["--no-use-idf"], "--use-idf", "tfidf.json"),
            (["--no-smooth-idf"], "--smooth-idf", "tfidf.json"),
            (["--loss", "perceptron"], "--loss", "train_meta.json"),
            (["--penalty", "l1"], "--penalty", "train_meta.json"),
            (["--alpha", "5"], "--alpha", "train_meta.json"),
            (["--epochs", "2"], "--epochs", "train_meta.json"),
            (["--smote"], "--smote", "train_meta.json"),
            (["--seed", "1"], "--seed", "train_meta.json"),
        ],
    )
    def test_eval_rejects_flags_the_train_run_did_not_use(
        self, prepared, capsys, flags, named, artifact
    ):
        main(["train", "--out", str(prepared)])
        capsys.readouterr()
        assert main(["eval", *flags, "--out", str(prepared)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert named in err and artifact in err
        assert not (prepared / "eval_report.json").exists()

    def test_eval_accepts_the_seed_of_the_train_run(self, prepared):
        main(["train", "--seed", "12", "--out", str(prepared)])
        assert main(["eval", "--seed", "12", "--out", str(prepared)]) == EXIT_OK

    @pytest.mark.parametrize(
        "name, value",
        [("ngram_range", [2, 3]), ("norm", "l1"), ("use_idf", False), ("smooth_idf", False)],
    )
    def test_eval_rejects_a_train_meta_that_disagrees_with_tfidf(
        self, prepared, capsys, name, value
    ):
        main(["train", "--out", str(prepared)])
        meta_path = prepared / "train_meta.json"
        meta = read_json(meta_path)
        meta["params"][name] = value
        meta_path.write_text(json.dumps(meta), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(prepared)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(meta_path) in err and str(prepared / "tfidf.json") in err
        assert "not from the same train run" in err
        assert not (prepared / "eval_report.json").exists()

    @pytest.mark.parametrize(
        "key, value, flags",
        [
            ("seed", True, ["--seed", "1"]),
            ("epochs", 5.0, ["--epochs", "5"]),
            ("smote_k", 2.5, []),
            ("smote_k", 0, []),
            ("loss", "hinge", []),
            ("params", [], []),
        ],
    )
    def test_eval_rejects_a_wrongly_typed_train_meta(self, prepared, capsys, key, value, flags):
        main(["train", "--out", str(prepared)])
        meta_path = prepared / "train_meta.json"
        meta = read_json(meta_path)
        meta[key] = value
        meta_path.write_text(json.dumps(meta), "utf-8")
        capsys.readouterr()
        assert main(["eval", *flags, "--out", str(prepared)]) == EXIT_DATA
        assert f"{meta_path} is malformed" in capsys.readouterr().err
        assert not (prepared / "eval_report.json").exists()

    def test_eval_needs_train_meta(self, prepared, capsys):
        main(["train", "--out", str(prepared)])
        (prepared / "train_meta.json").unlink()
        capsys.readouterr()
        assert main(["eval", "--out", str(prepared)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "required file is missing" in err and "train_meta.json" in err
        assert not (prepared / "eval_report.json").exists()

    @pytest.mark.parametrize(
        "flags, seed",
        [
            ([], 0),
            (["--loss", "logreg", "--penalty", "l1", "--norm", "l1", "--no-use-idf"], 7),
            (["--loss", "perceptron", "--ngram", "1,2", "--no-smooth-idf", "--smote",
              "--alpha", "0.001", "--epochs", "2"], 12),
            (["--penalty", "l1", "--norm", "none", "--ngram", "1,2", "--smote"], 3),
            (["--smote", "--smote-k", "3"], 4),
        ],
    )
    def test_load_run_returns_the_train_config(self, prepared, flags, seed):
        argv = ["train", *flags, "--seed", str(seed), "--out", str(prepared)]
        assert main(argv) == EXIT_OK
        trained = _config_from_args(build_parser().parse_args(argv), "pipeline")
        fitted, recorded = _load_run(prepared)
        assert recorded == replace(trained, seed=seed)
        assert fitted.tfidf.ngram_range == trained.ngram_range

    def test_eval_flags_against_malformed_train_meta(self, prepared, capsys):
        main(["train", "--out", str(prepared)])
        (prepared / "train_meta.json").write_text("[]", "utf-8")
        capsys.readouterr()
        assert main(["eval", "--loss", "svm", "--out", str(prepared)]) == EXIT_DATA
        assert "train_meta.json is malformed" in capsys.readouterr().err

    def test_train_with_smote_and_other_losses(self, prepared):
        code = main(
            ["train", "--out", str(prepared), "--loss", "logreg", "--smote", "--epochs", "3"]
        )
        assert code == EXIT_OK
        assert read_json(prepared / "train_meta.json")["smote"] is True

    def test_rerun_is_byte_identical(self, labeled_csv, tmp_path):
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            run_prepare(labeled_csv, out)
            main(["train", "--out", str(out), "--seed", "9"])
            main(["eval", "--out", str(out), "--seed", "9"])
            main(["crossval", "--k", "3", "--out", str(out), "--seed", "9"])
            main(["compare", "--ngram", "1,2", "--k", "3", "--out", str(out), "--seed", "9"])
            outputs.append(out)
        first, second = outputs
        for artifact in (
            "corpus.jsonl",
            "split.json",
            "tfidf.json",
            "model.json",
            "eval_report.txt",
            "cv_report.txt",
            "compare.txt",
        ):
            assert (first / artifact).read_bytes() == (second / artifact).read_bytes()
        for artifact in ("eval_report.json", "cv_report.json", "compare.json"):
            assert strip_seconds(read_json(first / artifact)) == strip_seconds(
                read_json(second / artifact)
            )


class TestCrossvalGridCompare:
    @pytest.fixture
    def prepared(self, labeled_csv, tmp_path):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        return out

    def test_crossval_outputs(self, prepared, capsys):
        assert main(["crossval", "--k", "3", "--out", str(prepared), "--seed", "2"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert re.search(r"svm\t\d\.\d{5} \(\+/- \d\.\d{5}\)", printed)
        report = read_json(prepared / "cv_report.json")
        assert report["k"] == 3
        assert len(report["fold_accuracies"]) == 3
        text = (prepared / "cv_report.txt").read_text("utf-8")
        assert text.startswith("svm\t")

    def test_gridsearch_with_custom_grid(self, prepared, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(
            json.dumps(
                {
                    "ngram_ranges": [[1, 1]],
                    "norms": ["l2"],
                    "use_idf": [True],
                    "smooth_idf": [True],
                    "penalties": ["l2"],
                    "alphas": [1e-3, 1e-4],
                    "inner_folds": 2,
                }
            ),
            "utf-8",
        )
        code = main(
            ["gridsearch", "--grid", str(grid_path), "--out", str(prepared), "--seed", "4"]
        )
        assert code == EXIT_OK
        assert "best:" in capsys.readouterr().out
        results = read_json(prepared / "grid_results.json")
        assert [c["rank"] for c in results["candidates"]] == [1, 2]
        table = (prepared / "grid_results.txt").read_text("utf-8")
        assert table.splitlines()[0] == "Classifier\tmean\t(+/-)\tParameters"

    def test_gridsearch_where_every_candidate_fails(self, prepared, tmp_path, capsys):
        # No document has nine tokens, so no candidate can build a vocabulary.
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(
            json.dumps({"ngram_ranges": [[9, 9]], "norms": ["l2"], "use_idf": [True],
                        "smooth_idf": [True], "penalties": ["l2"], "alphas": [1e-3, 1e-4],
                        "inner_folds": 2}),
            "utf-8",
        )
        code = main(["gridsearch", "--grid", str(grid_path), "--out", str(prepared)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert "best:" not in captured.out
        assert "all 2 grid candidates failed" in captured.err
        results = read_json(prepared / "grid_results.json")
        assert all(c["error"] is not None for c in results["candidates"])
        assert (prepared / "grid_results.txt").read_text("utf-8").count("\tfailed\t") == 2

    @pytest.mark.parametrize("command", ["crossval", "compare"])
    @pytest.mark.parametrize(
        "flag, code", [("--ngram", EXIT_DATA), ("--alpha", EXIT_NUMERIC)], ids=["data", "numeric"]
    )
    def test_a_failed_fold_exits_by_its_cause(
        self, prepared, capsys, monkeypatch, command, flag, code
    ):
        # compare's tuned arm fails and its default arm trains; crossval's one config fails.
        # Each reaches sgd.fit_stacked through fit_multiclass, one config per call.
        fit = sgd.fit_stacked

        def diverge_at_alpha_1e3(X, values, labels, configs, **kwargs):
            models = fit(X, values, labels, configs, **kwargs)
            return [
                sgd.NumericError("training diverged to non-finite weights")
                if config.alpha == 1e-3 else model
                for config, model in zip(configs, models)
            ]

        monkeypatch.setattr(sgd, "fit_stacked", diverge_at_alpha_1e3)
        value = {"--ngram": "9,9", "--alpha": "0.001"}[flag]
        assert main([command, flag, value, "--k", "2", "--out", str(prepared)]) == code
        assert "error: fold 0: " in capsys.readouterr().err
        assert not (prepared / "cv_report.json").exists()
        assert not (prepared / "compare.json").exists()

    def test_gridsearch_dev_set_smaller_than_inner_folds(
        self, prepared, tmp_path, capsys, monkeypatch
    ):
        fits = []
        monkeypatch.setattr(evaluation, "fit_group", lambda *args: fits.append(args))
        # 21 training documents leave a development set of 10 or 11.
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"inner_folds": 12}), "utf-8")
        code = main(["gridsearch", "--grid", str(grid_path), "--out", str(prepared)])
        assert code == EXIT_DATA
        assert "k=12 exceeds the" in capsys.readouterr().err
        assert not (prepared / "grid_results.json").exists()
        assert fits == []

    def test_compare_with_tuned_from(self, prepared, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(
            json.dumps(
                {
                    "ngram_ranges": [[1, 2]],
                    "norms": ["l2"],
                    "use_idf": [True],
                    "smooth_idf": [True],
                    "penalties": ["l2"],
                    "alphas": [1e-4],
                    "inner_folds": 2,
                }
            ),
            "utf-8",
        )
        main(["gridsearch", "--grid", str(grid_path), "--out", str(prepared)])
        code = main(
            [
                "compare",
                "--tuned-from",
                str(prepared / "grid_results.json"),
                "--k",
                "3",
                "--out",
                str(prepared),
            ]
        )
        assert code == EXIT_OK
        report = read_json(prepared / "compare.json")
        assert report["tuned_params"]["ngram_range"] == [1, 2]
        assert report["default_params"]["ngram_range"] == [1, 1]
        expected_delta = report["tuned"]["mean"] - report["default"]["mean"]
        assert abs(report["mean_delta"] - expected_delta) < 1e-12
        lines = (prepared / "compare.txt").read_text("utf-8").splitlines()
        assert lines[0] == "Arm\tClassifier\tAccuracy"
        assert len(lines) == 4

    def test_compare_with_explicit_flags(self, prepared):
        code = main(
            ["compare", "--ngram", "1,2", "--alpha", "0.001", "--k", "2", "--out", str(prepared)]
        )
        assert code == EXIT_OK
        assert read_json(prepared / "compare.json")["tuned_params"]["alpha"] == 0.001

    @pytest.mark.parametrize("smote", [[], ["--smote"]], ids=["plain", "smote"])
    def test_compare_times_each_arm_in_its_own_call(self, prepared, monkeypatch, smote,
                                                    fold_clock_reads):
        # The arms share an n-gram range and a penalty, so one call would stack them.
        calls = []

        def recording(documents, labels, configs, k):
            calls.append(len(configs))
            return cross_validate(documents, labels, configs, k)

        monkeypatch.setattr(cli, "cross_validate", recording)
        argv = ["compare", "--alpha", "0.001", *smote, "--k", "2", "--out", str(prepared)]
        assert main(argv) == EXIT_OK
        assert calls == [1, 1]
        # The kernel, and with SMOTE the raw-draw probe, are settled before fold 0's clock
        # starts: each arm's two folds read the clock twice each.
        assert fold_clock_reads == [(True, bool(smote))] * 8
        report = read_json(prepared / "compare.json")
        for arm in ("default", "tuned"):
            assert report[arm]["total_seconds"] == sum(report[arm]["fold_seconds"])
        assert report["default"]["fold_seconds"] != report["tuned"]["fold_seconds"]
        assert report["time_delta_seconds"] != 0.0


class TestGoldenArtifacts:
    """One seeded run of every command, pinned to the bytes of its artifacts.

    JSON artifacts are hashed in canonical form after dropping the *_seconds
    wall-clock keys; text artifacts and corpus.jsonl are hashed as written.
    A refactor that is meant to change no output must leave every digest as is.
    """

    GRID = {
        "ngram_ranges": [[1, 1], [1, 2]],
        "norms": ["l2"],
        "use_idf": [True],
        "smooth_idf": [True],
        "penalties": ["l2"],
        "alphas": [1e-3, 1e-4],
        "inner_folds": 2,
    }

    DIGESTS = {
        "compare.json": "4f05106c2acde1107e753652099166fb5deb7d0e4abf760d0885db591f690070",
        "compare.json@tuned-from": "fe89d5a70c2c31a7a478f4af7c8c67dbea5a16c9a9b3a262ac51820a5001244f",
        "compare.txt": "e39585d01a0471814de2237f5d741dfcc233051b3e40592f015c720b0095ed1c",
        "compare.txt@tuned-from": "e39585d01a0471814de2237f5d741dfcc233051b3e40592f015c720b0095ed1c",
        "corpus.jsonl": "21cd67447447b0a92ecf2115e657087aedaab78cdfb178bb23f057fbeec3608f",
        "cv_report.json": "58f16692c8387f7c79d4977d2b919309f1d7f62609b032676d40cba70db3e0a3",
        "cv_report.txt": "00327179cee0f408de086761753a47eb10b773f5fc97273f84e75cab349c8a10",
        "eval_report.json": "9a67d80cec271d6d8fa039a477364d01bc5bd762eb2ed8a364a6763e843427b1",
        "eval_report.txt": "5eda5fa897ccafdf0a7f144300a23fed00a02956b7f22ea785954f793fc047fb",
        "grid_results.json": "582530e9651f9e1b483c9cb6ec54ba018c1578efa1c5ae7fa32b741d9d984655",
        "grid_results.txt": "e00c21aaebda593866e32a603ea4d70c2a77f93a4153fafc6cac2f46d59a78fb",
        "histogram.txt": "34247faa5fa5e00b07110254ce1a5ab4fcc7b646b6436e721e1272b5cb0629aa",
        "model.json": "7ed0dafebbe23b0404813d3d2977cc80437a6276074deba59929e428465cf4a2",
        "split.json": "79cb60d2fb30091825eba98d2c12c0e512ea9aa197b6e36c4c123381e5e57d85",
        "tfidf.json": "20afa9ac28896675bb03e2e1456f981ab696231d989df5288445630f04323b88",
        "train_meta.json": "b6a3d8ccc544264ea8ae58b7df1ef6a3ad425cb087c2d756998496204100ccea",
    }

    # The two large artifacts hashed as written, which pins their layout:
    # sorted keys and a one-space indent.
    RAW_DIGESTS = {
        "model.json": "9c34aac0096938124552b20dd6d67fd69ab374eb85bbd07cc5a704a6618d04ba",
        "tfidf.json": "0203e49309bce669a667d422d05df6ccacd2ee521335aec9c1726617208614f2",
    }

    @staticmethod
    def digest(path) -> str:
        if path.suffix == ".json":
            data = strip_seconds(read_json(path))
            payload = (json.dumps(data, sort_keys=True, indent=2) + "\n").encode("utf-8")
        else:
            payload = path.read_bytes()
        return hashlib.sha256(payload).hexdigest()

    # A second run pins L1 and logreg arithmetic, which the run above never trains,
    # on a noisy corpus whose vocabulary is large enough for L1 to zero some weights.
    L1_LOGREG_FLAGS = ("--loss", "logreg", "--penalty", "l1", "--ngram", "1,2")
    L1_GRID = {**GRID, "ngram_ranges": [[1, 2]], "penalties": ["l1"], "alphas": [1e-4]}

    L1_LOGREG_DIGESTS = {
        "corpus.jsonl": "f491102ca72f60fc9642314907320f40baa43cf3ae4fced08d6378600ac85766",
        "cv_report.json": "a8e67556fee68183a5567af38b13907f105bf1430642d89739262e53cf69b981",
        "cv_report.txt": "a4f1e298b63277f2e95874a4ad07cc48ed30640750e60019044a719b7f82fd94",
        "eval_report.json": "1e853be1347fd81a927872e14181dbbc7ed9b25e49f1527565ef9637f6399f85",
        "eval_report.txt": "4e93ffb8888080cc7f0f9b595a11b69663f919a1d8a4dbd0f140d5405424cd9e",
        "grid_results.json": "d360272683f46667709356fd873130164c93c1beb7ea636e73faefb937aa3c97",
        "grid_results.txt": "7cb2e1e4124905afcc583bf8ec5636f061845b4ef18f0534b07d21c3aea4b63d",
        "histogram.txt": "2d20616d634f8ae44c48bf54100f397a2a935bdc47ffadcd96fc02852352b79b",
        "model.json": "6040a5744bfcf0cdf8cd63dd11b0a6f45402d9c31423f38a47b87816449ffa8f",
        "model.json@raw": "46c29c7860a75f2fcbc0ad50ba7e00d9530c00a74ab217d88ec6b84f83e87fb2",
        "split.json": "167bb742d7d3d99fc0a42e58bdc61abcbcc5361cc1c9559fce730692d16a004b",
        "tfidf.json": "5b92ffbee1f5e39fa957e4e0a398b7ee6b776ec88dce51bff94e3d89acd942d0",
        "train_meta.json": "9bc7ae6331e659af6455af69c0b05daa0a927d21c6a77643f0f8f5e172a4cf8f",
    }

    @staticmethod
    def signature_rows(signature_corpus) -> list[str]:
        documents, labels = signature_corpus(n_classes=3, per_class=12)
        # Digits do not survive cleaning, so spell each class token with letters,
        # and keep half of the last class so --smote has a minority to grow.
        letters = str.maketrans("0123456789", "abcdefghij")
        return [
            f'{label},"{" ".join(doc).translate(letters)}"'
            for index, (doc, label) in enumerate(zip(documents, labels))
            if label != 3 or index % 2 == 0
        ]

    @staticmethod
    def noisy_rows() -> list[str]:
        """300 documents of three classes, 4-11 words each, drawn by a fixed LCG.

        Each word is one of its class's 40 words or, half the time, any of the 120.
        """
        state = 12345

        def draw(n: int) -> int:
            nonlocal state
            state = (state * 1103515245 + 12345) % 2**31
            return (state >> 8) % n

        words = [f"x{a}{b}{c}" for a in "bcdfg" for b in "aeiou" for c in "klmnpr"][:120]
        rows = []
        for i in range(300):
            label = (0, 0, 1, 2)[i % 4]
            doc = [words[40 * label + draw(40)] if draw(2) else words[draw(120)]
                   for _ in range(4 + draw(8))]
            rows.append(f"{label},{' '.join(doc)}")
        return rows

    @staticmethod
    def prepare(tmp_path, rows: list[str], grid: dict):
        """Prepare rows as a CSV with --seed 7; returns the run command and the grid's path."""
        csv_path = tmp_path / "corpus.csv"
        csv_path.write_text("label,text\n" + "\n".join(rows) + "\n", "utf-8")
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid), "utf-8")
        out = tmp_path / "run"

        def run(*argv):
            assert main([*argv, "--seed", "7", "--out", str(out)]) == EXIT_OK

        run("prepare", "--input", str(csv_path))
        return run, grid_path

    def digests(self, out) -> dict[str, str]:
        return {p.name: self.digest(p) for p in sorted(out.iterdir())}

    def run_all(self, signature_corpus, tmp_path):
        run, grid_path = self.prepare(tmp_path, self.signature_rows(signature_corpus), self.GRID)
        out = tmp_path / "run"
        run("train", "--ngram", "1,2")
        run("eval", "--ngram", "1,2")
        run("crossval", "--smote", "--k", "3")
        run("gridsearch", "--grid", str(grid_path))
        run("compare", "--tuned-from", str(out / "grid_results.json"), "--k", "3")
        tuned_compare = self.digest(out / "compare.json"), self.digest(out / "compare.txt")
        run("compare", "--ngram", "1,2", "--alpha", "0.001", "--k", "3")
        digests = self.digests(out)
        digests["compare.json@tuned-from"], digests["compare.txt@tuned-from"] = tuned_compare
        return out, digests

    def test_l1_logreg_artifacts_match_their_pinned_digests(self, tmp_path, capsys):
        run, grid_path = self.prepare(tmp_path, self.noisy_rows(), self.L1_GRID)
        run("train", *self.L1_LOGREG_FLAGS)
        run("eval", *self.L1_LOGREG_FLAGS)
        run("crossval", *self.L1_LOGREG_FLAGS, "--k", "3")
        run("gridsearch", "--loss", "logreg", "--grid", str(grid_path))
        out = tmp_path / "run"
        digests = self.digests(out)
        digests["model.json@raw"] = hashlib.sha256((out / "model.json").read_bytes()).hexdigest()
        assert digests == self.L1_LOGREG_DIGESTS
        model = sgd.load_model(out / "model.json")
        assert model.weights.shape == (3, 1393)
        # L1 zeroed some of the 1393 columns: count the stored indices, which are the nonzeros.
        stored = sum(len(base64.b64decode(indices)) // 8 for indices, _ in
                     read_json(out / "model.json")["weights"])
        assert 0 < stored == np.count_nonzero(model.weights) < 3 * 1393
        assert "accuracy on test: 0.80000" in capsys.readouterr().out

    # A third run pins gridsearch --smote, the one command that trains SMOTE members
    # together: both norms, use_idf and smooth_idf values give twins and many smote calls.
    SMOTE_GRID = {**GRID, "norms": ["l1", "l2"], "use_idf": [True, False],
                  "smooth_idf": [True, False]}

    SMOTE_GRID_DIGESTS = {
        "grid_results.json": "5db55f9772e70daa9f687f2e0e8b8af1764ebba7e4be95d4db88720a1d10404a",
        "grid_results.txt": "8a93543cd6c0cd10659b85563835a9f1911fe6cbcefcba4303baac9da2bd22d9",
    }

    def test_gridsearch_smote_matches_its_pinned_digests(self, tmp_path):
        run, grid_path = self.prepare(tmp_path, self.noisy_rows(), self.SMOTE_GRID)
        run("gridsearch", "--smote", "--smote-k", "3", "--grid", str(grid_path))
        out = tmp_path / "run"
        digests = {name: self.digest(out / name) for name in self.SMOTE_GRID_DIGESTS}
        assert digests == self.SMOTE_GRID_DIGESTS

    def test_every_artifact_matches_its_pinned_digest(self, signature_corpus, tmp_path, capsys):
        out, digests = self.run_all(signature_corpus, tmp_path)
        assert "best: (1, 1),'l2',True,True,'l2',0.001 mean=" in capsys.readouterr().out
        assert digests == self.DIGESTS
        raw = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in self.RAW_DIGESTS}
        assert raw == self.RAW_DIGESTS

    def test_parallel_sweep_writes_the_same_grid_results(self, signature_corpus, tmp_path):
        out, digests = self.run_all(signature_corpus, tmp_path)
        grid_path = tmp_path / "grid.json"
        code = main(["gridsearch", "--grid", str(grid_path), "--jobs", "2", "--seed", "7",
                     "--out", str(out)])
        assert code == EXIT_OK
        for name in ("grid_results.json", "grid_results.txt"):
            assert self.digest(out / name) == digests[name]


@pytest.mark.usefixtures("step_loop")
class TestGoldenArtifactsInEachLoop(TestGoldenArtifacts):
    """The pinned digests, and the --jobs 2 sweep, with the numpy loops and with the kernel."""


@pytest.mark.usefixtures("draw_path")
class TestGoldenSmoteInEachDrawPath:
    """The pinned crossval --smote digests, with the raw-stream draws and with the scalar calls."""

    def test_crossval_smote_matches_its_pinned_digests(self, signature_corpus, tmp_path):
        golden = TestGoldenArtifacts
        run, _ = golden.prepare(tmp_path, golden.signature_rows(signature_corpus), golden.GRID)
        run("crossval", "--smote", "--k", "3")
        for name in ("cv_report.json", "cv_report.txt"):
            assert golden.digest(tmp_path / "run" / name) == golden.DIGESTS[name]


class TestMalformedInputFiles:
    @pytest.fixture
    def prepared(self, labeled_csv, tmp_path):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        return out

    @pytest.mark.parametrize(
        "content", ['{"candidates": 5}', "[]", '{"candidates": []}'],
        ids=["scalar-candidates", "top-level-list", "no-candidates"],
    )
    def test_compare_tuned_from(self, prepared, tmp_path, capsys, content):
        path = tmp_path / "results.json"
        path.write_text(content, "utf-8")
        code = main(["compare", "--tuned-from", str(path), "--k", "2", "--out", str(prepared)])
        assert code == EXIT_DATA
        assert "candidates" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            ('{"alphas": 5}', "malformed grid spec"),
            ('{"ngram_ranges": [5]}', "malformed grid spec"),
            ('{"alpha": [0.1]}', "unknown grid spec keys"),
            ("[1, 2]", "JSON object"),
            ('{"norms": ["l3"]}', "invalid grid value: norm must be one of"),
            ('{"penalties": ["l3"]}', "invalid grid value: penalty must be one of"),
            ('{"alphas": [-1.0]}', "invalid grid value: alpha must be positive"),
            ('{"alphas": [Infinity]}', "invalid grid value: alpha must be positive and finite"),
            ('{"inner_folds": 1}', "inner_folds must be >= 2"),
            ('{"inner_folds": 0}', "inner_folds must be >= 2"),
            ('{"seed": 7}', "unknown grid spec keys ['seed']"),
            ('{"dev_fraction": 0}', "dev_fraction must be in (0, 1)"),
            ('{"dev_fraction": 1.5}', "dev_fraction must be in (0, 1)"),
            ('{"use_idf": ["false"]}', "invalid grid value: use_idf must be bool"),
            ('{"smooth_idf": [0]}', "invalid grid value: smooth_idf must be bool"),
            ('{"alphas": ["1e-3"]}', "invalid grid value: alpha must be int or float"),
            ('{"alphas": [true]}', "invalid grid value: alpha must be int or float"),
            ('{"ngram_ranges": [[1.7, 2]]}', "n-gram bounds must be integers"),
            ('{"ngram_ranges": [[true, 2]]}', "n-gram bounds must be integers"),
            ('{"inner_folds": 2.9}', "inner_folds must be a JSON integer"),
            ('{"inner_folds": true}', "inner_folds must be a JSON integer"),
            ('{"dev_fraction": "0.5"}', "dev_fraction must be a JSON number"),
        ],
        ids=["scalar-axis", "scalar-ngram-range", "unknown-key", "top-level-list",
             "bad-norm", "bad-penalty", "negative-alpha", "infinite-alpha", "one-inner-fold",
             "no-inner-folds", "seed", "no-dev-fraction", "dev-fraction-above-one",
             "string-use-idf", "integer-smooth-idf", "string-alpha", "bool-alpha",
             "float-ngram-bound", "bool-ngram-bound", "float-inner-folds", "bool-inner-folds",
             "string-dev-fraction"],
    )
    def test_gridsearch_grid(self, prepared, tmp_path, capsys, monkeypatch, content, message):
        scored = []
        monkeypatch.setattr(search, "cross_validate", lambda *args: scored.append(args))
        path = tmp_path / "grid.json"
        path.write_text(content, "utf-8")
        assert main(["gridsearch", "--grid", str(path), "--out", str(prepared)]) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (prepared / "grid_results.json").exists()
        assert scored == []

    def test_gridsearch_grid_message_names_the_file(self, prepared, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text('{"alphas": 5}', "utf-8")
        assert main(["gridsearch", "--grid", str(path), "--out", str(prepared)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: {path}: malformed grid spec: axis 'alphas' must be a JSON array\n"

    def test_compare_tuned_from_message_names_the_file(self, prepared, tmp_path, capsys):
        path = tmp_path / "results.json"
        path.write_text('{"candidates": [{"rank": 1}]}', "utf-8")
        code = main(["compare", "--tuned-from", str(path), "--k", "2", "--out", str(prepared)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: {path}: malformed grid results candidate: KeyError('params')\n"
        assert not (prepared / "compare.json").exists()

    def test_compare_tuned_from_a_failed_winner(self, prepared, tmp_path, capsys):
        path = tmp_path / "results.json"
        params = {"ngram_range": [9, 9], "norm": "l2", "use_idf": True, "smooth_idf": True,
                  "penalty": "l2", "alpha": 1e-4}
        path.write_text(
            json.dumps({"candidates": [{"rank": 1, "error": "EmptyCorpusError: no n-grams",
                                        "params": params}]}),
            "utf-8",
        )
        code = main(["compare", "--tuned-from", str(path), "--k", "2", "--out", str(prepared)])
        assert code == EXIT_DATA
        assert "rank-1 grid candidate failed" in capsys.readouterr().err
        assert not (prepared / "compare.json").exists()


    @pytest.mark.parametrize(
        "row",
        [
            {"label": 1.5, "tokens": ["bomb"]},
            {"label": -4, "tokens": ["bomb"]},
            {"label": True, "tokens": ["bomb"]},
            {"label": 1, "tokens": "bomb"},
            {"label": 1, "tokens": 5},
            [1, 2],
            {"label": 1, "tokens": ["bomb", ""]},
            {"label": 1, "tokens": ["car bomb"]},
            {"label": 1, "tokens": ["car\tbomb", "bomb"]},
        ],
        ids=["float-label", "negative-label", "bool-label", "string-tokens", "scalar-tokens",
             "list-row", "empty-token", "space-in-token", "tab-in-token"],
    )
    def test_corpus_row(self, prepared, capsys, row):
        path = prepared / "corpus.jsonl"
        lines = path.read_text("utf-8").splitlines()
        path.write_text("\n".join([json.dumps(row), *lines[1:]]) + "\n", "utf-8")
        capsys.readouterr()
        assert main(["train", "--out", str(prepared)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "corpus.jsonl: line 1" in err
        assert not (prepared / "model.json").exists()

    # Four rows, written one a line as prepare writes them.
    ROWS = [
        {"label": 0, "tokens": ["car", "bomb"]},
        {"label": 1, "tokens": ["armed", "assault"]},
        {"label": 0, "tokens": ["bomb"]},
        {"label": 2, "tokens": ["hostage", "taken", "hostage"]},
    ]
    TWO = json.dumps(ROWS[2]).encode() + b"],[" + json.dumps(ROWS[3]).encode()
    LINES = [json.dumps(row, sort_keys=True).encode() for row in ROWS]

    @pytest.mark.parametrize(
        "text, bad_line",
        [
            # Joined in one list without brackets of their own, each pair of
            # lines would read as rows no one line holds: a row over two
            # lines, and two rows on one.
            (b'{"label": 0\n"tokens": ["car", "bomb"]}\n' + LINES[1] + b", " + LINES[2]
             + b"\n" + LINES[3] + b"\n", 1),
            (b'{"label": 0\n"tokens": ["car", "bomb"]}\n' + TWO + b"\n" + LINES[3] + b"\n", 1),
            (b'{"label": 0, "tokens": ["\n"]}\n' + LINES[1] + b"\n" + TWO + b"\n", 1),
            (b'{"label": 0, "tokens": ["car"], "x": [[1\n2]]}\n' + LINES[1] + b"\n" + TWO
             + b"\n", 1),
            # A value under a key that appears again is dropped by json.loads,
            # so it could span two lines unseen.
            (b'{"label": [[1\n2]], "label": 0, "tokens": ["car", "bomb"]}\n' + TWO + b"\n"
             + LINES[3] + b"\n", 1),
            # Rows as prepare never writes them: a byte-order mark past the
            # first line, a repeated key and a key other than label and tokens.
            (LINES[0] + b"\n" + codecs.BOM_UTF8 + b"\n".join(LINES[1:]) + b"\n", 2),
            (LINES[0].replace(b"{", b'{"label": 7, ') + b"\n" + b"\n".join(LINES[1:]) + b"\n", 1),
            (LINES[0].replace(b"{", b'{"id": 7, ') + b"\n" + b"\n".join(LINES[1:]) + b"\n", 1),
            # Four rows.
            (LINES[0].replace(b", ", b",\r") + b"\n" + b"\n".join(LINES[1:]) + b"\n", None),
            (codecs.BOM_UTF8 + b"\n".join(LINES) + b"\n", None),
            (b"\n".join(LINES[:2] + [b"\x0b"] + LINES[2:]) + b"\n", None),
            (b"\r\n".join(LINES) + b"\r\n", None),
            (b"\n".join(LINES), None),
        ],
        ids=["row-over-two-lines", "two-rows-bracketed", "token-over-two-lines",
             "nested-value-over-two-lines", "repeated-key-over-two-lines", "bom",
             "duplicate-label", "extra-key", "bare-cr", "leading-bom", "vertical-tab-line",
             "crlf", "no-final-newline"],
    )
    def test_corpus_file(self, tmp_path, capsys, text, bad_line):
        """The one parse of corpus.jsonl names the first line that is not one row, or loads all."""
        out = tmp_path / "run"
        out.mkdir()
        (out / "corpus.jsonl").write_bytes(text)
        split = {"train_indices": [0, 1, 2, 3], "test_indices": []}
        (out / "split.json").write_text(json.dumps(split), "utf-8")
        if bad_line:
            assert main(["train", "--out", str(out)]) == EXIT_DATA
            assert capsys.readouterr().err == (
                f"error: {out / 'corpus.jsonl'}: line {bad_line} needs an integer label >= 0 "
                "and a list of string tokens, each key once and no other\n"
            )
        else:
            loaded, sides = _load_prepared(out)
            assert loaded.documents == [row["tokens"] for row in self.ROWS]
            assert loaded.labels == [row["label"] for row in self.ROWS]
            assert sides == {"train": [0, 1, 2, 3], "test": []}

    @pytest.mark.parametrize("text", [b"", b"\n \r\n\x0b\n", codecs.BOM_UTF8],
                             ids=["empty", "blank-lines", "bom-only"])
    def test_a_file_without_rows_loads_as_zero_rows(self, tmp_path, text):
        (tmp_path / "corpus.jsonl").write_bytes(text)
        (tmp_path / "split.json").write_text('{"train_indices": [], "test_indices": []}', "utf-8")
        loaded, sides = _load_prepared(tmp_path)
        assert (loaded.documents, loaded.labels) == ([], [])
        assert sides == {"train": [], "test": []}

    def test_the_first_bad_line_is_named_whatever_its_fault(self, tmp_path, capsys):
        # Line 1 breaks the token rule, and line 2 is not a row.
        (tmp_path / "corpus.jsonl").write_bytes(
            b'{"label": 0, "tokens": ["car bomb"]}\n{"label": -1, "tokens": []}\n'
        )
        (tmp_path / "split.json").write_text('{"train_indices": [], "test_indices": []}', "utf-8")
        assert main(["train", "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'corpus.jsonl'}: line 1: {features.TOKEN_RULE}\n"

    def test_a_prepared_corpus_is_parsed_in_one_call(self, prepared, monkeypatch):
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads",
                            lambda text, **kw: calls.append(text) or loads(text, **kw))
        loaded, _ = _load_prepared(prepared)
        assert len(calls) == 2  # corpus.jsonl, then split.json
        expected = [json.loads(line) for line in (prepared / "corpus.jsonl").open("rb")]
        assert loaded.documents == [row["tokens"] for row in expected]
        assert loaded.labels == [row["label"] for row in expected]


# corpus.jsonl values, as the line loop takes them and as it refuses them.
GOOD_LABELS, BAD_LABELS = [0, 1, 4], [-1, 1.5, True, "2"]
GOOD_TOKENS, BAD_TOKENS = ["car", "bomb", "car\u2028bomb"], ["", "car bomb", "car\tbomb"]


@st.composite
def corpus_files(draw):
    """corpus.jsonl bytes, and each row's line number and fault: None, "keys", "shape" or "tokens".

    A "keys" row has an extra or a repeated key, which the line loop reads past.
    """
    lines, rows = [], []
    for _ in range(draw(st.integers(1, 5))):
        fault = draw(st.sampled_from([None, None, None, "keys", "shape", "tokens"]))
        label = draw(st.sampled_from(BAD_LABELS if fault == "shape" else GOOD_LABELS))
        tokens = draw(st.lists(st.sampled_from(
            GOOD_TOKENS if fault is None else GOOD_TOKENS + BAD_TOKENS), max_size=3))
        if fault == "tokens":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(BAD_TOKENS)))
        keys = draw(st.sampled_from(["extra", "repeat"] if fault == "keys" else [None]))
        row = {"label": label, "tokens": tokens, **({"id": 7} if keys == "extra" else {})}
        line = json.dumps(row, ensure_ascii=draw(st.booleans()))
        if keys == "repeat":
            line = '{"label": ' + json.dumps(label) + ", " + line[1:]
        if lines:
            lines += draw(st.lists(st.sampled_from([b"", b" ", b"\x0b", b"\r"]), max_size=2))
        rows.append((len(lines) + 1, fault))
        lines.append(line.encode() + draw(st.sampled_from([b"", b"\r"])))
    if draw(st.booleans()):
        lines[0] = codecs.BOM_UTF8 + lines[0]
    return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n"])), rows


class TestCorpusReaderParity:
    """The one-parse reader against the line loop it replaced, tests/oracles.py's rows_by_lines."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("run")
        (out / "split.json").write_text('{"train_indices": [], "test_indices": []}', "utf-8")
        return out

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(corpus_files())
    def test_the_reader_names_the_first_bad_line_and_else_loads_as_the_line_loop(self, run, file):
        text, rows = file
        (run / "corpus.jsonl").write_bytes(text)
        try:
            loaded, _ = _load_prepared(run)
        except ValueError as exc:
            got = str(exc)
        else:
            got = (loaded.documents, loaded.labels)
        try:
            want = rows_by_lines(text)
        except ValueError as exc:
            want = str(exc)
        bad = [(line, fault) for line, fault in rows if fault]
        if not bad:
            assert got == want
            return
        line, fault = bad[0]
        rule = f": {features.TOKEN_RULE}" if fault == "tokens" else " needs an integer label"
        assert got.startswith(f"{run / 'corpus.jsonl'}: line {line}{rule}")
        if len(bad) == 1 and fault != "keys":
            assert got.startswith(f"{run / 'corpus.jsonl'}: {want}")


class TestInputFileErrors:
    """Every file a command reads: unreadable or undecodable, it exits 3 naming itself.

    main is called directly, so an exception escaping it fails the test.
    """

    # Each input file by the command that reads it; "RUN" stands for the run directory.
    READERS = {
        "corpus.jsonl": ["train"],
        "split.json": ["train"],
        "tfidf.json": ["eval"],
        "model.json": ["eval"],
        "train_meta.json": ["eval"],
        "grid.json": ["gridsearch", "--grid", "RUN/grid.json"],
        "results.json": ["compare", "--tuned-from", "RUN/results.json", "--k", "2"],
    }
    FAULTS = {
        "not-json": b"{broken\n",
        "not-utf8": '{"label": 0, "tokens": ["caf\xe9"]}\n'.encode("latin-1"),
        "nested-too-deep": b"[" * 100_000 + b"\n",
    }

    @pytest.fixture
    def trained(self, labeled_csv, tmp_path):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        return out

    @pytest.mark.parametrize("fault", ["missing", "directory", *FAULTS])
    @pytest.mark.parametrize("name", list(READERS))
    def test_each_input_file(self, trained, capsys, name, fault):
        path = trained / name
        path.unlink(missing_ok=True)
        if fault == "directory":
            path.mkdir()
        elif fault in self.FAULTS:
            path.write_bytes(self.FAULTS[fault])
        argv = [arg.replace("RUN", str(trained)) for arg in self.READERS[name]]
        capsys.readouterr()
        assert main([*argv, "--out", str(trained)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err
        if fault == "directory":
            assert "missing" not in err

    @pytest.mark.parametrize("fault", ["missing", "not-utf8"])
    @pytest.mark.parametrize("flag", ["--input", "--stopwords"])
    def test_prepare_inputs(self, labeled_csv, tmp_path, capsys, flag, fault):
        path = tmp_path / "input.txt"
        if fault == "not-utf8":
            # The CSV gains a row with a Latin-1 "cafe"; the stop-word file lists it.
            if flag == "--input":
                text = labeled_csv.read_text("utf-8") + '2,"caf\xe9 carlo"\n'
            else:
                text = "the\ncaf\xe9\n"
            path.write_bytes(text.encode("latin-1"))
        inputs = {"--input": labeled_csv, flag: path}
        argv = ["prepare", *(str(part) for pair in inputs.items() for part in pair),
                "--out", str(tmp_path / "run")]
        assert main(argv) == EXIT_DATA
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_prepare_csv_with_an_unclosed_quote(self, labeled_csv, tmp_path, capsys):
        # The open quote runs to the end of the file, past the csv module's field size limit.
        path = tmp_path / "input.csv"
        rows = ["label,text", '0,"unclosed quote'] + ["1,car bomb market"] * 10_000
        path.write_text("\n".join(rows) + "\n", "utf-8")
        argv = ["prepare", "--input", str(path), "--out", str(tmp_path / "run")]
        assert main(argv) == EXIT_DATA
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_prepare_out_is_an_existing_file(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("keep\n", "utf-8")
        assert run_prepare(labeled_csv, out) == EXIT_DATA
        assert str(out) in capsys.readouterr().err
        assert out.read_text("utf-8") == "keep\n"

    def test_train_where_tfidf_json_is_a_directory(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        (out / "tfidf.json").mkdir()
        (out / "tfidf.json" / "keep.txt").write_text("keep\n", "utf-8")
        before = sorted(p.name for p in out.iterdir())
        capsys.readouterr()
        assert main(["train", "--out", str(out)]) == EXIT_DATA
        assert "tfidf.json" in capsys.readouterr().err
        assert [p.name for p in (out / "tfidf.json").iterdir()] == ["keep.txt"]
        assert (out / "tfidf.json" / "keep.txt").read_text("utf-8") == "keep\n"
        assert sorted(p.name for p in out.iterdir()) == before


class TestEveryFlagIsRead:
    """Each command accepts only the flags it reads; none is parsed and then ignored."""

    # A value other than PipelineConfig's default for each pipeline field.
    NON_DEFAULT = {
        "loss": ["--loss", "logreg"],
        "ngram_range": ["--ngram", "1,2"],
        "norm": ["--norm", "l1"],
        "use_idf": ["--no-use-idf"],
        "smooth_idf": ["--no-smooth-idf"],
        "penalty": ["--penalty", "l1"],
        "alpha": ["--alpha", "0.5"],
        "epochs": ["--epochs", "7"],
        "smote": ["--smote"],
        "smote_k": ["--smote", "--smote-k", "3"],
    }
    ALL = set(NON_DEFAULT)
    PIPELINE = {
        "prepare": set(),
        "train": ALL,
        "eval": ALL - {"smote_k"},
        "crossval": ALL,
        "gridsearch": {"loss", "epochs", "smote", "smote_k"},
        "compare": ALL,
    }
    OTHER = {
        "prepare": {"input", "schema", "stopwords", "no_stopwords", "split", "seed", "out"},
        "train": {"seed", "out"},
        "eval": {"on", "seed", "out"},
        "crossval": {"k", "seed", "out"},
        "gridsearch": {"grid", "jobs", "seed", "out"},
        "compare": {"tuned_from", "k", "seed", "out"},
    }

    def test_each_accepted_flag_sets_its_field(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(self.PIPELINE)
        default = PipelineConfig()
        for command, subparser in sub.choices.items():
            dests = {a.dest for a in subparser._actions} - {"help"}
            assert dests - self.ALL == self.OTHER[command], command
            assert dests & self.ALL == self.PIPELINE[command], command
            for name in sorted(dests & self.ALL):
                argv = [command, *self.NON_DEFAULT[name], "--seed", "4", "--out", "x"]
                config = _config_from_args(parser.parse_args(argv), "s")
                assert getattr(config, name) != getattr(default, name), (command, name)

    @pytest.mark.parametrize("command", ["train", "eval", "crossval", "gridsearch", "compare"])
    def test_flags_left_off_keep_the_config_defaults(self, command):
        args = build_parser().parse_args([command, "--seed", "4", "--out", "x"])
        assert _config_from_args(args, "s") == PipelineConfig(seed=substream(4, "s"))


class TestUsageErrors:
    @pytest.fixture
    def prepared(self, labeled_csv, tmp_path):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        return out

    @staticmethod
    def exit_code(argv) -> int:
        with pytest.raises(SystemExit) as info:
            main(argv)
        return info.value.code

    TUNED_FLAGS = [["--ngram", "3,3"], ["--norm", "l1"], ["--no-use-idf"], ["--no-smooth-idf"],
                   ["--penalty", "l1"], ["--alpha", "5"]]

    @pytest.mark.parametrize("flag", TUNED_FLAGS, ids=lambda flag: flag[0])
    def test_gridsearch_takes_no_tuned_flag(self, prepared, tmp_path, flag):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"alphas": [1e-4], "ngram_ranges": [[1, 1]],
                                         "norms": ["l2"], "use_idf": [True],
                                         "smooth_idf": [True], "penalties": ["l2"],
                                         "inner_folds": 2}), "utf-8")
        argv = ["gridsearch", "--grid", str(grid_path), *flag, "--out", str(prepared)]
        assert self.exit_code(argv) == 2
        assert not (prepared / "grid_results.json").exists()

    @pytest.mark.parametrize("flag", TUNED_FLAGS, ids=lambda flag: flag[0])
    def test_compare_tuned_from_takes_no_tuned_flag(self, prepared, tmp_path, flag):
        path = tmp_path / "results.json"
        params = {"ngram_range": [1, 2], "norm": "l2", "use_idf": True, "smooth_idf": True,
                  "penalty": "l2", "alpha": 1e-4}
        path.write_text(json.dumps({"candidates": [{"rank": 1, "params": params}]}), "utf-8")
        argv = ["compare", "--tuned-from", str(path), *flag, "--k", "2", "--out", str(prepared)]
        assert self.exit_code(argv) == 2
        assert not (prepared / "compare.json").exists()

    def test_eval_takes_no_smote_k(self, prepared):
        main(["train", "--out", str(prepared)])
        assert self.exit_code(["eval", "--smote-k", "999", "--out", str(prepared)]) == 2
        assert not (prepared / "eval_report.json").exists()

    @pytest.mark.parametrize("command", ["train", "crossval", "gridsearch", "compare"])
    def test_smote_k_needs_smote(self, prepared, command):
        argv = [command, "--smote-k", "3", "--out", str(prepared)]
        if command == "gridsearch":
            argv += ["--grid", str(prepared / "missing-grid.json")]
        assert self.exit_code(argv) == 2

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha(self, prepared, capsys, alpha):
        assert self.exit_code(["train", "--alpha", alpha, "--out", str(prepared)]) == 2
        assert "argument --alpha: expected a positive finite number" in capsys.readouterr().err
        assert not (prepared / "model.json").exists()

    def test_zero_epochs(self, prepared, capsys):
        assert self.exit_code(["train", "--epochs", "0", "--out", str(prepared)]) == 2
        assert "argument --epochs: expected a positive integer, got '0'" in capsys.readouterr().err
        assert not (prepared / "model.json").exists()

    @pytest.mark.parametrize("command", ["crossval", "compare"])
    def test_one_fold(self, prepared, capsys, command):
        assert self.exit_code([command, "--k", "1", "--out", str(prepared)]) == 2
        assert "argument --k: expected at least 2 folds" in capsys.readouterr().err

    def test_stopwords_file_and_no_stopwords(self, labeled_csv, tmp_path):
        stop_path = tmp_path / "stop.txt"
        stop_path.write_text("the\n", "utf-8")
        argv = ["prepare", "--input", str(labeled_csv), "--stopwords", str(stop_path),
                "--no-stopwords", "--out", str(tmp_path / "run")]
        assert self.exit_code(argv) == 2
        assert not (tmp_path / "run" / "corpus.jsonl").exists()


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["prepare", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "missing" in capsys.readouterr().err

    def test_missing_column(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("title,body\nx,y\n", "utf-8")
        assert run_prepare(csv_path, tmp_path / "run") == EXIT_DATA
        err = capsys.readouterr().err
        assert "label" in err and str(csv_path) in err

    def test_bad_label_value(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("label,text\nbomb,words\n", "utf-8")
        assert run_prepare(csv_path, tmp_path / "run") == EXIT_DATA
        assert f"{csv_path}: line 2: label 'bomb' is not an integer" in capsys.readouterr().err

    def test_train_that_diverges_writes_no_model(self, labeled_csv, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)

        def diverge(X, values, Y, configs, feature_dim):
            shape = (len(configs), Y.shape[1])
            return np.full((*shape, feature_dim), np.inf), np.zeros(shape)

        monkeypatch.setattr(sgd, "_fit_rows", diverge)
        capsys.readouterr()
        assert main(["train", "--out", str(out)]) == EXIT_NUMERIC
        assert "training diverged to non-finite weights" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_eval_on_an_empty_test_side(self, tmp_path, capsys):
        csv_path = tmp_path / "two.csv"
        csv_path.write_text('label,text\n0,"car bomb"\n1,"armed assault"\n', "utf-8")
        out = tmp_path / "run"
        with pytest.warns(UserWarning, match="single member"):
            assert run_prepare(csv_path, out) == EXIT_OK
        assert "-> 2 train / 0 test" in capsys.readouterr().out
        assert main(["train", "--out", str(out)]) == EXIT_OK
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        assert "the test side of the split is empty" in capsys.readouterr().err
        assert not (out / "eval_report.json").exists()

    def test_corrupt_model_file(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        (out / "model.json").write_text("{broken", "utf-8")
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        assert "JSON" in capsys.readouterr().err

    def test_model_with_a_nan_intercept_and_a_negative_index(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "model.json").read_text("utf-8"))
        data["intercepts"][0] = float("nan")
        data["weights"][0] = weight_row([-1], [0.5])
        (out / "model.json").write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        assert "feature index" in capsys.readouterr().err

    def test_model_with_a_non_finite_weight(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "model.json").read_text("utf-8"))
        data["weights"][0] = weight_row([0], [float("inf")])
        (out / "model.json").write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{out / 'model.json'}: model file holds a non-finite weight" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("norm", "l3", "norm must be one of"),
            ("n_docs", 0, "n_docs must be >= 1"),
            # A valid JSON integer, but past int64 the IDF's float arithmetic overflows.
            pytest.param(
                "n_docs", 10**400, "n_docs must be at most 2**63 - 1", id="n_docs-huge-int"
            ),
            ("df", 0, "document frequencies"),
            ("df", -4, "document frequencies"),
            ("df", None, "document frequencies must lie in [1, n_docs = "),
            # Past int64 too, and reported as any other frequency out of range.
            pytest.param(
                "df", 10**30, "document frequencies must lie in [1, n_docs = ", id="df-huge-int"
            ),
            pytest.param(
                "df", -(10**30), "document frequencies must lie in [1, n_docs = ",
                id="df-huge-negative-int",
            ),
        ],
    )
    def test_vectorizer_with_an_out_of_range_value(
        self, labeled_csv, tmp_path, capsys, field, value, message
    ):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "tfidf.json").read_text("utf-8"))
        if field == "df":  # None: one above n_docs
            data["doc_freq"][0] = data["n_docs"] + 1 if value is None else value
        else:
            data[field] = value
        (out / "tfidf.json").write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and str(out / "tfidf.json") in err

    @pytest.mark.parametrize(
        "field, spoil, message",
        [
            ("use_idf", lambda v: "false", "use_idf and smooth_idf must be JSON booleans"),
            ("smooth_idf", int, "use_idf and smooth_idf must be JSON booleans"),
            ("n_docs", float, "must be JSON integers"),
            ("n_docs", bool, "must be JSON integers"),
            ("df", lambda v: v + 0.5, "must be JSON integers"),
            ("df", bool, "must be JSON integers"),
            ("ngram_range", lambda v: [float(b) for b in v], "n-gram bounds must be integers"),
            ("ngram_range", lambda v: [True, True], "n-gram bounds must be integers"),
            ("gram", lambda v: 12345, "n-grams must be JSON strings"),
            ("gram", lambda v: None, "n-grams must be JSON strings"),
        ],
        ids=["string-use-idf", "integer-smooth-idf", "float-n-docs", "bool-n-docs",
             "float-df", "bool-df", "float-ngram-bounds", "bool-ngram-bounds",
             "number-gram", "null-gram"],
    )
    def test_vectorizer_with_a_wrongly_typed_value(
        self, labeled_csv, tmp_path, capsys, field, spoil, message
    ):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "tfidf.json").read_text("utf-8"))
        if field in ("gram", "df"):
            column = data["grams" if field == "gram" else "doc_freq"]
            column[0] = spoil(column[0])
        else:
            data[field] = spoil(data[field])
        (out / "tfidf.json").write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and str(out / "tfidf.json") in err
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda d: d["doc_freq"].pop(), "grams and doc_freq must be JSON lists of equal length"),
            (lambda d: d["grams"].pop(), "grams and doc_freq must be JSON lists of equal length"),
            (lambda d: d.update(grams=" ".join(d["grams"])),
             "grams and doc_freq must be JSON lists of equal length"),
            (lambda d: d.update(doc_freq=dict(zip(d["grams"], d["doc_freq"]))),
             "grams and doc_freq must be JSON lists of equal length"),
            (lambda d: d["grams"].reverse(), "the vocabulary is not in n-gram order"),
            (lambda d: d["grams"].__setitem__(1, d["grams"][0]),
             "the vocabulary lists an n-gram twice"),
        ],
        ids=["fewer-dfs", "fewer-grams", "grams-as-a-string", "dfs-as-an-object",
             "grams-out-of-order", "repeated-gram"],
    )
    def test_vectorizer_with_a_malformed_vocabulary(
        self, labeled_csv, tmp_path, capsys, spoil, message
    ):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "tfidf.json").read_text("utf-8"))
        spoil(data)
        (out / "tfidf.json").write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{out / 'tfidf.json'}: {message}" in err
        assert not (out / "eval_report.json").exists()

    def test_a_version_1_vectorizer_is_refused(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "tfidf.json").read_text("utf-8"))
        data["version"] = 1
        data["vocabulary"] = [
            [gram, index, df]
            for index, (gram, df) in enumerate(zip(data.pop("grams"), data.pop("doc_freq")))
        ]
        (out / "tfidf.json").write_text(json.dumps(data, sort_keys=True, indent=1), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{out / 'tfidf.json'}: unsupported vectorizer format version 1; expected 2" in err
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("float-classes", "classes and feature_dim must be JSON integers"),
            ("float-feature-dim", "classes and feature_dim must be JSON integers"),
            ("string-intercept", "intercepts must be JSON numbers"),
            ("bool-intercept", "intercepts must be JSON numbers"),
        ],
    )
    def test_model_with_a_wrongly_typed_value(self, labeled_csv, tmp_path, capsys, fault, message):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "model.json").read_text("utf-8"))
        if fault == "float-classes":
            data["classes"] = [0.5, 1.9, 2.2]
        elif fault == "float-feature-dim":
            data["feature_dim"] += 0.5
        else:
            data["intercepts"][0] = "0.5" if fault == "string-intercept" else True
        (out / "model.json").write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            pytest.param([*weight_row([0], [0.5]), ""], "is not two base64 strings",
                         id="three-strings"),
            pytest.param(weight_row([0], [0.5])[:1], "is not two base64 strings", id="one-string"),
            pytest.param([[0, 0.5]], "is not two base64 strings", id="version-1-row"),
            pytest.param([True, "AAAAAAAA4D8="], "is not two base64 strings", id="bool-indices"),
            pytest.param(["AAAAAAAA4D8=", 0.5], "is not two base64 strings", id="float-values"),
            pytest.param(["AAAA-AAAAAA=", "AAAAAAAA4D8="], "is not base64",
                         id="non-base64-character"),
            pytest.param(["AAAAAAAAAAA", "AAAAAAAA4D8="], "is not base64", id="bad-padding"),
            pytest.param(["AAAAAA==", "AAAAAAAA4D8="], "does not hold equal counts",
                         id="length-not-a-multiple-of-8"),
            pytest.param(weight_row([0, 1], [0.5]), "does not hold equal counts",
                         id="unequal-counts"),
        ],
    )
    def test_model_with_a_bad_weight_row(self, labeled_csv, tmp_path, capsys, row, message):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "model.json").read_text("utf-8"))
        data["weights"][0] = row
        (out / "model.json").write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        assert f"{out / 'model.json'}: weight row 0 {message}" in capsys.readouterr().err
        assert not (out / "eval_report.json").exists()

    def test_a_version_1_model_is_refused(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "model.json").read_text("utf-8"))
        data["version"] = 1
        data["weights"] = [[[0, 0.5], [2, -0.25]] for _ in data["weights"]]
        (out / "model.json").write_text(json.dumps(data, sort_keys=True, indent=1), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{out / 'model.json'}: unsupported model format version 1; expected 2" in err
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize(
        "classes", [[1, 1, 1], [2, 1, 0], []], ids=["repeated", "unordered", "empty"]
    )
    def test_model_classes_not_strictly_increasing(self, labeled_csv, tmp_path, capsys, classes):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "model.json").read_text("utf-8"))
        assert data["classes"] == [0, 1, 2]
        data["classes"] = classes
        (out / "model.json").write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{out / 'model.json'}: classes must be" in err and "strictly increasing" in err
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "crossval"])
    @pytest.mark.parametrize("fault", ["out-of-range", "negative", "duplicate", "overlapping"])
    def test_bad_split_indices(self, labeled_csv, tmp_path, capsys, command, fault):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        n_docs = len((out / "corpus.jsonl").read_text("utf-8").splitlines())
        manifest = json.loads((out / "split.json").read_text("utf-8"))
        # Spoil the side the command reads: eval scores the test side.
        side, other = ("test", "train") if command == "eval" else ("train", "test")
        indices = manifest[f"{side}_indices"]
        indices.append({
            "out-of-range": n_docs,
            "negative": -1,
            "duplicate": indices[0],
            "overlapping": manifest[f"{other}_indices"][0],
        }[fault])
        (out / "split.json").write_text(json.dumps(manifest), "utf-8")
        capsys.readouterr()
        extra = ["--k", "2"] if command == "crossval" else []
        assert main([command, *extra, "--out", str(out)]) == EXIT_DATA
        assert "split.json" in capsys.readouterr().err

    def test_model_and_tfidf_from_different_runs(self, labeled_csv, tmp_path, capsys):
        unigram, bigram = tmp_path / "unigram", tmp_path / "bigram"
        for out, ngram in ((unigram, "1,1"), (bigram, "1,2")):
            run_prepare(labeled_csv, out)
            main(["train", "--ngram", ngram, "--out", str(out)])
        (unigram / "tfidf.json").write_bytes((bigram / "tfidf.json").read_bytes())
        capsys.readouterr()
        assert main(["eval", "--out", str(unigram)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "model.json" in err and "tfidf.json" in err

    def test_model_feature_dim_is_checked_before_the_weights_are_allocated(
        self, labeled_csv, tmp_path, capsys
    ):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "model.json").read_text("utf-8"))
        data["feature_dim"] = 10**15  # three rows of it would need 24 PB
        (out / "model.json").write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{out / 'model.json'}: has {10**15} features but {out / 'tfidf.json'}" in err
        assert "not from the same train run" in err
        assert not (out / "eval_report.json").exists()

    def test_usage_errors_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["train", "--out", str(tmp_path), "--alpha", "-1"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["train", "--out", str(tmp_path), "--loss", "hinge"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["unknown-subcommand"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["prepare", "--input", "x.csv", "--out", "y", "--split", "1.5"])
        assert info.value.code == 2

    def test_bad_ngram_flag(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["train", "--out", str(tmp_path), "--ngram", "2,1"])
        assert info.value.code == 2


class TestEntryPoint:
    def test_module_help_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "sgdtext.cli", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "prepare" in result.stdout
        assert "gridsearch" in result.stdout
