"""End-to-end tests of the command-line subcommands and exit codes."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import subprocess
import sys

import pytest

from sgdtext import evaluation, search, sgd
from sgdtext.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, _config_from_args, build_parser, main
from sgdtext.pipeline import PipelineConfig
from sgdtext.seeds import substream


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
        vocabulary = {gram for gram, _, _ in read_json(prepared / "tfidf.json")["vocabulary"]}
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
        # Both reach sgd.fit_stacked: compare's two arms in one stacked pass, crossval's
        # config through fit_multiclass.
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
        "model.json": "fa6a36b98a88b4ee73faa81de737b85ab7c267f4fb9be21798b28c92cf9ae032",
        "split.json": "79cb60d2fb30091825eba98d2c12c0e512ea9aa197b6e36c4c123381e5e57d85",
        "tfidf.json": "1de3db899d529b1eabce19ef8be7a5b162a0a5daf5c84d4305ac6a9ddee73233",
        "train_meta.json": "5c4a5d26bd2313bb96cfa1cc42a64a34a2bc1a7b4cab346168da5aa1a17264ef",
    }

    # The two large artifacts hashed as written, which pins their layout:
    # sorted keys and a one-space indent.
    RAW_DIGESTS = {
        "model.json": "513a17f32b0b5a4d777daac39a0427d0b347ec62f9ab4c69a57ca314c3bf5cc6",
        "tfidf.json": "131337c4fb2ca8edf0269585d86b23be45dff1c34622191badafe541d6fff152",
    }

    @staticmethod
    def digest(path) -> str:
        if path.suffix == ".json":
            data = strip_seconds(read_json(path))
            payload = (json.dumps(data, sort_keys=True, indent=2) + "\n").encode("utf-8")
        else:
            payload = path.read_bytes()
        return hashlib.sha256(payload).hexdigest()

    def run_all(self, signature_corpus, tmp_path):
        documents, labels = signature_corpus(n_classes=3, per_class=12)
        # Digits do not survive cleaning, so spell each class token with letters,
        # and keep half of the last class so --smote has a minority to grow.
        letters = str.maketrans("0123456789", "abcdefghij")
        rows = [
            f'{label},"{" ".join(doc).translate(letters)}"'
            for index, (doc, label) in enumerate(zip(documents, labels))
            if label != 3 or index % 2 == 0
        ]
        csv_path = tmp_path / "signature.csv"
        csv_path.write_text("label,text\n" + "\n".join(rows) + "\n", "utf-8")
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(self.GRID), "utf-8")
        out = tmp_path / "run"

        def run(*argv):
            assert main([*argv, "--seed", "7", "--out", str(out)]) == EXIT_OK

        run("prepare", "--input", str(csv_path))
        run("train", "--ngram", "1,2")
        run("eval", "--ngram", "1,2")
        run("crossval", "--smote", "--k", "3")
        run("gridsearch", "--grid", str(grid_path))
        run("compare", "--tuned-from", str(out / "grid_results.json"), "--k", "3")
        tuned_compare = self.digest(out / "compare.json"), self.digest(out / "compare.txt")
        run("compare", "--ngram", "1,2", "--alpha", "0.001", "--k", "3")
        digests = {p.name: self.digest(p) for p in sorted(out.iterdir())}
        digests["compare.json@tuned-from"], digests["compare.txt@tuned-from"] = tuned_compare
        return out, digests

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
        ],
        ids=["float-label", "negative-label", "bool-label", "string-tokens", "scalar-tokens",
             "list-row"],
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
        "train_meta.json": ["eval", "--loss", "svm"],
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
        data["weights"][0].append([-1, 0.5])
        (out / "model.json").write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        assert "feature index" in capsys.readouterr().err

    def test_model_with_a_non_finite_weight(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "model.json").read_text("utf-8"))
        data["weights"][0] = [[0, float("inf")]]
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
        ],
    )
    def test_vectorizer_with_an_out_of_range_value(
        self, labeled_csv, tmp_path, capsys, field, value, message
    ):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "tfidf.json").read_text("utf-8"))
        if field == "df":
            data["vocabulary"][0][2] = value
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
            ("index", float, "must be JSON integers"),
            ("df", lambda v: v + 0.5, "must be JSON integers"),
            ("ngram_range", lambda v: [float(b) for b in v], "n-gram bounds must be integers"),
            ("ngram_range", lambda v: [True, True], "n-gram bounds must be integers"),
            ("gram", lambda v: 12345, "n-grams must be JSON strings"),
            ("gram", lambda v: None, "n-grams must be JSON strings"),
        ],
        ids=["string-use-idf", "integer-smooth-idf", "float-n-docs", "bool-n-docs",
             "float-index", "float-df", "float-ngram-bounds", "bool-ngram-bounds",
             "number-gram", "null-gram"],
    )
    def test_vectorizer_with_a_wrongly_typed_value(
        self, labeled_csv, tmp_path, capsys, field, spoil, message
    ):
        out = tmp_path / "run"
        run_prepare(labeled_csv, out)
        main(["train", "--out", str(out)])
        data = json.loads((out / "tfidf.json").read_text("utf-8"))
        if field in ("gram", "index", "df"):
            position = ("gram", "index", "df").index(field)
            data["vocabulary"][0][position] = spoil(data["vocabulary"][0][position])
        else:
            data[field] = spoil(data[field])
        (out / "tfidf.json").write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and str(out / "tfidf.json") in err
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("float-classes", "classes and feature_dim must be JSON integers"),
            ("float-feature-dim", "classes and feature_dim must be JSON integers"),
            ("float-index", "weight row 0 has a non-integer feature index"),
            ("bool-index", "weight row 0 has a non-integer feature index"),
            ("string-intercept", "intercepts must be JSON numbers"),
            ("bool-intercept", "intercepts must be JSON numbers"),
            ("string-weight", "weight row 0 has a value that is not a JSON number"),
            ("bool-weight", "weight row 0 has a value that is not a JSON number"),
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
        elif fault.endswith("intercept"):
            data["intercepts"][0] = "0.5" if fault == "string-intercept" else True
        elif fault.endswith("weight"):
            data["weights"][0] = [[0, "1.5" if fault == "string-weight" else True]]
        else:
            data["weights"][0] = [[1.5 if fault == "float-index" else True, 0.5]]
        (out / "model.json").write_text(json.dumps(data), "utf-8")
        capsys.readouterr()
        assert main(["eval", "--out", str(out)]) == EXIT_DATA
        assert message in capsys.readouterr().err
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
