"""Tiny-size self-test of the benchmark: python -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import synth  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_corpus_is_seeded(tmp_path):
    spec = synth.CorpusSpec(n_docs=300, prior=(0.5, 0.3, 0.2))
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    for path, seed in zip(paths, (5, 5, 6)):
        synth.write_csv(synth.generate_rows(spec, seed), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    rows = synth.generate_rows(spec, 5)
    dropped = [t for _, t in rows if t in synth.NULL_TEXTS or t.replace(" ", "").isdigit()]
    assert len(rows) == 302 and len(dropped) == 2


def test_reference_seconds_cancel_host_speed():
    host = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_KERNEL_S
    # Ten samples a second; the host runs at half speed from t = 5 s on.
    host.starts = [i / 10 for i in range(100)]
    host.durations = [ref] * 50 + [2 * ref] * 50
    # Twenty kernel runs fall inside each two-second interval.
    assert host.reference_seconds(1.0, 3.0) == pytest.approx(2.0 - 20 * ref)
    assert host.reference_seconds(6.0, 8.0) == pytest.approx((2.0 - 20 * 2 * ref) / 2)
    assert host.reference_seconds(4.0, 6.0) == pytest.approx(1.0 - 10 * ref + (1.0 - 10 * 2 * ref) / 2)
    # Before the first sample and after the last, the nearest sample's speed holds.
    assert host.reference_seconds(-1.0, 0.0) == pytest.approx(1.0)
    assert host.reference_seconds(10.0, 12.0) == pytest.approx(1.0)
    assert hostspeed.HostSpeed().reference_seconds(1.0, 1.5) == 0.5


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_metric(workload):
    done = _run(ROOT, workload, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    if workload == "grid":
        assert "features.fit distinct in gridsearch: 48/288" in done.stdout


def test_untraced_run_reports_every_end_to_end_metric():
    done = _run(ROOT, "smote", 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "flow", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
