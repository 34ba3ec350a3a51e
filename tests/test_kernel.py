"""Tests of the compiled step kernel's build, binding and fallbacks.

Every way the kernel can fail to load leaves the numpy loop, which must
give the same bytes, exit codes and output as a run with the kernel.
"""

from __future__ import annotations

import ctypes
import fnmatch
import re
import shutil
import subprocess
import threading
from pathlib import Path

import numpy as np
import pytest

import sgdtext
from sgdtext import sgd
from sgdtext.cli import EXIT_OK, main

SOURCE = Path(sgdtext.__file__).with_name("_sgd_kernel.c")
HAS_CC = shutil.which("cc") is not None
try:  # numpy 2's extension module; the kernel binds numpy's ddot only there
    BLAS = ctypes.CDLL(np._core._multiarray_umath.__file__)
    HAS_DDOT = any(hasattr(BLAS, name) for name in sgd._DDOT_SYMBOLS)
except AttributeError:
    HAS_DDOT = False

needs_build = pytest.mark.skipif(
    not (HAS_CC and HAS_DDOT), reason="needs a cc on PATH and a ddot in numpy's BLAS"
)


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache, and a handle that loads again on the next fit."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(sgd, "_kernel", None)
    return cache / "sgdtext"


@pytest.fixture
def numpy_run(labeled_csv, tmp_path, capsys):
    """A prepared corpus, and run(), which trains and evaluates on it.

    run() returns model.json's bytes and what the two commands printed on
    stdout and stderr. The fixture returns (run, the result of run() with
    the numpy loop), the reference the other runs are held to.
    """
    out = tmp_path / "run"
    assert main(["prepare", "--input", str(labeled_csv), "--out", str(out), "--seed", "3"]) == 0
    capsys.readouterr()

    def run():
        for command in ("train", "eval"):
            argv = [command, "--loss", "logreg", "--ngram", "1,2", "--out", str(out)]
            assert main(argv) == EXIT_OK
        printed = capsys.readouterr()
        return (out / "model.json").read_bytes(), printed.out, printed.err

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sgd, "_kernel", False)
        reference = run()
    return run, reference


def sequential_ddot():
    """A ddot-shaped C function pointer that sums in order: not the ddot numpy's matmul calls."""

    @ctypes.CFUNCTYPE(
        ctypes.c_double, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
        ctypes.c_int64,
    )
    def dot(n, x, incx, y, incy):
        xs = np.ctypeslib.as_array(ctypes.cast(x, ctypes.POINTER(ctypes.c_double)), (n,))
        ys = np.ctypeslib.as_array(ctypes.cast(y, ctypes.POINTER(ctypes.c_double)), (n,))
        total = 0.0
        for a, b in zip(xs.tolist(), ys.tolist()):
            total += a * b
        return total

    return dot


class TestKernelLoads:
    @needs_build
    def test_the_kernel_builds_binds_and_is_cached(self, fresh_cache, numpy_run):
        # Loaded directly, so a failure raises here instead of falling back.
        assert callable(sgd._load_kernel())
        [built] = fresh_cache.iterdir()
        assert re.fullmatch(r"kernel-[0-9a-f]{64}\.so", built.name)
        run, reference = numpy_run
        assert run() == reference
        assert callable(sgd._kernel)  # the fit above loaded it through the handle

    @needs_build
    def test_racing_builds_leave_one_loadable_file(self, fresh_cache, monkeypatch):
        # Both builds wait for each other inside the compiler call, so they overlap.
        barrier, compile_ = threading.Barrier(2, timeout=60), subprocess.run

        def racing(*args, **kwargs):
            barrier.wait()
            return compile_(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", racing)
        kernels, errors = [], []

        def load():
            try:
                kernels.append(sgd._load_kernel())
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=load) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == [] and len(kernels) == 2 and all(map(callable, kernels))
        [built] = fresh_cache.iterdir()
        assert built.suffix == ".so"
        assert ctypes.CDLL(str(built)).fit_rows is not None

    @pytest.mark.skipif(not HAS_CC, reason="needs a cc on PATH")
    def test_the_source_compiles_without_warnings(self, tmp_path):
        flags = ("-O2", "-Wall", "-Wextra", "-Werror", "-ffp-contract=off", "-shared", "-fPIC")
        built = subprocess.run(
            ["cc", *flags, "-o", str(tmp_path / "kernel.so"), str(SOURCE), "-lm"],
            capture_output=True, text=True,
        )
        assert built.returncode == 0, built.stderr
        assert built.stderr == ""

    def test_the_source_ships_with_the_package(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(sgdtext.__file__).parents[2] / "pyproject.toml"
        package_data = tomllib.loads(pyproject.read_text("utf-8"))["tool"]["setuptools"][
            "package-data"
        ]["sgdtext"]
        assert any(fnmatch.fnmatch(SOURCE.name, pattern) for pattern in package_data)


class TestFallbacks:
    """Each failure leaves the numpy loop: the same bytes and output, exit 0."""

    @pytest.mark.parametrize(
        "build",
        [("/nonexistent/bin/cc", *sgd._BUILD[1:]), ("false", *sgd._BUILD[1:])],
        ids=["compiler-missing", "compiler-fails"],
    )
    def test_a_build_that_fails(self, fresh_cache, numpy_run, monkeypatch, build):
        monkeypatch.setattr(sgd, "_BUILD", build)
        run, reference = numpy_run
        assert run() == reference
        assert sgd._kernel is False
        assert not fresh_cache.exists() or not any(fresh_cache.iterdir())

    def test_a_blas_without_ddot(self, fresh_cache, numpy_run, monkeypatch):
        monkeypatch.setattr(sgd, "_DDOT_SYMBOLS", ("no_such_ddot64_",))
        run, reference = numpy_run
        assert run() == reference
        assert sgd._kernel is False

    @needs_build
    def test_a_ddot_that_differs_from_matmul(self, fresh_cache, numpy_run, monkeypatch):
        dot = sequential_ddot()
        monkeypatch.setattr(sgd, "_blas_ddot", lambda: ctypes.cast(dot, ctypes.c_void_p).value)
        run, reference = numpy_run
        assert run() == reference
        assert sgd._kernel is False

    @needs_build
    def test_an_unwritable_cache_builds_for_the_process_alone(
        self, tmp_path, numpy_run, monkeypatch
    ):
        # A cache path under a regular file cannot be created, even by root.
        blocker = tmp_path / "blocker"
        blocker.write_text("", "utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
        monkeypatch.setattr(sgd, "_kernel", None)
        run, reference = numpy_run
        assert run() == reference
        assert callable(sgd._kernel)
        assert blocker.read_text("utf-8") == ""
