"""Tests of the compiled kernel's build, binding, fallbacks and decide.

Every way the kernel can fail to load leaves both numpy loops, the steps
and decision's products, which must give the same bytes, exit codes and
output as a run with the kernel.
"""

from __future__ import annotations

import ctypes
import fnmatch
import re
import shutil
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sgdtext
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdtext import sgd
from sgdtext.cli import EXIT_OK, main
from sgdtext.features import SparseRows
from sgdtext.sgd import LinearModel, decision

SOURCE = Path(sgdtext.__file__).with_name("_sgd_kernel.c")
HAS_CC = shutil.which("cc") is not None
try:  # numpy 2's extension module; the kernel binds numpy's ddot and dgemv only there
    BLAS = ctypes.CDLL(np._core._multiarray_umath.__file__)
    HAS_BLAS = all(
        any(hasattr(BLAS, name) for name in symbols)
        for symbols in (sgd._DDOT_SYMBOLS, sgd._DGEMV_SYMBOLS)
    )
except AttributeError:
    HAS_BLAS = False

needs_build = pytest.mark.skipif(
    not (HAS_CC and HAS_BLAS), reason="needs a cc on PATH and a ddot and dgemv in numpy's BLAS"
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


def reversed_dgemv():
    """A column-major, untransposed dgemv that sums each row from its last column to its first."""

    @ctypes.CFUNCTYPE(
        None, ctypes.c_int, ctypes.c_int, ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_int64,
    )
    def gemv(order, trans, m, n, alpha, a, lda, x, incx, beta, y, incy):
        double = ctypes.POINTER(ctypes.c_double)
        block = np.ctypeslib.as_array(ctypes.cast(a, double), (n, lda))
        xs = np.ctypeslib.as_array(ctypes.cast(x, double), (n,)).tolist()
        ys = np.ctypeslib.as_array(ctypes.cast(y, double), (m,))
        for i in range(m):
            total = 0.0
            for j in reversed(range(n)):
                total += float(block[j, i]) * xs[j]
            ys[i] = total

    return gemv


def patch_blas(monkeypatch, symbols, function):
    """Make sgd._blas give function's address for symbols, and numpy's for the rest."""
    blas = sgd._blas
    address = ctypes.cast(function, ctypes.c_void_p).value
    monkeypatch.setattr(sgd, "_blas", lambda wanted: address if wanted == symbols else blas(wanted))


class TestKernelLoads:
    @needs_build
    def test_the_kernel_builds_binds_and_is_cached(self, fresh_cache, numpy_run):
        # Loaded directly, so a failure raises here instead of falling back.
        kernel = sgd._load_kernel()
        assert callable(kernel.steps) and callable(kernel.decide)
        [built] = fresh_cache.iterdir()
        assert re.fullmatch(r"kernel-[0-9a-f]{64}\.so", built.name)
        run, reference = numpy_run
        assert run() == reference
        assert isinstance(sgd._kernel, sgd._Kernel)  # the fit above loaded it through the handle

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
        assert errors == [] and len(kernels) == 2
        assert all(isinstance(kernel, sgd._Kernel) for kernel in kernels)
        [built] = fresh_cache.iterdir()
        assert built.suffix == ".so"
        assert ctypes.CDLL(str(built)).fit_rows is not None
        assert ctypes.CDLL(str(built)).decide is not None

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

    def test_importing_the_cli_loads_no_kernel(self, tmp_path):
        # The kernel loads on the first fit or decision, never at import, which setup_s times.
        src = str(Path(sgdtext.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "XDG_CACHE_HOME": str(tmp_path / "cache")}
        code = "import sgdtext.cli\nfrom sgdtext import sgd\nprint(repr(sgd._kernel))"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "None\n"
        assert not (tmp_path / "cache").exists()


class TestFallbacks:
    """Each failure leaves both numpy loops: the same bytes and output, exit 0."""

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

    def test_a_blas_without_dgemv(self, fresh_cache, numpy_run, monkeypatch):
        monkeypatch.setattr(sgd, "_DGEMV_SYMBOLS", ("no_such_dgemv64_",))
        run, reference = numpy_run
        assert run() == reference
        assert sgd._kernel is False

    @needs_build
    def test_a_ddot_that_differs_from_matmul(self, fresh_cache, numpy_run, monkeypatch):
        dot = sequential_ddot()
        patch_blas(monkeypatch, sgd._DDOT_SYMBOLS, dot)
        run, reference = numpy_run
        assert run() == reference
        assert sgd._kernel is False

    @needs_build
    def test_a_dgemv_that_differs_from_matmul(self, fresh_cache, numpy_run, monkeypatch):
        gemv = reversed_dgemv()
        patch_blas(monkeypatch, sgd._DGEMV_SYMBOLS, gemv)
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
        assert isinstance(sgd._kernel, sgd._Kernel)
        assert blocker.read_text("utf-8") == ""


def unchecked_rows(lengths, indices, values) -> SparseRows:
    """A batch of rows as given, without SparseRows' checks, so that a value may be -0.0."""
    X = SparseRows.__new__(SparseRows)
    X.indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    X.indices, X.values = np.asarray(indices, dtype=np.int64), np.asarray(values)
    return X


@st.composite
def decision_problems(draw):
    """A model of 2 to 7 classes and rows of 0, 1, 2 or more entries, with -0.0 among both."""
    K, d = draw(st.integers(2, 7)), draw(st.integers(2, 300))
    lengths = draw(st.lists(
        st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, d)), min_size=1, max_size=12
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = [np.sort(rng.choice(d, size=n, replace=False)) for n in lengths]
    values = rng.standard_normal(sum(lengths))
    weights = rng.standard_normal((K, d)) * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    for array in (values, weights.reshape(-1)):  # -0.0 at a drawn share of the entries
        array[rng.random(array.size) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -0.0
    model = LinearModel(weights=weights, intercepts=rng.standard_normal(K), classes=list(range(K)))
    return model, unchecked_rows(lengths, np.concatenate(indices), values)


@needs_build
class TestCompiledDecision:
    """decision through the kernel's decide, against the numpy loop it replaces."""

    @pytest.fixture(scope="class")
    def kernel(self):
        if not (kernel := sgd._load_kernel()):
            pytest.skip("the kernel's probes fail here")
        return kernel

    @settings(max_examples=200, deadline=None)
    @given(problem=decision_problems())
    def test_decide_equals_the_numpy_loop_byte_for_byte(self, kernel, problem):
        model, X = problem
        weights = model.weights
        assert kernel.decide(weights, X).tobytes() == sgd._numpy_decision(weights, X).tobytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sgd, "_kernel", kernel)
            compiled = decision(model, X)
            patch.setattr(sgd, "_kernel", False)
            assert compiled.tobytes() == decision(model, X).tobytes()

    def test_a_model_of_one_class_keeps_the_numpy_loop(self, kernel, monkeypatch):
        # matmul takes ddot, not dgemv, for one weight row.
        model = LinearModel(weights=np.array([[1.5, -2.0, 0.25]]), intercepts=np.array([0.5]),
                            classes=[4])
        X = unchecked_rows([0, 1, 2, 3], [2, 0, 1, 0, 1, 2], [3.0, 1.0, 2.0, 0.1, 0.2, 0.3])
        loop, entered = sgd._numpy_decision, []
        monkeypatch.setattr(sgd, "_kernel", kernel)
        monkeypatch.setattr(sgd, "_numpy_decision", lambda *args: entered.append(1) or loop(*args))
        assert decision(model, X).tobytes() == (loop(model.weights, X) + 0.5).tobytes()
        assert entered == [1]

    def test_no_numpy_loop_runs_while_the_kernel_is_loaded(self, kernel, numpy_run, monkeypatch):
        entered = []
        for name in ("_numpy_steps", "_numpy_decision"):
            loop = getattr(sgd, name)
            monkeypatch.setattr(
                sgd, name, lambda *args, name=name, loop=loop: entered.append(name) or loop(*args)
            )
        run, reference = numpy_run
        monkeypatch.setattr(sgd, "_kernel", kernel)
        assert run() == reference
        assert entered == []
        monkeypatch.setattr(sgd, "_kernel", False)
        assert run() == reference
        assert set(entered) == {"_numpy_steps", "_numpy_decision"}
