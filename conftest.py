"""Fixtures shared by every test under the repo root: tests/ and bench/."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled step kernel into a session directory, not the user's cache.

    Set in the environment, so subprocesses share it: the CLI runs of tests/
    and the bench/run.py runs of bench/test_bench.py compile the kernel once
    per session. tests/test_kernel.py points each of its tests elsewhere.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield
