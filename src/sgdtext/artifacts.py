"""Atomic artifact writes: a file is replaced whole or left as it was."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterator, TextIO


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open path for writing UTF-8 text so that it changes all at once.

    The block writes to a temporary file beside path, which replaces path
    when the block ends. If the block raises, path keeps its old content and
    the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
