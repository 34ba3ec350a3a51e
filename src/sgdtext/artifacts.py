"""Artifact files: atomic writes, and the one reader of JSON files."""

from __future__ import annotations

import contextlib
import json
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


def read_json(path: str | Path, error: type[ValueError] = ValueError) -> object:
    """The value in the UTF-8 JSON file at path.

    An unreadable path raises the OSError that opening it gives, such as
    FileNotFoundError or IsADirectoryError; content that is not UTF-8, not
    JSON or nested too deep to parse raises error. Both messages name the path.
    """
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path} is not valid JSON: {exc}") from exc
