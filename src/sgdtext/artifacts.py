"""Artifact files: atomic writes, the streaming writer of large JSON files, and the one reader."""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO


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


def write_json_rows(path: str | Path, head: dict, key: str, chunks: Iterable[str]) -> None:
    """Write json.dumps({**head, key: rows}, sort_keys=True, indent=1) to path, atomically.

    rows is a list, and key sorts after every key of head. chunks yields the
    rows' text as that dump lays it out, each row's lines indented by two
    spaces or more, the rows of a chunk joined by ",\n": one weight row of
    model.json (its two base64 strings) or a block of tfidf.json's vocabulary
    rows. Only head goes through json.dumps; each chunk is written as it
    arrives, so the text of the rows is never held whole.
    """
    with atomic_write(path) as fh:
        # Cut head's closing "\n}" so that key's list goes in as its last entry.
        fh.write(json.dumps(head, sort_keys=True, indent=1)[:-2] + f',\n "{key}": [')
        separator = "\n"
        for chunk in chunks:
            fh.write(separator)
            fh.write(chunk)
            separator = ",\n"
        fh.write("]\n}" if separator == "\n" else "\n ]\n}")


def read_json(path: str | Path, error: type[ValueError] = ValueError,
              parse: Callable[[object], object] = lambda value: value) -> object:
    """parse(value) for the value in the UTF-8 JSON file at path, after a byte order mark if any.

    An unreadable path raises the OSError that opening it gives, such as
    FileNotFoundError or IsADirectoryError. Content that is not UTF-8, not
    JSON or nested too deep to parse raises error, and so does parse raising
    error; both messages name the path.
    """
    try:
        value = json.loads(Path(path).read_text("utf-8-sig"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(value)
    except error as exc:
        raise error(f"{path}: {exc}") from exc
