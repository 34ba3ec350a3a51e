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


def write_json_rows(path: str | Path, head: dict, lists: dict[str, Iterable[str]]) -> None:
    """Write json.dumps({**head, **rows}, sort_keys=True, indent=1) to path, atomically.

    rows[key] is a list for each key of lists, which head does not share, and
    lists[key] yields its text as the dump lays it out, in chunks: each item's
    lines indented by two spaces or more, a chunk's items joined by ",\n". A
    chunk is one weight row of model.json or a block of tfidf.json's grams or
    document frequencies. Only head's entries go through json.dumps, and each
    chunk is written as it arrives, so no list's text is ever held whole.
    """
    with atomic_write(path) as fh:
        separator = "{\n"
        for key in sorted({*head, *lists}):
            fh.write(separator)
            separator = ",\n"
            if key in head:  # the entry's lines in the whole dump, without its braces
                fh.write(json.dumps({key: head[key]}, indent=1)[2:-2])
                continue
            fh.write(f" {json.dumps(key)}: [")
            between = "\n"
            for chunk in lists[key]:
                fh.writelines((between, chunk))
                between = ",\n"
            fh.write("]" if between == "\n" else "\n ]")
        fh.write("\n}")


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
