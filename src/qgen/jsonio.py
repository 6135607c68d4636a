"""Deterministic JSON/JSONL helpers for run artifacts.

Every artifact write is atomic: the content goes to a temporary file in
the target's directory, which then replaces the target. A write that fails
partway leaves the previous file as it was and no temporary file behind.
"""

from __future__ import annotations

import json
import os
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import MalformedBlocksFile


def dumps_line(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


@contextmanager
def _replacing(path: str | Path) -> Iterator[TextIO]:
    """Open a temporary file beside ``path``; it replaces ``path`` once the block succeeds.

    The temporary name ends in ``.tmp``, so the stages' ``*.jsonl`` and
    ``*.json`` globs never see it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """Write one compact JSON object per line; returns the row count."""
    count = 0
    with _replacing(path) as fh:
        for row in rows:
            fh.write(dumps_line(row) + "\n")
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one object per non-empty line; bad lines carry their line number."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedBlocksFile(str(path), f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise MalformedBlocksFile(str(path), f"line {lineno}: expected an object")
            yield obj


def write_text(path: str | Path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def write_json(path: str | Path, obj) -> None:
    write_text(path, json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n")
