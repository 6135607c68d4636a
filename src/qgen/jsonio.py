"""The one codec for workdir artifacts: canonical JSON and JSONL through orjson.

Every artifact the stages write or read passes through this module, so no
other module knows the codec. Keys are sorted and the text is UTF-8 with no
spaces, except in :func:`write_json`'s indented files. Floats are written
in their shortest round-trip form; a magnitude below 1e-4 or at least 1e16
is written ``0.000025`` or ``1e16``, where Python's ``repr`` gives
``2.5e-05`` or ``1e+16``. ``NaN`` and ``Infinity`` are not JSON: they are
refused when read, and orjson would write them as ``null``, so no caller
may hand a writer a non-finite float.

Every artifact write is atomic: the content goes to a temporary file in
the target's directory, which then replaces the target. A write that fails
partway leaves the previous file as it was and no temporary file behind.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import orjson


def dumps(obj) -> bytes:
    """``obj`` as canonical JSON: sorted keys, no spaces, UTF-8."""
    return orjson.dumps(obj, option=orjson.OPT_SORT_KEYS)


def loads(data: bytes):
    """The value of one JSON document; raises ``ValueError`` for text that is not JSON."""
    return orjson.loads(data)


@contextmanager
def _replacing(path: str | Path) -> Iterator[BinaryIO]:
    """Open a temporary file beside ``path``; it replaces ``path`` once the block succeeds.

    The temporary name ends in ``.tmp``, so the stages' ``*.jsonl`` and
    ``*.json`` globs never see it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("xb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """Write one canonical JSON object per line; returns the row count."""
    count = 0
    with _replacing(path) as fh:
        for row in rows:
            fh.write(orjson.dumps(row, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE))
            count += 1
    return count


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield one object per non-empty line; a bad line raises ``ValueError`` naming its number."""
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = loads(line)
            except orjson.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON: {exc.msg} at column {exc.colno}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"line {lineno}: expected an object")
            yield obj


def write_text(path: str | Path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as sorted JSON indented by two spaces, ending in a newline."""
    with _replacing(path) as fh:
        fh.write(orjson.dumps(obj, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE))
