"""The one JSON codec of qgen: canonical JSON and JSONL through orjson.

Every JSON text qgen reads or writes passes through this module, so no
other module imports a JSON library. Keys are sorted and the text is UTF-8
with no spaces, except in the two-space indented form of
``dumps(obj, indent=True)``. Floats are written in their shortest
round-trip form; a magnitude below 1e-4 or at least 1e16 is written
``0.000025`` or ``1e16``, where Python's ``repr`` gives ``2.5e-05`` or
``1e+16``. A numpy array is written as the list of its elements, each
float64 in the same text as the Python float. A dataclass is written as
the map of its fields, enums by value and tuples as arrays. The reader is
strict: ``NaN``, ``Infinity``, a number beyond float64, a lone-surrogate
escape, invalid UTF-8 and a byte order mark raise ``ValueError``. orjson
would write a non-finite float as ``null``, so no caller may hand a writer
one, and it refuses an array that is not C-contiguous.

Every artifact write is atomic: the content goes to a temporary file in
the target's directory, which then replaces the target. A write that fails
partway leaves the previous file as it was and no temporary file behind.
"""

from __future__ import annotations

import dataclasses
import os
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import orjson

# The options of every write. orjson's own dataclass output ignores OPT_SORT_KEYS,
# so a dataclass passes through to ``fields_of`` and is written as a dict.
_WRITE = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_PASSTHROUGH_DATACLASS

# Field names per dataclass: a row then costs about half of what ``dataclasses.fields`` would.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def fields_of(obj) -> dict:
    """A dataclass instance's fields by name, as every writer writes it; ``TypeError`` for anything else."""
    names = _FIELD_NAMES.get(type(obj))
    if names is None:
        if not dataclasses.is_dataclass(type(obj)):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        names = _FIELD_NAMES[type(obj)] = tuple(f.name for f in dataclasses.fields(obj))
    return {name: getattr(obj, name) for name in names}


def dumps(obj, indent: bool = False) -> bytes:
    """``obj`` as canonical JSON: sorted keys, UTF-8, no spaces, or indented by two spaces if ``indent``."""
    return orjson.dumps(obj, default=fields_of, option=_WRITE | (orjson.OPT_INDENT_2 if indent else 0))


def encodable(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8, as every string an artifact holds must.

    A lone surrogate, which an undecodable command-line byte becomes, does not.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def loads(data: bytes | str):
    """The value of one JSON document; raises ``ValueError`` for text that is not strict JSON."""
    return orjson.loads(data)


def as_tuple(value):
    """``value`` as a tuple if it is a JSON array, else as it is, for a row's constructor to check."""
    return tuple(value) if isinstance(value, list) else value


def read_json(path: str | Path):
    """The value of the JSON document in the file at ``path``, read as ``loads`` reads it."""
    return loads(Path(path).read_bytes())


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


def write_jsonl(path: str | Path, rows: Iterable) -> int:
    """Write each row, a dict or a dataclass, as one canonical JSON object per line; returns the row count."""
    count = 0
    with _replacing(path) as fh:
        for row in rows:
            fh.write(orjson.dumps(row, default=fields_of, option=_WRITE | orjson.OPT_APPEND_NEWLINE))
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
    """Write ``obj`` as ``dumps(obj, indent=True)``, ending in a newline."""
    with _replacing(path) as fh:
        fh.write(dumps(obj, indent=True) + b"\n")
