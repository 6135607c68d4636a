from __future__ import annotations

import ast
import hashlib
import json
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgen.jsonio
from qgen.chunking import Chunk, Strategy
from qgen.jsonio import dumps, fields_of, loads, read_jsonl, write_json, write_jsonl, write_text
from qgen.prompts import TEMPLATE_VERSION, build_prompt_rag, build_prompt_structured
from qgen.vectorindex import build_index, load_index, save_index


def test_failed_row_stream_keeps_previous_file(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [{"a": 1}, {"a": 2}])
    before = path.read_bytes()
    seen_during_write = []

    def rows():
        yield {"a": 3}
        seen_during_write.append(sorted(p.name for p in tmp_path.iterdir()))
        yield {"a": 4}
        raise RuntimeError("upstream failed")

    with pytest.raises(RuntimeError, match="upstream failed"):
        write_jsonl(path, rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]
    # The temporary file sat beside the target, invisible to the stage globs.
    (names,) = seen_during_write
    assert len(names) == 2 and names[1] == "records.jsonl" and names[0].endswith(".tmp")
    assert [p.name for p in tmp_path.glob("*.jsonl")] == ["records.jsonl"]


def _index():
    chunks = [Chunk(chunk_id=f"c{i}", doc_id="d", text="t", strategy=Strategy.RECURSIVE) for i in range(3)]
    return build_index(chunks, np.eye(3), provider_tag="t")


WRITERS = {
    "write_jsonl": lambda path: write_jsonl(path, [{"b": 1}]),
    "write_json": lambda path: write_json(path, {"b": 1}),
    "write_text": lambda path: write_text(path, "neu\n"),
    "save_index": lambda path: save_index(_index(), path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_replace_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact.json"
    path.write_text("alt\n", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(qgen.jsonio.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](path)
    assert path.read_text(encoding="utf-8") == "alt\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writes_replace_previous_file(tmp_path, writer):
    path = tmp_path / "sub" / "artifact.json"
    path.parent.mkdir()
    path.write_text("alt\n" * 1000, encoding="utf-8")
    WRITERS[writer](path)
    assert [p.name for p in path.parent.iterdir()] == ["artifact.json"]
    if writer == "save_index":
        assert load_index(path) == _index()
    elif writer == "write_jsonl":
        assert list(read_jsonl(path)) == [{"b": 1}]
    else:
        assert path.read_text(encoding="utf-8") in ('{\n  "b": 1\n}\n', "neu\n")


_scalars = (
    st.none() | st.booleans() | st.text()
    | st.integers(min_value=-(2**63), max_value=2**64 - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)
_rows = st.lists(st.dictionaries(st.text(max_size=6), _values, max_size=5), max_size=6)


def _bits(value):
    """``value`` with every float replaced by its bit pattern, so -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, (list, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _floats(v)


@settings(max_examples=100, deadline=None)
@given(rows=_rows)
def test_jsonl_round_trip_is_exact_and_canonical(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
    assert write_jsonl(path, rows) == len(rows)
    assert [_bits(r) for r in read_jsonl(path)] == [_bits(r) for r in rows]
    # The bytes are the stdlib's canonical JSON, except the float text of
    # tiny and huge magnitudes: 0.000025 for 2.5e-05 and 1e16 for 1e+16.
    if all(f == 0 or 1e-4 <= abs(f) < 1e16 for f in _floats(rows)):
        canonical = "".join(
            json.dumps(r, sort_keys=True, ensure_ascii=False, separators=(",", ":")) + "\n" for r in rows
        )
        assert path.read_bytes() == canonical.encode("utf-8")


def test_float_text_of_tiny_and_huge_magnitudes(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"x": [2.5e-05, 1e16, -1e-300, 0.5]}])
    assert path.read_bytes() == b'{"x":[0.000025,1e16,-1e-300,0.5]}\n'
    assert [f for row in read_jsonl(path) for f in row["x"]] == [2.5e-05, 1e16, -1e-300, 0.5]


def test_float64_array_is_written_as_its_list(tmp_path):
    values = np.array([-0.0, 5e-324, 1e-5, 2.5e-05, 1e16, 0.1, -1.5, np.finfo(np.float64).max])
    row = {"x": values, "m": values.reshape(2, 4)}
    as_lists = {"x": values.tolist(), "m": values.reshape(2, 4).tolist()}
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [row])
    assert path.read_bytes() == dumps(as_lists) + b"\n"
    assert dumps(row) == dumps(as_lists)
    assert [_bits(r) for r in read_jsonl(path)] == [_bits(as_lists)]


class _Colour(Enum):
    RED = "merah"


@dataclass(frozen=True)
class _Inner:
    zeta: int
    alpha: str


@dataclass(frozen=True)
class _Row:
    name: str
    colour: _Colour
    span: tuple[int, int]
    missing: None
    inner: _Inner
    row: np.ndarray


def test_dataclass_is_written_as_its_sorted_fields(tmp_path):
    row = _Row("r", _Colour.RED, (3, 1), None, _Inner(2, "a"), np.array([0.5, -0.0, 2.5e-05]))
    by_hand = {"colour": "merah", "inner": {"alpha": "a", "zeta": 2}, "missing": None, "name": "r",
               "row": [0.5, -0.0, 2.5e-05], "span": [3, 1]}
    expected = (b'{"colour":"merah","inner":{"alpha":"a","zeta":2},"missing":null,'
                b'"name":"r","row":[0.5,-0.0,0.000025],"span":[3,1]}')
    assert dumps(row) == dumps(by_hand) == expected
    assert dumps([row], indent=True) == dumps([by_hand], indent=True)
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [row, by_hand])
    assert path.read_bytes() == 2 * (dumps(by_hand) + b"\n")
    write_json(path, row)
    assert path.read_bytes() == dumps(by_hand, indent=True) + b"\n"
    assert list(fields_of(row)) == ["name", "colour", "span", "missing", "inner", "row"]


@pytest.mark.parametrize("value", [{1, 2}, object(), _Inner, b"bytes"], ids=["set", "object", "class", "bytes"])
def test_value_the_codec_cannot_write_raises_type_error(tmp_path, value):
    with pytest.raises(TypeError):
        dumps({"x": value})
    with pytest.raises(TypeError):
        write_jsonl(tmp_path / "rows.jsonl", [{"x": value}])
    with pytest.raises(TypeError):
        fields_of(value)
    assert not (tmp_path / "rows.jsonl").exists()


@pytest.mark.parametrize("line, problem", [
    ("{broken json", "invalid JSON: unexpected character at column 2$"),
    ('{"score": NaN}', "invalid JSON"),
    ('{"score": -Infinity}', "invalid JSON"),
    ("[1, 2]", "expected an object"),
])
def test_damaged_line_is_named(tmp_path, line, problem):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"line 2: {problem}"):
        list(read_jsonl(path))


@pytest.mark.parametrize("text", [
    b"NaN", b"Infinity", b"-Infinity", b"[1e400]", b"1" + b"0" * 399,
    b'"\\ud800"', b'"\\udc00"', b'"caf\xe9"', b'\xef\xbb\xbf{}',
], ids=["nan", "infinity", "-infinity", "1e400", "400-digit-int", "high-surrogate", "low-surrogate",
        "invalid-utf8", "bom"])
def test_loads_refuses_text_that_is_not_strict_json(text):
    with pytest.raises(ValueError):
        loads(text)


def test_dumps_of_a_prompt_payload_is_the_stdlib_canonical_form():
    chunk = Chunk(chunk_id="c1", doc_id="d", text="Integer négatif\u2028 \x01 \"petik\" \\ garis\nbaru",
                  strategy=Strategy.RECURSIVE)
    for bundle in (build_prompt_structured("Nombor Nisbah"), build_prompt_rag("Nombor Nisbah", [chunk])):
        payload = {"system": bundle.system_text, "user": bundle.user_text,
                   "schema": bundle.response_schema, "version": TEMPLATE_VERSION}
        expected = json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        assert dumps(payload) == expected.encode("utf-8")
        assert bundle.fingerprint() == hashlib.sha256(expected.encode("utf-8")).hexdigest()


def test_only_jsonio_imports_orjson():
    """orjson and the stdlib json module are imported by ``jsonio`` alone."""
    src = Path(qgen.jsonio.__file__).parent
    importers = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            library = {name.split(".")[0] for name in names} & {"orjson", "json"}
            importers += [f"{path.relative_to(src).as_posix()}: {lib}" for lib in sorted(library)]
    assert importers == ["jsonio.py: orjson"]


def test_only_gen_outcome_defines_to_dict():
    """The writers encode a dataclass as its fields, and each row class's constructor reads them back.

    So no ``src/qgen`` class copies its fields out or in by hand, and only
    ``GenOutcome`` keeps ``to_dict`` and ``from_dict``: its row lays the
    request's fields flat and tags the result with its kind. No module
    imports ``dataclasses.asdict``.
    """
    src = Path(qgen.jsonio.__file__).parent
    definers, asdict_imports = [], []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                definers += [f"{path.name}: {node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef) and item.name in ("to_dict", "from_dict")]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                asdict_imports += [path.name for alias in node.names if alias.name == "asdict"]
            elif isinstance(node, ast.Attribute) and node.attr == "asdict":
                asdict_imports.append(path.name)
    assert definers == ["generate.py: GenOutcome.to_dict", "generate.py: GenOutcome.from_dict"]
    assert asdict_imports == []
