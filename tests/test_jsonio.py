from __future__ import annotations

import numpy as np
import pytest

import qgen.jsonio
from qgen.chunking import Chunk, Strategy
from qgen.jsonio import read_jsonl, write_json, write_jsonl, write_text
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
