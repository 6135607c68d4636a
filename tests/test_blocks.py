from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.blocks import Block, DocRole, Page, SourceDocument, flatten_text, load_document, normalize_ws
from qgen.errors import InputError


def test_load_nota_fixture_roundtrip(nota_doc):
    assert nota_doc.doc_id == "nota-mini"
    assert nota_doc.role is DocRole.KNOWLEDGE_SOURCE
    assert len(nota_doc.pages) == 2
    assert sum(len(page.blocks) for page in nota_doc.pages) == 12


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_document(tmp_path / "nope.blocks.json")


def _write_blocks(tmp_path, pages, doc_id="d", role="knowledge"):
    path = tmp_path / "doc.blocks.json"
    path.write_text(json.dumps({"doc_id": doc_id, "role": role, "pages": pages}), encoding="utf-8")
    return path


def _block(text="hello", bbox=(0, 0, 10, 10), font_size=11.0):
    return {"text": text, "bbox": list(bbox), "font_size": font_size}


def test_degenerate_bbox_rejected(tmp_path):
    path = _write_blocks(tmp_path, [{"page": 1, "blocks": [_block(bbox=(5, 5, 5, 9))]}])
    with pytest.raises(InputError, match="x0 < x1"):
        load_document(path)


def test_zero_blocks_is_empty_document(tmp_path):
    path = _write_blocks(tmp_path, [{"page": 1, "blocks": []}])
    with pytest.raises(InputError, match="document contains no blocks"):
        load_document(path)


def test_whitespace_only_text_rejected(tmp_path):
    path = _write_blocks(tmp_path, [{"page": 1, "blocks": [_block(text="   \t ")]}])
    with pytest.raises(InputError, match="non-whitespace"):
        load_document(path)


def test_non_increasing_pages_rejected(tmp_path):
    pages = [
        {"page": 2, "blocks": [_block()]},
        {"page": 2, "blocks": [_block()]},
    ]
    path = _write_blocks(tmp_path, pages)
    with pytest.raises(InputError, match="does not increase"):
        load_document(path)


def test_bad_role_value_rejected(tmp_path):
    path = _write_blocks(tmp_path, [{"page": 1, "blocks": [_block()]}], role="textbook")
    with pytest.raises(InputError, match="role"):
        load_document(path)


def test_role_mismatch_raises_wrong_role(tmp_path):
    path = _write_blocks(tmp_path, [{"page": 1, "blocks": [_block()]}], role="knowledge")
    with pytest.raises(InputError, match="expected role 'standards', file declares 'knowledge'"):
        load_document(path, DocRole.STANDARDS_BLUEPRINT)


def test_invalid_json_has_diagnostic(tmp_path):
    path = tmp_path / "broken.blocks.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError, match="invalid JSON"):
        load_document(path)


def test_bad_font_size_diagnostic_names_field(tmp_path):
    path = _write_blocks(tmp_path, [{"page": 1, "blocks": [_block(font_size=-2.0)]}])
    with pytest.raises(InputError, match=r"blocks\[0\]"):
        load_document(path)


def test_normalize_ws_collapses_runs_preserves_newlines():
    assert normalize_ws("a  \t b\n  c   d ") == "a b\nc d"


def test_normalize_ws_collapses_every_other_whitespace():
    assert normalize_ws("a\xa0\xa0 b\u2003c\r\nd\x0be\xa0") == "a b c\nd e"
    assert normalize_ws("satu " + "\xa0" * 30 + " dua") == "satu dua"


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("a\n\nb", "a\n\nb"),
        ("a\n\n\nb", "a\n\nb"),
        ("a\n" + "\n" * 30 + "b", "a\n\nb"),
        ("a\n \t\n  \n\nb\nc", "a\n\nb\nc"),
    ],
    ids=["one-blank-line", "two-blank-lines", "thirty-blank-lines", "blank-lines-holding-spaces"],
)
def test_normalize_ws_keeps_one_blank_line_at_most(text, expected):
    assert normalize_ws(text) == expected


def reference_normalize_ws(text: str) -> str:
    lines = [re.sub(r"[^\S\n]+", " ", line).strip() for line in text.split("\n")]
    return re.sub(r"\n{3,}", "\n\n", "\n".join(lines).strip("\n"))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(list(" \t\n\r\x0b\x85\xa0\u2003\u3000\xadab.")), max_size=40))
def test_normalize_ws_equals_line_by_line_reference(text):
    assert normalize_ws(text) == reference_normalize_ws(text)


def test_block_text_normalized_on_load(tmp_path):
    path = _write_blocks(tmp_path, [{"page": 1, "blocks": [_block(text="dua   kata\n baris  baru")]}])
    doc = load_document(path)
    assert next(doc.iter_blocks()).text == "dua kata\nbaris baru"


def test_flatten_joins_blocks_with_blank_lines():
    from tests.conftest import make_doc

    doc = make_doc(["satu", "dua", "tiga"])
    assert flatten_text(doc) == "satu\n\ndua\n\ntiga"


def test_block_invariants_direct():
    with pytest.raises(ValueError):
        Block(text="x", page=0, bbox=(0, 0, 1, 1), font_size=10)
    with pytest.raises(ValueError):
        Block(text="x", page=1, bbox=(0, 2, 1, 1), font_size=10)
    with pytest.raises(ValueError):
        Block(text="x", page=1, bbox=(0, 0, 1, 1), font_size=0)


def test_block_keeps_numbers_as_floats():
    block = Block(" x ", 1, [0, 0, 3, 2], 10)
    assert block.text == "x"
    assert block.bbox == (0.0, 0.0, 3.0, 2.0) and type(block.bbox) is tuple
    assert all(type(v) is float for v in block.bbox) and type(block.font_size) is float


def test_source_document_refuses_empty_document():
    with pytest.raises(ValueError, match="document contains no blocks"):
        SourceDocument("empty", DocRole.KNOWLEDGE_SOURCE, ())
    with pytest.raises(ValueError, match="document contains no blocks"):
        SourceDocument("empty", DocRole.KNOWLEDGE_SOURCE, (Page(1, ()),))


def test_page_refuses_a_block_from_another_page():
    with pytest.raises(ValueError, match=r"blocks\[1\] is on page 5, not page 1"):
        Page(1, (Block("x", 1, (0, 0, 1, 1), 10), Block("y", 5, (0, 0, 1, 1), 10)))
    assert Page(5, (Block("y", 5, (0, 0, 1, 1), 10),)).blocks[0].page == 5
