from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.chunking import Chunk, Strategy
from qgen.prompts import (
    MCQ_RESPONSE_SCHEMA,
    build_prompt_basic,
    build_prompt_qa,
    build_prompt_rag,
    build_prompt_structured,
)


def make_chunk(cid: str, text: str) -> Chunk:
    return Chunk(chunk_id=cid, doc_id="d", text=text, strategy=Strategy.STRUCTURE_AWARE)


def test_structured_bundle_contract():
    bundle = build_prompt_structured("Nombor Nisbah")
    assert "Nombor Nisbah" in bundle.user_text
    assert bundle.response_schema is not None
    for field in ("stem", "options", "answer_key", "explanation"):
        assert field in bundle.response_schema["properties"]


def test_structured_fingerprint_stable():
    a = build_prompt_structured("Nombor Nisbah")
    b = build_prompt_structured("Nombor Nisbah")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != build_prompt_structured("Integer").fingerprint()


def test_basic_bundle_requests_json_inline():
    bundle = build_prompt_basic("integer")
    assert "integer" in bundle.user_text
    assert "JSON" in bundle.user_text
    for field in ("stem", "options", "answer_key", "explanation"):
        assert f'"{field}"' in bundle.user_text
    assert bundle.response_schema is None


def test_basic_differs_from_structured_only_in_schema_and_phrasing():
    structured = build_prompt_structured("integer")
    basic = build_prompt_basic("integer")
    assert structured.system_text == basic.system_text
    assert structured.user_text != basic.user_text
    assert structured.response_schema == MCQ_RESPONSE_SCHEMA
    assert basic.response_schema is None


def test_rag_bundle_embeds_chunks_verbatim_in_order():
    chunks = [
        make_chunk("k:structure_aware:0001", "Contoh 7(a): Hitung -8 x (-2 + 3)."),
        make_chunk("k:structure_aware:0004", "Tertib operasi: tanda kurung dahulu."),
    ]
    bundle = build_prompt_rag("Nombor Nisbah", chunks)
    assert "Contoh 7(a)" in bundle.user_text
    for c in chunks:
        assert c.text in bundle.user_text
        assert f"[{c.chunk_id}]" in bundle.user_text
    first = bundle.user_text.index(chunks[0].text)
    second = bundle.user_text.index(chunks[1].text)
    assert first < second
    assert "berasaskan sepenuhnya" in bundle.user_text


def test_qa_bundle_contains_question_and_context():
    chunk = make_chunk("s:standard_split:0000", "1.1.2 Mengenal dan memerihalkan integer.")
    bundle = build_prompt_qa("Apakah integer?", [chunk])
    assert "Apakah integer?" in bundle.user_text
    assert chunk.text in bundle.user_text


@settings(max_examples=50, deadline=None)
@given(
    texts=st.lists(
        st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="[]"),
                min_size=1, max_size=60).filter(lambda t: t.strip()),
        min_size=1,
        max_size=5,
    )
)
def test_rag_prompt_contains_every_chunk_verbatim(texts):
    chunks = [make_chunk(f"c{i:02d}", t) for i, t in enumerate(texts)]
    bundle = build_prompt_rag("topik", chunks)
    for c in chunks:
        assert c.text in bundle.user_text


def test_rag_fingerprint_depends_on_context():
    c1 = [make_chunk("a", "teks pertama")]
    c2 = [make_chunk("a", "teks kedua")]
    assert build_prompt_rag("t", c1).fingerprint() != build_prompt_rag("t", c2).fingerprint()
    assert build_prompt_rag("t", c1).fingerprint() == build_prompt_rag("t", c1).fingerprint()
