from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.blocks import DocRole, flatten_text
from qgen.chunking import (
    Chunk,
    Strategy,
    _atom_starts,
    chunk_recursive,
    chunk_rpt_standards,
    chunk_structure_aware,
)
from qgen.errors import InputError
from tests.conftest import make_doc

# A separator-free token is a maximal non-whitespace run: sentence ends only
# count as separators when punctuation is followed by whitespace.
_SEP_FREE = r"\S+"


def assert_covers(chunks: list[Chunk], text: str):
    covered = set()
    for c in chunks:
        start, end = c.char_span
        assert c.text == text[start:end]
        covered.update(range(start, end))
    assert covered == set(range(len(text)))


def assert_size_bound(chunks: list[Chunk], max_chars: int):
    for c in chunks:
        if len(c.text) > max_chars:
            # Documented exception: a single separator-free token longer
            # than max_chars is emitted whole.
            tokens = re.findall(_SEP_FREE, c.text)
            assert any(len(t) > max_chars for t in tokens), (
                f"oversized chunk without oversize token: {c.text!r}"
            )


# --- recursive ---------------------------------------------------------------


def test_five_paragraphs_cover_everything():
    paragraphs = [f"Perenggan {i} mempunyai beberapa patah perkataan di dalamnya." for i in range(5)]
    doc = make_doc(paragraphs)
    text = flatten_text(doc)
    assert len(text) >= 250
    chunks = chunk_recursive(doc, max_chars=100, overlap=20)
    assert len(chunks) >= 3
    assert_covers(chunks, text)
    assert_size_bound(chunks, 100)


def test_short_text_single_chunk():
    doc = make_doc(["pendek sahaja"])
    chunks = chunk_recursive(doc, max_chars=100, overlap=20)
    assert len(chunks) == 1
    assert chunks[0].text == flatten_text(doc)
    assert chunks[0].char_span == (0, len(chunks[0].text))


def test_unsplittable_token_emitted_whole():
    long_token = "x" * 120
    doc = make_doc([f"awal {long_token} akhir"])
    chunks = chunk_recursive(doc, max_chars=40, overlap=10)
    assert_covers(chunks, flatten_text(doc))
    oversized = [c for c in chunks if len(c.text) > 40]
    assert len(oversized) == 1
    assert long_token in oversized[0].text


def test_consecutive_chunks_overlap_is_bounded():
    words = " ".join(f"kata{i}" for i in range(80))
    doc = make_doc([words])
    chunks = chunk_recursive(doc, max_chars=60, overlap=20)
    assert len(chunks) > 2
    for prev, cur in zip(chunks, chunks[1:]):
        overlap = prev.char_span[1] - cur.char_span[0]
        assert 0 <= overlap <= 20


def test_zero_overlap_spans_are_disjoint():
    words = " ".join(f"kata{i}" for i in range(50))
    doc = make_doc([words])
    chunks = chunk_recursive(doc, max_chars=60, overlap=0)
    for prev, cur in zip(chunks, chunks[1:]):
        assert cur.char_span[0] == prev.char_span[1]


def test_recursive_prefers_paragraph_boundaries():
    doc = make_doc(["perenggan pertama di sini", "perenggan kedua pula di sini"])
    text = flatten_text(doc)
    chunks = chunk_recursive(doc, max_chars=len(text) - 5, overlap=0)
    # The cut lands on the paragraph break, not mid-word.
    assert chunks[0].text.rstrip("\n").endswith("di sini")


def test_recursive_determinism():
    doc = make_doc(["abc def. ghi jkl mno?", "pqr stu vwx", "yz " * 30])
    a = chunk_recursive(doc, max_chars=30, overlap=8)
    b = chunk_recursive(doc, max_chars=30, overlap=8)
    assert a == b
    assert [c.chunk_id for c in a] == [f"doc:recursive:{i:04d}" for i in range(len(a))]


def test_recursive_chunk_order_preserves_text_order():
    doc = make_doc(["satu dua tiga empat lima " * 10])
    chunks = chunk_recursive(doc, max_chars=40, overlap=10)
    starts = [c.char_span[0] for c in chunks]
    ends = [c.char_span[1] for c in chunks]
    assert starts == sorted(starts)
    assert ends == sorted(ends)


@settings(max_examples=60, deadline=None)
@given(
    text=st.text(
        alphabet=st.sampled_from(list("ab .\n!k?")),
        min_size=1,
        max_size=400,
    ).filter(lambda t: t.strip()),
    max_chars=st.integers(min_value=4, max_value=60),
    overlap_frac=st.floats(min_value=0.0, max_value=0.9),
)
def test_recursive_coverage_property(text, max_chars, overlap_frac):
    doc = make_doc([text])
    flat = flatten_text(doc)
    overlap = int(max_chars * overlap_frac)
    chunks = chunk_recursive(doc, max_chars=max_chars, overlap=overlap)
    assert_covers(chunks, flat)
    assert_size_bound(chunks, max_chars)
    if max(map(len, re.findall(r"\s+", flat)), default=0) < max_chars:
        assert all(c.text.strip() for c in chunks)


@pytest.mark.parametrize(
    ("texts", "max_chars", "overlap"),
    [
        # A block of max_chars characters after one of max_chars - 1: the widest
        # separator cut after the first block leaves only the blank line between.
        (["a" * 279, "b" * 280], 280, 0),
        (["a" * 279, "b" * 280], 280, 60),
        # An overlap prefix leaves room for one character, and the next
        # piece is the blank line between the blocks.
        (["a bb a bb", "a bb a bb"], 4, 3),
        # A block holding a run of blank lines longer than max_chars.
        (["satu dua" + "\n" * 30 + "tiga empat"], 20, 5),
        # A block holding a run of no-break spaces longer than max_chars.
        (["satu " + "\xa0" * 30 + " dua"], 20, 5),
    ],
    ids=["near-limit-blocks-overlap-0", "near-limit-blocks-overlap-60", "blank-line-after-overlap",
         "blank-line-run-in-block", "no-break-space-run-in-block"],
)
def test_no_whitespace_only_chunk(texts, max_chars, overlap):
    doc = make_doc(texts)
    chunks = chunk_recursive(doc, max_chars=max_chars, overlap=overlap)
    assert all(c.text.strip() for c in chunks)
    assert_covers(chunks, flatten_text(doc))
    assert_size_bound(chunks, max_chars)


def reference_spans(text: str, max_chars: int, overlap: int) -> list[tuple[int, int]]:
    """The span loop as it was before bisect: every lookup rescans all bounds."""
    bounds = _atom_starts(text, max_chars)[1:] + [len(text)]
    spans: list[tuple[int, int]] = []
    cursor = 0
    prev_start = -1
    while cursor < len(text):
        start = cursor
        if spans and overlap > 0:
            back = [b for b in bounds if cursor - overlap <= b < cursor and b > prev_start]
            if back:
                start = min(back)
        if len(text) - start <= max_chars:
            spans.append((start, len(text)))
            break
        window_end = start + max_chars
        cuts = [b for b in bounds if cursor < b <= window_end]
        if cuts:
            spans.append((start, max(cuts)))
            prev_start = start
            cursor = max(cuts)
        else:
            nxt = min(b for b in bounds if b > cursor)
            spans.append((cursor, nxt))
            prev_start = cursor
            cursor = nxt
    return spans


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(
        st.text(alphabet=st.sampled_from(list("aaaab .\n!k?")), min_size=1, max_size=300).filter(lambda t: t.strip()),
        min_size=1,
        max_size=4,
    ),
    max_chars=st.integers(min_value=2, max_value=80),
    overlap_frac=st.floats(min_value=0.0, max_value=0.99),
)
def test_recursive_spans_match_reference_loop(texts, max_chars, overlap_frac):
    doc = make_doc(texts)
    flat = flatten_text(doc)
    overlap = int(max_chars * overlap_frac)
    chunks = chunk_recursive(doc, max_chars, overlap)
    expected = reference_spans(flat, max_chars, overlap)
    if all(flat[s:e].strip() for s, e in expected):
        assert [c.char_span for c in chunks] == expected
    else:
        # Where the old loop left whitespace alone, the new cut must not.
        assert_covers(chunks, flat)
        assert_size_bound(chunks, max_chars)
        if max(map(len, re.findall(r"\s+", flat))) < max_chars:
            assert all(c.text.strip() for c in chunks)


# --- structure-aware ---------------------------------------------------------


def test_headings_start_new_chunks():
    doc = make_doc(
        ["Tajuk Satu", "isi satu", "isi dua", "Tajuk Dua", "isi tiga"],
        font_sizes=[18, 11, 11, 18, 11],
    )
    chunks = chunk_structure_aware(doc, heading_font_delta=4, max_chars=5000)
    assert len(chunks) == 2
    assert chunks[0].source_blocks == (0, 1, 2)
    assert chunks[1].source_blocks == (3, 4)


def test_keyword_unit_never_split():
    unit = ["Contoh 7: mula pengiraan " + "a" * 80] + ["sambungan " + "b" * 80] * 3
    doc = make_doc(unit)
    total = sum(len(t) for t in unit)
    max_chars = int(total / 1.5)
    chunks = chunk_structure_aware(doc, heading_font_delta=4, max_chars=max_chars)
    assert len(chunks) == 1
    assert chunks[0].source_blocks == (0, 1, 2, 3)


def test_uniform_font_splits_on_budget():
    texts = [f"blok {i} " + "x" * 40 for i in range(6)]
    doc = make_doc(texts)
    # Two blocks fit in one budget, a third never does.
    per_block = len(texts[0])
    max_chars = per_block * 2 + 1
    chunks = chunk_structure_aware(doc, heading_font_delta=4, max_chars=max_chars)
    assert [c.source_blocks for c in chunks] == [(0, 1), (2, 3), (4, 5)]


def test_structure_blocks_partition(nota_doc):
    chunks = chunk_structure_aware(nota_doc)
    seen: list[int] = []
    for c in chunks:
        assert c.source_blocks
        seen.extend(c.source_blocks)
    assert seen == list(range(len(list(nota_doc.iter_blocks()))))


def test_keyword_starts_new_chunk_midstream():
    doc = make_doc(["pengenalan ringkas", "Latih Diri 2: cuba sendiri", "jawapan di sini"])
    chunks = chunk_structure_aware(doc, heading_font_delta=4, max_chars=5000)
    assert [c.source_blocks for c in chunks] == [(0,), (1, 2)]


def test_structure_determinism(nota_doc):
    assert chunk_structure_aware(nota_doc) == chunk_structure_aware(nota_doc)


# --- standards splitting -----------------------------------------------------


def test_rpt_fixture_codes(rpt_doc):
    pairs = chunk_rpt_standards(rpt_doc)
    codes = [s.code for s, _ in pairs]
    assert "1.2.1" in codes
    assert "1.2.6" in codes
    assert len(pairs) == 6
    by_code = {s.code: s for s, _ in pairs}
    assert by_code["1.2.6"].description.startswith("Menyelesaikan masalah yang melibatkan integer")


def test_rpt_chunk_includes_code_and_description(rpt_doc):
    pairs = chunk_rpt_standards(rpt_doc)
    for standard, chunk in pairs:
        assert chunk.text.startswith(standard.code)
        assert standard.description in chunk.text
        assert chunk.strategy is Strategy.STANDARD_SPLIT


def test_no_codes_raises():
    doc = make_doc(["tiada kod di sini", "masih tiada"], role=DocRole.STANDARDS_BLUEPRINT)
    with pytest.raises(InputError, match="no learning-standard code"):
        chunk_rpt_standards(doc)


def test_single_standard_spans_full_text():
    doc = make_doc(["1.1.1 Mengenal sesuatu yang penting."], role=DocRole.STANDARDS_BLUEPRINT)
    pairs = chunk_rpt_standards(doc)
    assert len(pairs) == 1
    standard, chunk = pairs[0]
    assert standard.code == "1.1.1"
    assert chunk.text == flatten_text(doc)


def test_duplicate_code_rejected():
    doc = make_doc(["1.1.1 Pertama.", "1.1.1 Kedua."], role=DocRole.STANDARDS_BLUEPRINT)
    with pytest.raises(InputError, match=r"standard code 1\.1\.1 appears more than once"):
        chunk_rpt_standards(doc)


def test_code_must_be_at_line_start():
    doc = make_doc(["lihat standard 9.9.9 di atas", "1.2.3 Yang sebenar."],
                   role=DocRole.STANDARDS_BLUEPRINT)
    pairs = chunk_rpt_standards(doc)
    assert [s.code for s, _ in pairs] == ["1.2.3"]
