from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.chunking import Chunk, Strategy
from qgen.errors import (
    CorruptIndexFile,
    DimensionMismatch,
    DuplicateChunkId,
    EmptyIndex,
    LengthMismatch,
    ZeroVector,
)
from qgen.vectorindex import (
    VectorIndex,
    build_index,
    load_index,
    save_index,
    similarities,
    top_k,
)


def make_chunk(cid: str, text: str = "teks") -> Chunk:
    return Chunk(chunk_id=cid, doc_id="d", text=text, strategy=Strategy.RECURSIVE)


def make_index(n: int, dim: int = 8, seed: int = 0, tag: str = "test") -> VectorIndex:
    rng = random.Random(seed)
    chunks = [make_chunk(f"c{i:03d}") for i in range(n)]
    vectors = [np.array([rng.gauss(0, 1) for _ in range(dim)]) for _ in range(n)]
    return build_index(chunks, vectors, provider_tag=tag)


def brute_force_cosine(a, b) -> float:
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    return max(-1.0, min(1.0, dot / (na * nb)))


# --- similarities ------------------------------------------------------------


def cosine(a, b) -> float:
    """Cosine of ``a`` against a one-row index holding ``b``."""
    index = build_index([make_chunk("b")], [np.asarray(b, dtype=np.float64)], provider_tag="t")
    (score,) = similarities(index, np.asarray(a, dtype=np.float64)[None])[0]
    return float(score)


def test_cosine_identical_direction():
    assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_cosine_hand_computed():
    # dot = 32, norms sqrt(14) * sqrt(77)
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0, 6.0])
    assert cosine(a, b) == pytest.approx(0.974632, abs=1e-5)


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine(np.ones(3), np.ones(4))


def test_cosine_zero_vector():
    with pytest.raises(ZeroVector):
        cosine(np.zeros(3), np.ones(3))


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=12),
    other=st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=12),
)
def test_cosine_properties(values, other):
    dim = min(len(values), len(other))
    a = np.array(values[:dim])
    b = np.array(other[:dim])
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        return
    assert cosine(a, a) == pytest.approx(1.0)
    assert cosine(a, b) == pytest.approx(cosine(b, a))
    assert abs(cosine(a, b)) <= 1.0
    assert cosine(a, b) == pytest.approx(brute_force_cosine(a, b), abs=1e-9)


# --- build_index --------------------------------------------------------------


def test_build_index_holds_all_pairs():
    index = make_index(3)
    assert len(index) == 3
    assert index.dimension == 8
    for row in index.matrix:
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-9)


def test_build_index_length_mismatch():
    with pytest.raises(LengthMismatch):
        build_index([make_chunk("a"), make_chunk("b"), make_chunk("c")],
                    [np.ones(4), np.ones(4)], provider_tag="t")


def test_build_index_duplicate_id():
    with pytest.raises(DuplicateChunkId):
        build_index([make_chunk("a"), make_chunk("a")], [np.ones(4), np.ones(4)], provider_tag="t")


def test_build_index_empty():
    with pytest.raises(EmptyIndex):
        build_index([], [], provider_tag="t")


def test_index_matrix_is_read_only():
    index = make_index(2)
    with pytest.raises(ValueError):
        index.matrix[0, 0] = 5.0


# --- top_k ---------------------------------------------------------------------


def rank(index: VectorIndex, query: np.ndarray, k: int):
    """top_k of one query vector."""
    return top_k(index, similarities(index, np.asarray(query)[None]), k)[0]


def test_self_similarity_rank_one():
    index = make_index(5, seed=3)
    query = np.array(index.matrix[2])
    hits = rank(index, query, k=1)
    assert hits[0].chunk_id == "c002"
    assert hits[0].score == pytest.approx(1.0)
    assert hits[0].rank == 1


def test_k_larger_than_index_saturates():
    index = make_index(4)
    hits = rank(index, np.ones(8), k=100)
    assert len(hits) == 4
    assert [h.rank for h in hits] == [1, 2, 3, 4]


def test_top_k_matches_brute_force_oracle():
    rng = random.Random(42)
    index = make_index(50, dim=6, seed=9)
    query = np.array([rng.gauss(0, 1) for _ in range(6)])
    hits = rank(index, query, k=5)
    expected = sorted(
        ((brute_force_cosine(index.matrix[i], query), c.chunk_id) for i, c in enumerate(index.chunks)),
        key=lambda t: (-t[0], t[1]),
    )[:5]
    assert [h.chunk_id for h in hits] == [cid for _, cid in expected]
    for h, (score, _) in zip(hits, expected):
        assert h.score == pytest.approx(score, abs=1e-9)


def test_tie_break_by_chunk_id_ascending():
    chunks = [make_chunk("zz"), make_chunk("aa"), make_chunk("mm")]
    same = np.array([1.0, 1.0, 0.0])
    index = build_index(chunks, [same, same, same], provider_tag="t")
    hits = rank(index, np.array([1.0, 1.0, 0.0]), k=3)
    assert [h.chunk_id for h in hits] == ["aa", "mm", "zz"]


def test_query_scale_invariance():
    index = make_index(20, seed=5)
    query = np.array(index.matrix[7]) + 0.1
    base = rank(index, query, k=6)
    scaled = rank(index, 37.5 * query, k=6)
    assert [(h.chunk_id, h.rank) for h in base] == [(h.chunk_id, h.rank) for h in scaled]


def test_query_dimension_checked():
    index = make_index(3, dim=8)
    with pytest.raises(DimensionMismatch):
        rank(index, np.ones(5), k=1)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=30),
    dim=st.integers(min_value=2, max_value=10),
    k=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_top_k_equals_brute_force_property(size, dim, k, seed):
    rng = random.Random(seed)
    index = make_index(size, dim=dim, seed=seed)
    query = np.array([rng.gauss(0, 1) for _ in range(dim)])
    if np.linalg.norm(query) == 0:
        return
    hits = rank(index, query, k=k)
    expected = sorted(
        ((brute_force_cosine(index.matrix[i], query), c.chunk_id) for i, c in enumerate(index.chunks)),
        key=lambda t: (-t[0], t[1]),
    )[: min(k, size)]
    assert [h.chunk_id for h in hits] == [cid for _, cid in expected]


# --- persistence ---------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    index = make_index(3, tag="mock-bow-sha1-v1:d8")
    path = tmp_path / "idx.index.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded == index
    assert loaded.provider_tag == "mock-bow-sha1-v1:d8"


def test_save_is_deterministic(tmp_path):
    index = make_index(4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_index(index, p1)
    save_index(index, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_truncated_file(tmp_path):
    index = make_index(3)
    path = tmp_path / "idx.json"
    save_index(index, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptIndexFile):
        load_index(path)


def test_load_mismatched_dimension(tmp_path):
    index = make_index(3, dim=8)
    path = tmp_path / "idx.json"
    save_index(index, path)
    payload = json.loads(path.read_text())
    payload["dimension"] = 16
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptIndexFile, match="dimension|checksum"):
        load_index(path)


def test_load_checksum_mismatch(tmp_path):
    index = make_index(3)
    path = tmp_path / "idx.json"
    save_index(index, path)
    payload = json.loads(path.read_text())
    payload["entries"][0]["vector"][0] = 0.123456
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptIndexFile, match="checksum"):
        load_index(path)


def test_load_bad_version(tmp_path):
    index = make_index(2)
    path = tmp_path / "idx.json"
    save_index(index, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptIndexFile, match="format_version"):
        load_index(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_index(tmp_path / "missing.json")


def checksum_v2(entries: list[dict]) -> str:
    """Format 2 checksum: sha256 of the chunks' canonical JSON, then every
    vector float as little-endian float64, in entry order."""
    canonical = json.dumps([e["chunk"] for e in entries], ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    floats = np.array([x for e in entries for x in e["vector"]], dtype="<f8")
    return hashlib.sha256(canonical.encode("utf-8") + floats.tobytes()).hexdigest()


def rewrite_with_valid_checksum(path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    payload["checksum"] = checksum_v2(payload["entries"])
    path.write_text(json.dumps(payload))


def test_saved_checksum_is_format_2_definition(tmp_path):
    path = tmp_path / "idx.json"
    save_index(make_index(3), path)
    payload = json.loads(path.read_text())
    assert payload["format_version"] == 2
    assert payload["checksum"] == checksum_v2(payload["entries"])


def test_spaced_layout_loads_equal(tmp_path):
    # Earlier releases wrote the same object with spaces after separators.
    index = make_index(5, dim=16, seed=4)
    path = tmp_path / "idx.json"
    save_index(index, path)
    compact = path.read_bytes()
    payload = json.loads(compact)
    path.write_text(json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n", encoding="utf-8")
    assert path.read_bytes() != compact
    assert load_index(path) == index


def scale_entry_1(payload):
    payload["entries"][1]["vector"] = [2.0 * x for x in payload["entries"][1]["vector"]]


def nan_in_entry_1(payload):
    payload["entries"][1]["vector"][3] = math.nan


def inf_in_entry_1(payload):
    payload["entries"][1]["vector"][3] = math.inf


# json.dumps writes NaN and Infinity as literals, which are not JSON, so
# those files are refused when parsed, before any vector is read.
BAD_VECTOR_REFUSAL = {
    scale_entry_1: r"entry 1 vector is not finite and unit-norm",
    nan_in_entry_1: r"idx\.json: not a valid index file",
    inf_in_entry_1: r"idx\.json: not a valid index file",
}


@pytest.mark.parametrize("edit", [scale_entry_1, nan_in_entry_1, inf_in_entry_1])
def test_load_names_first_bad_vector(tmp_path, edit):
    path = tmp_path / "idx.json"
    save_index(make_index(3), path)
    rewrite_with_valid_checksum(path, edit)
    with pytest.raises(CorruptIndexFile, match=BAD_VECTOR_REFUSAL[edit]):
        load_index(path)


def test_load_duplicate_chunk_id(tmp_path):
    path = tmp_path / "idx.json"
    save_index(make_index(3), path)

    def duplicate(payload):
        payload["entries"][2]["chunk"]["chunk_id"] = payload["entries"][0]["chunk"]["chunk_id"]

    rewrite_with_valid_checksum(path, duplicate)
    with pytest.raises(CorruptIndexFile, match=r"duplicate chunk_id 'c000'"):
        load_index(path)


def test_load_ragged_vectors(tmp_path):
    path = tmp_path / "idx.json"
    save_index(make_index(3, dim=8), path)

    def shorten(payload):
        payload["entries"][1]["vector"].pop()

    rewrite_with_valid_checksum(path, shorten)
    with pytest.raises(CorruptIndexFile, match=r"entry 1 vector dimension 7 != declared dimension 8"):
        load_index(path)


def test_load_refuses_format_version_1(tmp_path):
    path = tmp_path / "idx.json"
    save_index(make_index(3), path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 1
    # The version 1 checksum covered the canonical JSON of the entries.
    canonical = json.dumps(payload["entries"], ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    payload["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptIndexFile, match=r"unsupported format_version 1, expected 2"):
        load_index(path)


# --- batched queries ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=40),
    dim=st.integers(min_value=2, max_value=70),
    queries=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_batched_similarities_rows_equal_single_query_calls(size, dim, queries, seed):
    index = make_index(size, dim=dim, seed=seed)
    q = np.random.default_rng(seed).standard_normal((queries, dim)) * 3.0
    table = similarities(index, q)
    assert table.shape == (queries, size)
    for row, query in zip(table, q):
        assert row.tobytes() == similarities(index, query[None])[0].tobytes()
        # The scoring rule before batching: one matrix-vector product per query.
        unit = query / float(np.linalg.norm(query))
        assert row.tobytes() == np.clip(index.matrix @ unit, -1.0, 1.0).tobytes()


def reference_top_k(index: VectorIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    scores = similarities(index, query[None])[0]
    ranked = sorted(range(len(index)), key=lambda i: (-scores[i], index.chunks[i].chunk_id))
    return [(index.chunks[i].chunk_id, float(scores[i])) for i in ranked[:k]]


def test_batched_top_k_equals_sorted_reference_with_ties_at_k():
    rng = np.random.default_rng(7)
    directions = rng.standard_normal((4, 6))
    # Five copies of each direction under shuffled chunk ids: whole groups tie.
    ids = [f"c{i:02d}" for i in rng.permutation(20)]
    index = build_index([make_chunk(cid) for cid in ids], np.repeat(directions, 5, axis=0), provider_tag="t")
    queries = np.vstack([directions, rng.standard_normal((8, 6))])
    straddled = 0
    for k in range(1, 23):
        batched = top_k(index, similarities(index, queries), k)
        assert len(batched) == len(queries)
        for query, hits in zip(queries, batched):
            expected = reference_top_k(index, query, k)
            assert [(h.chunk_id, h.score) for h in hits] == expected
            assert [h.rank for h in hits] == list(range(1, len(expected) + 1))
            assert hits == rank(index, query, k)
            scores = sorted(similarities(index, query[None])[0], reverse=True)
            straddled += k < len(index) and scores[k - 1] == scores[k]
    assert straddled > 100


def test_batched_top_k_of_no_queries_is_empty():
    index = make_index(3)
    assert top_k(index, similarities(index, np.empty((0, 0))), 2) == []
    assert top_k(index, similarities(index, np.empty((0, 8))), 2) == []
    with pytest.raises(DimensionMismatch):
        similarities(index, np.ones((2, 5)))


def test_vector_api_takes_matrices_only():
    index = make_index(3, dim=8)
    with pytest.raises(DimensionMismatch):
        similarities(index, np.ones(8))
    with pytest.raises(DimensionMismatch):
        similarities(index, np.empty((0, 5)))
    with pytest.raises(LengthMismatch):
        top_k(index, np.ones(3), 1)
    with pytest.raises(LengthMismatch):
        top_k(index, np.ones((2, 4)), 1)
