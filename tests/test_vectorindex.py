from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.chunking import Chunk, Strategy
from qgen.errors import PipelineStateError
from qgen.jsonio import dumps, loads
from qgen.vectorindex import (
    VectorIndex,
    build_index,
    load_index,
    save_index,
    similarities,
    top_k,
)
from tests.conftest import unit_rows


def make_chunk(cid: str, text: str = "teks") -> Chunk:
    return Chunk(chunk_id=cid, doc_id="d", text=text, strategy=Strategy.RECURSIVE)


def make_index(n: int, dim: int = 8, seed: int = 0, tag: str = "test") -> VectorIndex:
    rng = random.Random(seed)
    chunks = [make_chunk(f"c{i:03d}") for i in range(n)]
    vectors = [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(n)]
    return build_index(chunks, unit_rows(vectors), provider_tag=tag)


def brute_force_cosine(a, b) -> float:
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    return max(-1.0, min(1.0, dot / (na * nb)))


# --- similarities ------------------------------------------------------------


def cosine(a, b) -> float:
    """Cosine of ``a`` against a one-row index holding ``b``, both scaled to unit length first."""
    index = build_index([make_chunk("b")], unit_rows([b]), provider_tag="t")
    (score,) = similarities(index, unit_rows([a]))[0]
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
    with pytest.raises(PipelineStateError, match="index dimension is 4"):
        cosine(np.ones(3), np.ones(4))


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
    with pytest.raises(PipelineStateError, match="3 chunks but 2 vectors"):
        build_index([make_chunk("a"), make_chunk("b"), make_chunk("c")],
                    [np.ones(4), np.ones(4)], provider_tag="t")


def test_build_index_duplicate_id():
    with pytest.raises(PipelineStateError, match="duplicate chunk_id 'a'"):
        build_index([make_chunk("a"), make_chunk("a")], [np.ones(4), np.ones(4)], provider_tag="t")


def test_build_index_empty():
    with pytest.raises(PipelineStateError, match="an index needs at least one entry"):
        build_index([], [], provider_tag="t")


@pytest.mark.parametrize("ids, matrix, refusal", [
    (["a", "b", "a"], np.eye(3), r"duplicate chunk_id 'a'"),
    (["a", "b"], np.ones((2, 1)), r"vectors have shape \(2, 1\), expected \(2, d\) with d >= 2"),
    (["a", "b"], np.ones(2), r"vectors have shape \(2,\), expected \(2, d\) with d >= 2"),
    (["a", "b"], np.eye(3), r"2 chunks but 3 vectors"),
    ([], np.empty((0, 4)), r"an index needs at least one entry"),
    (["a", "b"], np.array([[1.0, 0.0], [0.0, 0.0]]), r"^entry 1 vector is not finite and unit-norm$"),
    (["a", "b"], np.array([[1.0, 0.0], [math.nan, 1.0]]), r"^entry 1 vector is not finite and unit-norm$"),
    (["a", "b"], np.array([[1.0, 0.0], [math.inf, 0.0]]), r"^entry 1 vector is not finite and unit-norm$"),
    (["a", "b"], np.array([[1.0, 0.0], [1e200, 1e200]]), r"^entry 1 vector is not finite and unit-norm$"),
    (["a", "b"], np.array([[1.0, 0.0], [0.6, 0.8 + 2e-6]]), r"^entry 1 vector is not finite and unit-norm$"),
])
def test_constructor_checks_its_own_invariants(ids, matrix, refusal):
    with pytest.raises(PipelineStateError, match=refusal):
        VectorIndex([make_chunk(cid) for cid in ids], matrix, provider_tag="t")


def test_index_matrix_is_read_only():
    index = make_index(2)
    with pytest.raises(ValueError):
        index.matrix[0, 0] = 5.0


# --- top_k ---------------------------------------------------------------------


def hits_of(index: VectorIndex, positions: np.ndarray, scores: np.ndarray) -> list[tuple[str, float]]:
    """One row of a top_k result as (chunk_id, score) pairs, best first."""
    return [(index.chunks[i].chunk_id, s) for i, s in zip(positions.tolist(), scores.tolist())]


def rank(index: VectorIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """top_k of one unit query vector."""
    positions, scores = top_k(index, similarities(index, np.asarray(query)[None]), k)
    return hits_of(index, positions[0], scores[0])


def test_self_similarity_rank_one():
    index = make_index(5, seed=3)
    query = np.array(index.matrix[2])
    hits = rank(index, query, k=1)
    assert len(hits) == 1
    assert hits[0][0] == "c002"
    assert hits[0][1] == pytest.approx(1.0)


def test_k_larger_than_index_saturates():
    index = make_index(4)
    positions, scores = top_k(index, similarities(index, unit_rows(np.ones((1, 8)))), 100)
    assert positions.shape == scores.shape == (1, 4)
    assert sorted(positions[0].tolist()) == [0, 1, 2, 3]


def test_top_k_matches_brute_force_oracle():
    rng = random.Random(42)
    index = make_index(50, dim=6, seed=9)
    query = unit_rows([rng.gauss(0, 1) for _ in range(6)])
    hits = rank(index, query, k=5)
    expected = sorted(
        ((brute_force_cosine(index.matrix[i], query), c.chunk_id) for i, c in enumerate(index.chunks)),
        key=lambda t: (-t[0], t[1]),
    )[:5]
    assert [cid for cid, _ in hits] == [cid for _, cid in expected]
    for (_, got), (score, _) in zip(hits, expected):
        assert got == pytest.approx(score, abs=1e-9)


def test_tie_break_by_chunk_id_ascending():
    chunks = [make_chunk("zz"), make_chunk("aa"), make_chunk("mm")]
    same = unit_rows([1.0, 1.0, 0.0])
    index = build_index(chunks, [same, same, same], provider_tag="t")
    hits = rank(index, same, k=3)
    assert [cid for cid, _ in hits] == ["aa", "mm", "zz"]


def test_query_dimension_checked():
    index = make_index(3, dim=8)
    with pytest.raises(PipelineStateError, match=r"queries have shape \(1, 5\), index dimension is 8"):
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
    query = unit_rows(query)
    hits = rank(index, query, k=k)
    expected = sorted(
        ((brute_force_cosine(index.matrix[i], query), c.chunk_id) for i, c in enumerate(index.chunks)),
        key=lambda t: (-t[0], t[1]),
    )[: min(k, size)]
    assert [cid for cid, _ in hits] == [cid for _, cid in expected]


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
    with pytest.raises(PipelineStateError, match="not a valid index file"):
        load_index(path)


def test_load_mismatched_dimension(tmp_path):
    index = make_index(3, dim=8)
    path = tmp_path / "idx.json"
    save_index(index, path)
    payload = json.loads(path.read_text())
    payload["dimension"] = 16
    path.write_text(json.dumps(payload))
    with pytest.raises(PipelineStateError, match="dimension|checksum"):
        load_index(path)


def test_load_checksum_mismatch(tmp_path):
    index = make_index(3)
    path = tmp_path / "idx.json"
    save_index(index, path)
    payload = json.loads(path.read_text())
    payload["entries"][0]["vector"][0] = 0.123456
    path.write_text(json.dumps(payload))
    with pytest.raises(PipelineStateError, match="checksum"):
        load_index(path)


def test_load_bad_version(tmp_path):
    index = make_index(2)
    path = tmp_path / "idx.json"
    save_index(index, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(PipelineStateError, match="format_version"):
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


def test_saved_vectors_are_the_bytes_of_their_float_lists(tmp_path):
    # Unit rows holding a negative zero, the smallest subnormal and a float
    # whose shortest text is 0.00001.
    matrix = np.array([[-0.0, 1.0, 5e-324], [1e-5, math.sqrt(1 - 1e-10), -0.0], [0.6, -0.8, 0.0]])
    chunks = [make_chunk(f"c{i}") for i in range(3)]
    entries = [{"chunk": loads(dumps(c)), "vector": v} for c, v in zip(chunks, matrix.tolist())]
    reference = orjson.dumps({
        "format_version": 2, "dimension": 3, "provider_tag": "t", "count": 3,
        "checksum": checksum_v2(entries), "entries": entries,
    }, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    assert b"-0.0," in reference and b"5e-324" in reference and b"0.00001," in reference
    for order in ("C", "F"):
        path = tmp_path / f"{order}.json"
        save_index(VectorIndex(chunks, np.array(matrix, order=order), "t"), path)
        assert path.read_bytes() == reference, order
        assert load_index(path).matrix.tobytes() == matrix.tobytes()


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
    with pytest.raises(PipelineStateError, match=BAD_VECTOR_REFUSAL[edit]):
        load_index(path)


def test_scaled_row_refused_alike_when_built_and_when_loaded(tmp_path):
    index = make_index(3)
    path = tmp_path / "idx.json"
    save_index(index, path)
    rewrite_with_valid_checksum(path, scale_entry_1)
    scaled = np.array(index.matrix)
    scaled[1] *= 2.0
    with pytest.raises(PipelineStateError) as built:
        build_index(index.chunks, scaled, provider_tag="t")
    with pytest.raises(PipelineStateError) as loaded:
        load_index(path)
    assert str(built.value) == "entry 1 vector is not finite and unit-norm"
    assert str(loaded.value) == f"{path}: {built.value}"


def test_build_index_keeps_a_copy_of_the_rows_it_is_given():
    rows = unit_rows(np.random.default_rng(3).standard_normal((6, 5)))
    given = rows.tobytes()
    index = build_index([make_chunk(f"c{i}") for i in range(6)], rows, provider_tag="t")
    assert index.matrix.tobytes() == given
    rows[0] = rows[1]
    assert index.matrix.tobytes() == given


def test_load_duplicate_chunk_id(tmp_path):
    path = tmp_path / "idx.json"
    save_index(make_index(3), path)

    def duplicate(payload):
        payload["entries"][2]["chunk"]["chunk_id"] = payload["entries"][0]["chunk"]["chunk_id"]

    rewrite_with_valid_checksum(path, duplicate)
    with pytest.raises(PipelineStateError, match=r"duplicate chunk_id 'c000'"):
        load_index(path)


def test_load_ragged_vectors(tmp_path):
    path = tmp_path / "idx.json"
    save_index(make_index(3, dim=8), path)

    def shorten(payload):
        payload["entries"][1]["vector"].pop()

    rewrite_with_valid_checksum(path, shorten)
    with pytest.raises(PipelineStateError, match=r"entry 1 vector dimension 7 != declared dimension 8"):
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
    with pytest.raises(PipelineStateError, match=r"unsupported format_version 1, expected 2"):
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
    q = unit_rows(np.random.default_rng(seed).standard_normal((queries, dim)))
    table = similarities(index, q)
    assert table.shape == (queries, size)
    for row, query in zip(table, q):
        assert row.tobytes() == similarities(index, query[None])[0].tobytes()
        # The scoring rule before batching: one matrix-vector product per query.
        assert row.tobytes() == np.clip(index.matrix @ query, -1.0, 1.0).tobytes()


def reference_top_k(index: VectorIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    scores = similarities(index, query[None])[0]
    ranked = sorted(range(len(index)), key=lambda i: (-scores[i], index.chunks[i].chunk_id))
    return [(index.chunks[i].chunk_id, float(scores[i])) for i in ranked[:k]]


def test_batched_top_k_equals_sorted_reference_with_ties_at_k():
    rng = np.random.default_rng(7)
    directions = unit_rows(rng.standard_normal((4, 6)))
    # Five copies of each direction under shuffled chunk ids: whole groups tie.
    ids = [f"c{i:02d}" for i in rng.permutation(20)]
    index = build_index([make_chunk(cid) for cid in ids], np.repeat(directions, 5, axis=0), provider_tag="t")
    queries = np.vstack([directions, unit_rows(rng.standard_normal((8, 6)))])
    straddled = 0
    for k in range(1, 23):
        positions, top_scores = top_k(index, similarities(index, queries), k)
        assert positions.shape == top_scores.shape == (len(queries), min(k, len(index)))
        for query, row, row_scores in zip(queries, positions, top_scores):
            hits = hits_of(index, row, row_scores)
            expected = reference_top_k(index, query, k)
            assert hits == expected
            assert hits == rank(index, query, k)
            scores = sorted(similarities(index, query[None])[0], reverse=True)
            straddled += k < len(index) and scores[k - 1] == scores[k]
    assert straddled > 100


def test_batched_top_k_of_no_queries_is_empty():
    index = make_index(3)
    for queries in (np.empty((0, 0)), np.empty((0, 8))):
        positions, scores = top_k(index, similarities(index, queries), 2)
        assert positions.shape == scores.shape == (0, 2)
    with pytest.raises(PipelineStateError, match=r"queries have shape \(2, 5\)"):
        similarities(index, np.ones((2, 5)))


def test_vector_api_takes_matrices_only():
    index = make_index(3, dim=8)
    with pytest.raises(PipelineStateError, match=r"queries have shape \(8,\)"):
        similarities(index, np.ones(8))
    with pytest.raises(PipelineStateError, match=r"queries have shape \(0, 5\)"):
        similarities(index, np.empty((0, 5)))
