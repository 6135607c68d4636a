"""Flat exact-search vector index over chunks with cosine top-k queries.

Corpora here are at most a few thousand chunks, so exhaustive search is
cheap and keeps retrieval quality assumptions exact. Vectors are normalized
at insertion, reducing cosine similarity to a dot product.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chunking import Chunk
from .embedding import normalize, stack_vectors
from .errors import (
    CorruptIndexFile,
    DimensionMismatch,
    DuplicateChunkId,
    EmptyIndex,
    LengthMismatch,
)
from .jsonio import write_text

INDEX_FORMAT_VERSION = 2


@dataclass(frozen=True)
class ScoredHit:
    chunk_id: str
    score: float
    rank: int


class VectorIndex:
    """Immutable pairing of chunks with unit-norm embedding vectors."""

    def __init__(self, chunks: list[Chunk], matrix: np.ndarray, provider_tag: str):
        self.chunks = list(chunks)
        self.matrix = matrix
        self.provider_tag = provider_tag
        self._by_id = {c.chunk_id: i for i, c in enumerate(self.chunks)}
        # Each row's position in chunk_id order: top_k's tie-break key.
        by_id_order = sorted(range(len(self.chunks)), key=lambda i: self.chunks[i].chunk_id)
        self._id_rank = np.empty(len(self.chunks), dtype=np.int64)
        self._id_rank[by_id_order] = np.arange(len(self.chunks))
        self.matrix.flags.writeable = False

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return len(self.chunks)

    def chunk_by_id(self, chunk_id: str) -> Chunk:
        return self.chunks[self._by_id[chunk_id]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorIndex):
            return NotImplemented
        return (
            self.chunks == other.chunks
            and self.provider_tag == other.provider_tag
            and self.matrix.shape == other.matrix.shape
            and bool(np.array_equal(self.matrix, other.matrix))
        )


def build_index(chunks: list[Chunk], vectors: np.ndarray | list[np.ndarray], provider_tag: str) -> VectorIndex:
    """Pair chunks with normalized vectors, rejecting inconsistent input.

    ``vectors`` is an ``(n, d)`` array, as :func:`embed_texts` returns, or a
    list of ``n`` vectors; either way it is normalized as one matrix.
    """
    if len(chunks) != len(vectors):
        raise LengthMismatch(f"{len(chunks)} chunks but {len(vectors)} vectors")
    if not chunks:
        raise EmptyIndex("an index needs at least one entry")
    seen: set[str] = set()
    for c in chunks:
        if c.chunk_id in seen:
            raise DuplicateChunkId(f"duplicate chunk_id {c.chunk_id!r}")
        seen.add(c.chunk_id)
    return VectorIndex(chunks=chunks, matrix=normalize(stack_vectors(vectors)), provider_tag=provider_tag)


def similarities(index: VectorIndex, queries: np.ndarray) -> np.ndarray:
    """Cosine of each query row against every row of ``index``, clamped to [-1, 1].

    ``queries`` is an ``(m, d)`` matrix; the ``(m, n)`` result scores query
    ``j`` against ``index.chunks[i]`` at ``[j, i]``. This is the one cosine
    computation of the vector path: :func:`top_k` and alignment scoring
    reduce its table. Each row is its own matrix-vector product, so a row
    is bitwise the same whichever other queries share the call. Queries need
    not be unit length; a zero or non-finite query raises :class:`ZeroVector`.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.shape == (0, 0):
        # No queries: embed_texts returns (0, 0), since no vector fixed a dimension.
        q = q.reshape(0, index.dimension)
    if q.ndim != 2 or q.shape[1] != index.dimension:
        raise DimensionMismatch(f"queries have shape {q.shape}, index dimension is {index.dimension}")
    # Not q @ matrix.T: a matrix-matrix product sums in another order and
    # moves scores by ulps.
    scores = np.matmul(index.matrix, normalize(q)[..., None])[..., 0]
    return np.clip(scores, -1.0, 1.0, out=scores)


def top_k(index: VectorIndex, scores: np.ndarray, k: int) -> list[list[ScoredHit]]:
    """Rank each row of a :func:`similarities` table over ``index``.

    Returns one list per row of ``min(k, len(index))`` hits sorted by score
    descending, ties broken by chunk_id ascending.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if scores.ndim != 2 or scores.shape[1] != len(index):
        raise LengthMismatch(f"score table has shape {scores.shape}, index has {len(index)} rows")
    k = min(k, len(index))
    # Only scores at or above a row's k-th highest can rank; sort just those
    # by row, then score descending, then chunk_id.
    cut = len(index) - k
    kth = np.partition(scores, cut, axis=1)[:, cut]
    rows, cols = np.nonzero(scores >= kth[:, None])
    order = np.lexsort((index._id_rank[cols], -scores[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    starts = np.searchsorted(rows, np.arange(len(scores)))
    return [
        [ScoredHit(chunk_id=index.chunks[i].chunk_id, score=float(scores[r, i]), rank=rank + 1)
         for rank, i in enumerate(cols[start:start + k].tolist())]
        for r, start in enumerate(starts.tolist())
    ]


def _checksum(chunk_dicts: list[dict], matrix: np.ndarray) -> str:
    """sha256 of the chunks' canonical JSON, then the vectors as little-endian float64."""
    canonical = json.dumps(chunk_dicts, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8"))
    digest.update(np.ascontiguousarray(matrix, dtype="<f8"))
    return digest.hexdigest()


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Persist an index as a versioned, checksummed JSON container."""
    chunk_dicts = [c.to_dict() for c in index.chunks]
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "dimension": index.dimension,
        "provider_tag": index.provider_tag,
        "count": len(index),
        "checksum": _checksum(chunk_dicts, index.matrix),
        "entries": [{"chunk": d, "vector": v} for d, v in zip(chunk_dicts, index.matrix.tolist())],
    }
    write_text(path, json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n")


def load_index(path: str | Path) -> VectorIndex:
    """Load an index written by :func:`save_index`, verifying its integrity."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"index file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptIndexFile(f"{path}: not a valid index file: {exc}") from exc
    if not isinstance(payload, dict):
        raise CorruptIndexFile(f"{path}: top level must be an object")
    if payload.get("format_version") != INDEX_FORMAT_VERSION:
        raise CorruptIndexFile(
            f"{path}: unsupported format_version {payload.get('format_version')!r}, expected {INDEX_FORMAT_VERSION}"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        raise CorruptIndexFile(f"{path}: entries missing or empty")
    if payload.get("count") != len(entries):
        raise CorruptIndexFile(f"{path}: declared count {payload.get('count')!r} != {len(entries)} entries")
    declared_dim = payload.get("dimension")
    try:
        for i, e in enumerate(entries):
            if len(e["vector"]) != declared_dim:
                raise CorruptIndexFile(
                    f"{path}: entry {i} vector dimension {len(e['vector'])} != declared dimension {declared_dim}"
                )
        matrix = np.array([e["vector"] for e in entries], dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"vectors form an array of shape {matrix.shape}")
        chunk_dicts = [e["chunk"] for e in entries]
        chunks = [Chunk.from_dict(d) for d in chunk_dicts]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptIndexFile(f"{path}: malformed entry: {exc}") from exc
    if payload.get("checksum") != _checksum(chunk_dicts, matrix):
        raise CorruptIndexFile(f"{path}: checksum mismatch, file is damaged")
    seen: set[str] = set()
    for c in chunks:
        if c.chunk_id in seen:
            raise CorruptIndexFile(f"{path}: duplicate chunk_id {c.chunk_id!r}")
        seen.add(c.chunk_id)
    # NaN and infinite rows fail the comparison too.
    bad = np.flatnonzero(~(np.abs(np.linalg.norm(matrix, axis=1) - 1.0) <= 1e-6))
    if bad.size:
        raise CorruptIndexFile(f"{path}: entry {bad[0]} vector is not finite and unit-norm")
    # Vectors were normalized at build time; keep the stored floats exactly
    # so save/load round-trips are lossless.
    return VectorIndex(chunks=chunks, matrix=matrix, provider_tag=str(payload.get("provider_tag", "")))
