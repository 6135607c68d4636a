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
from .embedding import normalize
from .errors import (
    CorruptIndexFile,
    DimensionMismatch,
    DuplicateChunkId,
    EmptyIndex,
    LengthMismatch,
)

INDEX_FORMAT_VERSION = 1


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


def build_index(chunks: list[Chunk], vectors: list[np.ndarray], provider_tag: str) -> VectorIndex:
    """Pair chunks with normalized vectors, rejecting inconsistent input."""
    if len(chunks) != len(vectors):
        raise LengthMismatch(f"{len(chunks)} chunks but {len(vectors)} vectors")
    if not chunks:
        raise EmptyIndex("an index needs at least one entry")
    seen: set[str] = set()
    for c in chunks:
        if c.chunk_id in seen:
            raise DuplicateChunkId(f"duplicate chunk_id {c.chunk_id!r}")
        seen.add(c.chunk_id)
    rows = [normalize(v) for v in vectors]
    dim = rows[0].shape[0]
    for i, r in enumerate(rows):
        if r.shape[0] != dim:
            raise DimensionMismatch(f"vector {i} has dimension {r.shape[0]}, expected {dim}")
    return VectorIndex(chunks=chunks, matrix=np.vstack(rows), provider_tag=provider_tag)


def similarities(index: VectorIndex, query: np.ndarray) -> np.ndarray:
    """Cosine of ``query`` against every row of ``index``, clamped to [-1, 1].

    Row ``i`` of the result scores ``index.chunks[i]``. The query need not
    be unit length; a zero or non-finite query raises :class:`ZeroVector`.
    """
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index.dimension:
        raise DimensionMismatch(f"query has shape {q.shape}, index dimension is {index.dimension}")
    return np.clip(index.matrix @ normalize(q), -1.0, 1.0)


def top_k(index: VectorIndex, query: np.ndarray, k: int) -> list[ScoredHit]:
    """Exhaustive cosine top-k over all entries.

    Returns ``min(k, len(index))`` hits sorted by score descending with ties
    broken by chunk_id ascending; ranking is invariant to positive scaling
    of the query.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    scores = similarities(index, query)
    order = np.lexsort((index._id_rank, -scores))[:k]
    return [
        ScoredHit(chunk_id=index.chunks[i].chunk_id, score=float(scores[i]), rank=r + 1)
        for r, i in enumerate(order)
    ]


def _entries_payload(index: VectorIndex) -> list[dict]:
    return [
        {"chunk": c.to_dict(), "vector": [float(x) for x in index.matrix[i]]}
        for i, c in enumerate(index.chunks)
    ]


def _checksum(entries: list[dict]) -> str:
    canonical = json.dumps(entries, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Persist an index as a versioned, checksummed JSON container."""
    entries = _entries_payload(index)
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "dimension": index.dimension,
        "provider_tag": index.provider_tag,
        "count": len(index),
        "checksum": _checksum(entries),
        "entries": entries,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n", encoding="utf-8"
    )


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
    if payload.get("checksum") != _checksum(entries):
        raise CorruptIndexFile(f"{path}: checksum mismatch, file is damaged")
    declared_dim = payload.get("dimension")
    try:
        chunks = [Chunk.from_dict(e["chunk"]) for e in entries]
        rows = [np.asarray(e["vector"], dtype=np.float64) for e in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptIndexFile(f"{path}: malformed entry: {exc}") from exc
    seen: set[str] = set()
    for c in chunks:
        if c.chunk_id in seen:
            raise CorruptIndexFile(f"{path}: duplicate chunk_id {c.chunk_id!r}")
        seen.add(c.chunk_id)
    for i, r in enumerate(rows):
        if r.ndim != 1 or r.shape[0] != declared_dim:
            raise CorruptIndexFile(
                f"{path}: entry {i} vector dimension {r.shape} != declared dimension {declared_dim}"
            )
        if not np.all(np.isfinite(r)) or abs(float(np.linalg.norm(r)) - 1.0) > 1e-6:
            raise CorruptIndexFile(f"{path}: entry {i} vector is not unit-norm")
    # Vectors were normalized at build time; keep the stored floats exactly
    # so save/load round-trips are lossless.
    return VectorIndex(
        chunks=chunks, matrix=np.vstack(rows), provider_tag=str(payload.get("provider_tag", ""))
    )
