"""Flat exact-search vector index over chunks with cosine top-k queries.

Corpora here are at most a few thousand chunks, so exhaustive search is
cheap and keeps retrieval quality assumptions exact. Vectors are normalized
at insertion, reducing cosine similarity to a dot product.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .chunking import Chunk
from .embedding import normalize
from .errors import PipelineStateError
from .jsonio import dumps, loads, write_jsonl

INDEX_FORMAT_VERSION = 2


class VectorIndex:
    """Immutable pairing of chunks with unit-norm embedding vectors.

    Refuses, with :class:`PipelineStateError`, no chunks, a duplicate
    chunk_id, and a matrix that is not ``(len(chunks), d)`` with ``d >= 2``.
    """

    def __init__(self, chunks: list[Chunk], matrix: np.ndarray, provider_tag: str):
        self.chunks = list(chunks)
        if not self.chunks:
            raise PipelineStateError("an index needs at least one entry")
        seen: set[str] = set()
        for c in self.chunks:
            if c.chunk_id in seen:
                raise PipelineStateError(f"duplicate chunk_id {c.chunk_id!r}")
            seen.add(c.chunk_id)
        if matrix.ndim != 2 or matrix.shape[1] < 2:
            raise PipelineStateError(
                f"vectors have shape {matrix.shape}, expected ({len(self.chunks)}, d) with d >= 2"
            )
        if len(matrix) != len(self.chunks):
            raise PipelineStateError(f"{len(self.chunks)} chunks but {len(matrix)} vectors")
        self.matrix = matrix
        self.provider_tag = provider_tag
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
    """Pair chunks with vectors normalized as one matrix.

    ``vectors`` is an ``(n, d)`` array, as :func:`embed_texts` returns, or a
    list of ``n`` vectors of one length; :class:`VectorIndex` checks the pairing.
    """
    matrix = np.asarray(vectors, dtype=np.float64)
    # No vectors cannot be normalized; the constructor says what is wrong.
    return VectorIndex(chunks=chunks, matrix=normalize(matrix) if matrix.size else matrix, provider_tag=provider_tag)


def similarities(index: VectorIndex, queries: np.ndarray) -> np.ndarray:
    """Cosine of each query row against every row of ``index``, clamped to [-1, 1].

    ``queries`` is an ``(m, d)`` matrix; the ``(m, n)`` result scores query
    ``j`` against ``index.chunks[i]`` at ``[j, i]``. This is the one cosine
    computation of the vector path: :func:`top_k` and alignment scoring
    reduce its table. Each row is its own matrix-vector product, so a row
    is bitwise the same whichever other queries share the call. Queries need
    not be unit length; a zero or non-finite query raises
    :class:`PipelineStateError`.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.shape == (0, 0):
        # No queries: embed_texts returns (0, 0), since no vector fixed a dimension.
        q = q.reshape(0, index.dimension)
    if q.ndim != 2 or q.shape[1] != index.dimension:
        raise PipelineStateError(f"queries have shape {q.shape}, index dimension is {index.dimension}")
    # Not q @ matrix.T: a matrix-matrix product sums in another order and
    # moves scores by ulps.
    scores = np.matmul(index.matrix, normalize(q)[..., None])[..., 0]
    return np.clip(scores, -1.0, 1.0, out=scores)


def top_k(index: VectorIndex, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank each row of a :func:`similarities` table over ``index``.

    Returns two ``(m, min(k, len(index)))`` arrays: each row's chunk
    positions in ``index.chunks``, sorted by score descending with ties
    broken by chunk_id ascending, and their scores, read out of ``scores``.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if scores.ndim != 2 or scores.shape[1] != len(index):
        raise PipelineStateError(f"score table has shape {scores.shape}, index has {len(index)} rows")
    k = min(k, len(index))
    # Only scores at or above a row's k-th highest can rank; sort just those
    # by row, then score descending, then chunk_id.
    cut = len(index) - k
    kth = np.partition(scores, cut, axis=1)[:, cut]
    rows, cols = np.nonzero(scores >= kth[:, None])
    order = np.lexsort((index._id_rank[cols], -scores[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    starts = np.searchsorted(rows, np.arange(len(scores)))
    positions = cols[starts[:, None] + np.arange(k)]
    return positions, np.take_along_axis(scores, positions, axis=1)


def _checksum(chunk_dicts: list[dict], matrix: np.ndarray) -> str:
    """sha256 of the chunks' canonical JSON, then the vectors as little-endian float64."""
    digest = hashlib.sha256(dumps(chunk_dicts))
    digest.update(np.ascontiguousarray(matrix, dtype="<f8"))
    return digest.hexdigest()


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Persist an index as a versioned, checksummed JSON object on one line."""
    chunk_dicts = [c.to_dict() for c in index.chunks]
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "dimension": index.dimension,
        "provider_tag": index.provider_tag,
        "count": len(index),
        "checksum": _checksum(chunk_dicts, index.matrix),
        # Each row goes to the writer as a numpy array, which orjson writes as
        # the list of its floats; it refuses a row that is not C-contiguous.
        "entries": [{"chunk": d, "vector": v} for d, v in zip(chunk_dicts, np.ascontiguousarray(index.matrix))],
    }
    # The index is one JSON object, so a one-row JSONL file holds it compactly.
    write_jsonl(path, [payload])


def load_index(path: str | Path) -> VectorIndex:
    """Load an index written by :func:`save_index`, verifying its integrity."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"index file not found: {path}")
    try:
        payload = loads(path.read_bytes())
    except ValueError as exc:
        raise PipelineStateError(f"{path}: not a valid index file: {exc}") from exc
    if not isinstance(payload, dict):
        raise PipelineStateError(f"{path}: top level must be an object")
    if payload.get("format_version") != INDEX_FORMAT_VERSION:
        raise PipelineStateError(
            f"{path}: unsupported format_version {payload.get('format_version')!r}, expected {INDEX_FORMAT_VERSION}"
        )
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        raise PipelineStateError(f"{path}: entries missing or empty")
    if payload.get("count") != len(entries):
        raise PipelineStateError(f"{path}: declared count {payload.get('count')!r} != {len(entries)} entries")
    declared_dim = payload.get("dimension")
    try:
        for i, e in enumerate(entries):
            if len(e["vector"]) != declared_dim:
                raise PipelineStateError(
                    f"{path}: entry {i} vector dimension {len(e['vector'])} != declared dimension {declared_dim}"
                )
        matrix = np.array([e["vector"] for e in entries], dtype=np.float64)
        chunk_dicts = [e["chunk"] for e in entries]
        chunks = [Chunk.from_dict(d) for d in chunk_dicts]
    except (KeyError, TypeError, ValueError) as exc:
        raise PipelineStateError(f"{path}: malformed entry: {exc}") from exc
    if payload.get("checksum") != _checksum(chunk_dicts, matrix):
        raise PipelineStateError(f"{path}: checksum mismatch, file is damaged")
    # NaN and infinite rows fail the comparison too.
    bad = np.flatnonzero(~(np.abs(np.linalg.norm(matrix, axis=1) - 1.0) <= 1e-6))
    if bad.size:
        raise PipelineStateError(f"{path}: entry {bad[0]} vector is not finite and unit-norm")
    # Vectors were normalized at build time; keep the stored floats exactly
    # so save/load round-trips are lossless.
    try:
        return VectorIndex(chunks=chunks, matrix=matrix, provider_tag=str(payload.get("provider_tag", "")))
    except PipelineStateError as exc:
        raise PipelineStateError(f"{path}: {exc}") from exc
