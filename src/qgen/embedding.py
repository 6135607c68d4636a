"""Embedding providers and the normalizing, retrying ``embed_texts`` front door.

Two providers ship here: a deterministic offline mock (hashed bag of words)
and a thin HTTP adapter for a real embedding endpoint. Everything downstream
consumes unit-norm float64 vectors.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, TypeVar

import numpy as np

from . import wire
from .errors import ConfigError, DimensionMismatch, EmptyText, ProviderError, ZeroVector


class EmbeddingProvider(Protocol):
    tag: str

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]: ...


@dataclass(frozen=True)
class RetryPolicy:
    """Retry retryable provider failures with exponential backoff."""

    max_retries: int = 3
    base_delay: float = 0.5

    def delay(self, attempt: int) -> float:
        return self.base_delay * (2 ** attempt)


def call_with_retries(fn, retry: RetryPolicy = RetryPolicy(),
                      sleep: Callable[[float], None] | None = None):
    """Invoke ``fn`` retrying retryable provider errors, then surface them.

    ``sleep`` waits out each backoff; it defaults to :func:`time.sleep`,
    looked up at call time.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except ProviderError as exc:
            if exc.retryable and attempt < retry.max_retries:
                (sleep or time.sleep)(retry.delay(attempt))
                attempt += 1
                continue
            raise


T = TypeVar("T")
R = TypeVar("R")


def map_in_flight(fn: Callable[[T], R], items: Sequence[T], max_in_flight: int) -> list[R]:
    """Apply ``fn`` to every item, at most ``max_in_flight`` calls at a time.

    Results come back in input order. The calls run serially when
    ``max_in_flight`` is 1 or there is only one item, and otherwise on
    ``min(max_in_flight, len(items))`` threads that take the items in
    order. Once a call raises, no further item starts, and the exception of
    the lowest failed item is raised after the running calls finish.
    """
    if max_in_flight <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    stop = threading.Event()
    lock = threading.Lock()
    order = iter(range(len(items)))

    def work() -> None:
        while True:
            with lock:
                i = None if stop.is_set() else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised again on the calling thread
                with lock:
                    failures[i] = exc
                    stop.set()

    threads = [threading.Thread(target=work) for _ in range(min(max_in_flight, len(items)))]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        stop.set()
    if failures:
        raise failures[min(failures)]
    return results


_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


def _bucket(token: str, dim: int) -> int:
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dim


class MockEmbeddingProvider:
    """Deterministic hashed bag-of-words embedder for offline runs.

    Text is lowercased and split into word tokens; each token is hashed
    (sha1, stable across processes) into one of ``dim`` buckets and counts
    are accumulated. Texts sharing vocabulary therefore score higher under
    cosine similarity, which is all the offline pipeline needs.
    """

    def __init__(self, dim: int = 64):
        if dim < 2:
            raise ConfigError(f"embedding dimension must be >= 2, got {dim}")
        self.dim = dim
        self.tag = f"mock-bow-sha1-v1:d{dim}"

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [self._embed_one(t) for t in texts]

    def _embed_one(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        tokens = _TOKEN_RE.findall(text.lower())
        if not tokens:
            # Token-free text still gets a deterministic unit direction.
            vec[_bucket(text, self.dim)] = 1.0
            return vec
        for token in tokens:
            vec[_bucket(token, self.dim)] += 1.0
        return vec

    def token_buckets(self, text: str) -> set[int]:
        """Buckets this text's tokens hash into; used by collision checks."""
        return {_bucket(t, self.dim) for t in _TOKEN_RE.findall(text.lower())}


class HttpEmbeddingProvider:
    """Adapter for an HTTP embedding endpoint.

    Wire contract: POST ``{"model": ..., "input": [texts]}`` with a bearer
    token from the configured environment variable; the response carries one
    vector per input, either ``{"data": [{"embedding": [...]}, ...]}`` or
    ``{"embeddings": [[...], ...]}``.
    """

    def __init__(self, endpoint: str, model: str, api_key_env: str = "QGEN_API_KEY",
                 transport: Callable[..., dict] | None = None, timeout: float = 60.0):
        if not endpoint:
            raise ConfigError("embedding endpoint must be configured for non-mock runs")
        key = os.environ.get(api_key_env, "")
        if not key:
            raise ConfigError(f"environment variable {api_key_env} must be set for non-mock runs")
        self.endpoint = endpoint
        self.model = model
        self.tag = f"http:{model}"
        self.timeout = timeout
        self._key = key
        self._transport = transport

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        transport = self._transport or wire.http_post_json
        payload = {"model": self.model, "input": list(texts)}
        headers = {"Authorization": f"Bearer {self._key}"}
        body = transport(self.endpoint, payload, headers, timeout=self.timeout)
        if isinstance(body.get("data"), list):
            rows = [item.get("embedding") for item in body["data"]]
        elif isinstance(body.get("embeddings"), list):
            rows = body["embeddings"]
        else:
            raise ProviderError(0, "embedding response missing 'data' or 'embeddings'", retryable=False)
        if len(rows) != len(texts) or any(not isinstance(r, list) for r in rows):
            raise ProviderError(0, "embedding response does not contain one vector per input", retryable=False)
        return [np.asarray(r, dtype=np.float64) for r in rows]


def normalize(vector: np.ndarray) -> np.ndarray:
    arr = np.asarray(vector, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ZeroVector("vector contains non-finite values")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ZeroVector("cannot normalize a zero vector")
    return arr / norm


_EMBED_BATCH_SIZE = 64


def embed_texts(
    provider: EmbeddingProvider,
    texts: Sequence[str],
    retry: RetryPolicy = RetryPolicy(),
    sleep: Callable[[float], None] | None = None,
    max_in_flight: int = 1,
) -> list[np.ndarray]:
    """Embed ``texts`` in order, retrying retryable provider failures.

    Returns one unit-norm vector per text; all vectors must share a
    dimension or :class:`DimensionMismatch` is raised. Empty or
    whitespace-only inputs are rejected up front. Large inputs are split
    into sub-batches, sent through :func:`map_in_flight`, so results always
    come back in input order.
    """
    for i, text in enumerate(texts):
        if not text or not text.strip():
            raise EmptyText(f"texts[{i}] is empty")
    if not texts:
        return []

    batches = [list(texts[i:i + _EMBED_BATCH_SIZE]) for i in range(0, len(texts), _EMBED_BATCH_SIZE)]

    results = map_in_flight(
        lambda batch: call_with_retries(lambda: provider.embed(batch), retry, sleep),
        batches, max_in_flight,
    )
    raw = [vec for batch in results for vec in batch]

    if len(raw) != len(texts):
        raise ProviderError(0, f"provider returned {len(raw)} vectors for {len(texts)} texts", retryable=False)
    dim = None
    out: list[np.ndarray] = []
    for i, vec in enumerate(raw):
        arr = np.asarray(vec, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise DimensionMismatch(f"vector {i} has invalid shape {arr.shape}")
        if dim is None:
            dim = arr.shape[0]
        elif arr.shape[0] != dim:
            raise DimensionMismatch(f"vector {i} has dimension {arr.shape[0]}, expected {dim}")
        out.append(normalize(arr))
    return out
