"""Embedding providers, the ``embed_texts`` front door, and the one provider round-trip path.

Two providers ship here: a deterministic offline mock (hashed bag of words)
and a thin HTTP adapter for a real embedding endpoint. Everything downstream
consumes unit-norm float64 vectors. :func:`map_in_flight` runs every
provider round-trip of the pipeline (embedding batches, generation chats
and validity QA chats) under one :class:`ProviderPolicy`, and is the only
code that retries.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, TypeVar

import numpy as np
import numpy.typing as npt

from . import wire
from .errors import InputError, ProviderError


class EmbeddingProvider(Protocol):
    """Turns texts into raw vectors, one per text.

    ``embed`` returns one ``(len(texts), d)`` float64 array-like, row ``i``
    the vector of ``texts[i]``, with ``d >= 2``. :func:`embed_texts`
    refuses any other shape, and a ``d`` that changes between the batches
    of one call.
    """

    tag: str

    def embed(self, texts: Sequence[str]) -> npt.ArrayLike: ...


@dataclass(frozen=True)
class ProviderPolicy:
    """How provider round-trips run: how often to retry, how long to back off, how many at once."""

    max_retries: int = 3
    base_delay: float = 0.5
    max_in_flight: int = 1

    def wait(self, attempt: int, retry_after: float | None = None) -> float:
        """Seconds to wait after failed attempt ``attempt`` (from 0), at most 60 s.

        The wait is the longer of the backoff and ``retry_after``. The
        backoff ``base_delay * 2 ** attempt`` stops doubling at 2 ** 1023,
        the largest power of two a float holds, so no attempt overflows; a
        product too large for a float is infinite and capped like any other.
        """
        backoff = self.base_delay * 2.0 ** min(attempt, 1023)
        return min(max(backoff, retry_after or 0.0), _MAX_WAIT)


T = TypeVar("T")
R = TypeVar("R")


# The longest any retry waits, in seconds.
_MAX_WAIT = 60.0


def _call_with_retries(fn: Callable[[T], R], item: T, policy: ProviderPolicy) -> R:
    attempt = 0
    while True:
        try:
            return fn(item)
        except ProviderError as exc:
            if exc.retryable and attempt < policy.max_retries:
                time.sleep(policy.wait(attempt, exc.retry_after))
                attempt += 1
                continue
            raise


def map_in_flight(fn: Callable[[T], R], items: Sequence[T], policy: ProviderPolicy) -> list[R]:
    """Apply ``fn`` to every item, retried and at most ``max_in_flight`` at a time as ``policy`` says.

    A call that raises a retryable :class:`ProviderError` is made again for
    its item alone, after the policy's backoff or the provider's
    ``Retry-After``, whichever is longer, and never more than 60 s (waited
    out by :func:`time.sleep`), until ``max_retries`` run out. Results come back
    in input order. The calls run serially when ``max_in_flight`` is 1 or
    there is only one item, and otherwise on ``min(max_in_flight,
    len(items))`` threads that take the items in order. Once a call fails for good, no further item starts, and
    the exception of the lowest failed item is raised after the running
    calls finish.
    """
    if policy.max_in_flight <= 1 or len(items) <= 1:
        return [_call_with_retries(fn, item, policy) for item in items]
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
                results[i] = _call_with_retries(fn, items[i], policy)
            except BaseException as exc:  # raised again on the calling thread
                with lock:
                    failures[i] = exc
                    stop.set()

    threads = [threading.Thread(target=work) for _ in range(min(policy.max_in_flight, len(items)))]
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


def _bucket(token: str, dim: int) -> int:
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dim


class _BucketMemo(dict):
    """token -> bucket, hashing each token the first time it is looked up.

    Threads that miss on the same token at once both store the same value,
    so concurrent ``embed`` calls on one provider need no lock.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, token: str) -> int:
        bucket = self[token] = _bucket(token, self.dim)
        return bucket


class _WordTable(dict):
    """A ``str.translate`` table: a word character to itself, any other to a space.

    A character is a word character exactly when ``re`` matches it with
    ``\\w``: ``c.isalnum() or c == "_"``. Entries are filled the first time a
    character is met, and concurrent fills store the same value.
    """

    def __missing__(self, code: int) -> str:
        char = chr(code)
        out = self[code] = char if char.isalnum() or char == "_" else " "
        return out


class MockEmbeddingProvider:
    """Deterministic hashed bag-of-words embedder for offline runs.

    Text is lowercased and split into word tokens (runs of ``\\w``); each
    token is hashed (sha1, stable across processes) into one of ``dim``
    buckets (``RunConfig`` checks ``dim >= 2``) and counts are accumulated.
    Texts sharing vocabulary therefore score higher under cosine similarity,
    which is all the offline pipeline needs. A text with no token counts
    once in the bucket of its own original text. Each provider remembers the
    bucket of every token and whether each character it has met is a word
    character, so a token is hashed once per provider, not once per occurrence.
    """

    def __init__(self, dim: int = 64):
        self.dim = dim
        self.tag = f"mock-bow-sha1-v1:d{dim}"
        self._buckets = _BucketMemo(dim)
        self._words = _WordTable()

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """Token counts as an ``(n, dim)`` float64 array, one row per text.

        The batch is counted at once: the texts, each lowercased on its own
        (so a final sigma keeps its own text's context), are joined by
        spaces, every non-word character becomes a space in one
        ``str.translate`` pass, and one ``split`` yields the tokens. Each
        token's row is found from where it starts in the joined text, and one
        ``np.bincount`` over ``row * dim + bucket`` counts the whole batch.
        """
        n, dim = len(texts), self.dim
        lowered = [text.lower() for text in texts]
        joined = " ".join(lowered).translate(self._words)
        words = joined.split()
        # Every character left that is not a space is a word character, and a
        # token starts where one follows a space or the start of the text.
        word = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4") != ord(" ")
        starts = np.flatnonzero(np.diff(word, prepend=False) & word)
        # bounds[i] is where text i + 1 starts in the joined text.
        bounds = np.cumsum(np.fromiter(map(len, lowered), dtype=np.int64, count=n) + 1)
        rows = np.searchsorted(bounds, starts, side="right")
        buckets = np.fromiter(map(self._buckets.__getitem__, words), dtype=np.int64, count=len(words))
        counts = np.bincount(rows * dim + buckets, minlength=n * dim).reshape(n, dim).astype(np.float64)
        # Token-free text still gets a deterministic unit direction.
        empty = np.flatnonzero(~counts.any(axis=1)).tolist()
        counts[empty, [_bucket(texts[i], dim) for i in empty]] = 1.0
        return counts


def _is_finite_number(value) -> bool:
    """Whether ``value`` is a JSON int or a finite JSON float.

    ``np.asarray`` would read a string as a number, null as NaN and a bool
    as 0 or 1; all are refused here.
    """
    return type(value) is int or (isinstance(value, float) and math.isfinite(value))


# Seconds an HTTP embedding round-trip may take before it fails as a network error.
_HTTP_TIMEOUT = 60.0


class HttpEmbeddingProvider:
    """Adapter for an HTTP embedding endpoint.

    Wire contract: POST ``{"model": ..., "input": [texts]}`` with a bearer
    token from the configured environment variable; the response carries one
    vector per input, either ``{"data": [{"embedding": [...]}, ...]}`` or
    ``{"embeddings": [[...], ...]}``, each a flat list of finite JSON
    numbers. Any other body is a non-retryable :class:`ProviderError`
    naming the item; :func:`embed_texts` checks the vectors' count and
    dimension.
    """

    def __init__(self, endpoint: str, model: str, api_key_env: str = "QGEN_API_KEY"):
        if not endpoint:
            raise InputError("embedding endpoint must be configured for non-mock runs")
        key = os.environ.get(api_key_env, "")
        if not key:
            raise InputError(f"environment variable {api_key_env} must be set for non-mock runs")
        self.endpoint = endpoint
        self.model = model
        self.tag = f"http:{model}"
        self._key = key

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        payload = {"model": self.model, "input": list(texts)}
        headers = {"Authorization": f"Bearer {self._key}"}
        body = wire.http_post_json(self.endpoint, payload, headers, timeout=_HTTP_TIMEOUT)
        if not isinstance(body, dict):
            raise ProviderError(0, "embedding response is not a JSON object", retryable=False)
        if isinstance(body.get("data"), list):
            rows, field = [], "data"
            for i, item in enumerate(body["data"]):
                if not isinstance(item, dict):
                    raise ProviderError(0, f"embedding response data[{i}] is not an object", retryable=False)
                rows.append(item.get("embedding"))
        elif isinstance(body.get("embeddings"), list):
            rows, field = body["embeddings"], "embeddings"
        else:
            raise ProviderError(0, "embedding response missing 'data' or 'embeddings'", retryable=False)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or not all(map(_is_finite_number, row)):
                raise ProviderError(0, f"embedding response {field}[{i}] is not a flat list of finite numbers",
                                    retryable=False)
        return rows


_EMBED_BATCH_SIZE = 64


def distinct_rows(texts: Sequence[str]) -> tuple[list[str], list[int]]:
    """The distinct ``texts`` in first-seen order, and per text the index of its entry among them."""
    row_of: dict[str, int] = {}
    rows = [row_of.setdefault(text, len(row_of)) for text in texts]
    return list(row_of), rows


def embed_texts(
    provider: EmbeddingProvider,
    texts: Sequence[str],
    policy: ProviderPolicy = ProviderPolicy(),
) -> np.ndarray:
    """Embed ``texts`` in order, each provider round-trip under ``policy``.

    Returns an ``(n, d)`` float64 array whose row ``i`` is the unit vector
    of ``texts[i]``; this is the only code that scales vectors to unit
    length. No texts give a ``(0, 0)`` array. Empty or
    whitespace-only inputs are rejected up front. Each distinct text is sent
    once; the distinct texts go out in batches of at most
    ``_EMBED_BATCH_SIZE``, sent through :func:`map_in_flight`, so results
    always come back in input order. This is the one place a provider's
    vectors are checked: a batch that is not one ``(len(batch), d)`` matrix
    of numbers with ``d >= 2``, whose ``d`` differs from the first batch's,
    or with a row whose length is not a finite positive number (a NaN, an
    infinity, all zeros, or a length that over- or underflows float64), is
    a non-retryable :class:`ProviderError`.
    """
    for i, text in enumerate(texts):
        if not text or not text.strip():
            raise InputError(f"texts[{i}] is empty")
    if not texts:
        return np.empty((0, 0))

    distinct, rows = distinct_rows(texts)
    batches = [distinct[i:i + _EMBED_BATCH_SIZE] for i in range(0, len(distinct), _EMBED_BATCH_SIZE)]
    matrices = []
    for j, (batch, raw) in enumerate(zip(batches, map_in_flight(provider.embed, batches, policy))):
        try:
            matrix = np.asarray(raw, dtype=np.float64)
        except (ValueError, OverflowError) as exc:
            raise ProviderError(0, f"embedding batch {j} is not one matrix of numbers: {exc}",
                                retryable=False) from exc
        if matrix.ndim != 2 or len(matrix) != len(batch) or matrix.shape[1] < 2:
            raise ProviderError(0, f"embedding batch {j} has shape {matrix.shape}, expected "
                                   f"({len(batch)}, d) with d >= 2", retryable=False)
        if matrices and matrix.shape[1] != matrices[0].shape[1]:
            raise ProviderError(0, f"embedding batch {j} has shape {matrix.shape}, but batch 0 has "
                                   f"dimension {matrices[0].shape[1]}", retryable=False)
        matrices.append(matrix)
    vectors = np.concatenate(matrices)
    # sqrt(vecdot) rounds as np.linalg.norm of each row does. A row with a NaN
    # or an infinity, of zeros, or whose length over- or underflows float64
    # has no finite positive norm.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        norms = np.sqrt(np.vecdot(vectors, vectors))
    bad = ~(np.isfinite(norms) & (norms > 0.0))
    if bad.any():
        j, row = divmod(int(np.argmax(bad)), _EMBED_BATCH_SIZE)
        raise ProviderError(0, f"embedding batch {j} row {row} is not a finite non-zero vector",
                            retryable=False)
    vectors = vectors / norms[:, None]
    return vectors if len(distinct) == len(texts) else vectors[rows]
