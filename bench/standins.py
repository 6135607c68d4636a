"""Stand-in providers: the mock providers' outputs, counted and optionally slowed.

Each stand-in returns exactly what its mock base class returns. Around
that it counts round-trips, texts and retries into the current stage
run's counters, sleeps a latency, and can fail a request once with a
retryable 503. Latency and failure are functions of a hash of the request
content, never of call order, so a change that reorders or overlaps calls
keeps every request's latency and outcome.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from contextlib import nullcontext
from dataclasses import astuple, dataclass, field

from qgen.chat import MockChatProvider
from qgen.embedding import MockEmbeddingProvider
from qgen.errors import ProviderError


@dataclass(frozen=True)
class Profile:
    """Latency (seconds) and transient-failure knobs of a simulated endpoint."""

    chat_s: float = 0.0
    chat_jitter_s: float = 0.0
    embed_s: float = 0.0
    embed_per_text_s: float = 0.0
    embed_jitter_s: float = 0.0
    failure_rate: float = 0.0

    @property
    def hashed(self) -> bool:
        """Whether requests need a content hash: any latency or failure is set."""
        return any(astuple(self))


@dataclass
class Counters:
    """Provider traffic of one stage run; updated from worker threads too.

    ``texts`` and ``prompts`` collect request contents for the distinct
    ratios when they are sets; they stay None in untraced runs.
    """

    lock: threading.Lock = field(default_factory=threading.Lock)
    embed_calls: int = 0
    embed_texts: int = 0
    embed_retries: int = 0
    chat_calls: int = 0
    chat_retries: int = 0
    texts: set | None = None
    prompts: set | None = None


def _unit(digest: bytes, salt: bytes) -> float:
    """Map a request digest to [0, 1), independently per salt."""
    return int.from_bytes(hashlib.sha256(salt + digest).digest()[:8], "big") / 2.0 ** 64


class _Endpoint:
    """Shared accounting, latency and one-time failure for one stand-in."""

    def __init__(self, profile: Profile, counters: Counters, inject_failures: bool, tracer):
        self.profile = profile
        self.counters = counters
        self.failure_rate = profile.failure_rate if inject_failures else 0.0
        self.tracer = tracer
        self._failed: set[bytes] = set()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def wait_and_maybe_fail(self, digest: bytes | None, delay: float) -> bool:
        """Sleep ``delay``; return True when this request fails this once."""
        if delay > 0:
            time.sleep(delay)
        if digest is None or not self.failure_rate or _unit(digest, b"fail") >= self.failure_rate:
            return False
        with self.counters.lock:
            if digest in self._failed:
                return False
            self._failed.add(digest)
        return True


def _digest(*parts) -> bytes:
    return hashlib.sha256(json.dumps(parts, ensure_ascii=False).encode("utf-8")).digest()


class BenchChat(MockChatProvider):
    def __init__(self, endpoint: _Endpoint, malformed_rate: float):
        super().__init__(malformed_rate=malformed_rate)
        self._ep = endpoint

    def _call(self, kind: str, system: str, user: str, temperature: float, seed, answer):
        ep, c = self._ep, self._ep.counters
        with ep.span("chat.provider"):
            with c.lock:
                c.chat_calls += 1
                if c.prompts is not None:
                    c.prompts.add((kind, system, user, temperature, seed))
            digest = _digest(kind, system, user, temperature, seed) if ep.profile.hashed else None
            delay = ep.profile.chat_s + ep.profile.chat_jitter_s * _unit(digest, b"lat") if digest else 0.0
            if ep.wait_and_maybe_fail(digest, delay):
                with c.lock:
                    c.chat_retries += 1
                raise ProviderError(503, "injected transient failure", retryable=True)
            return answer()

    def complete(self, system, user, *, temperature=0.7, seed=None):
        return self._call("complete", system, user, temperature, seed,
                          lambda: MockChatProvider.complete(self, system, user, temperature=temperature, seed=seed))

    def complete_structured(self, system, user, schema, *, temperature=0.7, seed=None):
        return self._call("structured", system, user, temperature, seed,
                          lambda: MockChatProvider.complete_structured(
                              self, system, user, schema, temperature=temperature, seed=seed))


class BenchEmbedder(MockEmbeddingProvider):
    def __init__(self, endpoint: _Endpoint, dim: int):
        super().__init__(dim=dim)
        self._ep = endpoint

    def embed(self, texts):
        ep, c = self._ep, self._ep.counters
        with ep.span("embedding.provider"):
            with c.lock:
                c.embed_calls += 1
                c.embed_texts += len(texts)
                if c.texts is not None:
                    c.texts.update(texts)
            p = ep.profile
            digest = _digest(*texts) if p.hashed else None
            delay = (p.embed_s + p.embed_per_text_s * len(texts) + p.embed_jitter_s * _unit(digest, b"lat")
                     if digest else 0.0)
            if ep.wait_and_maybe_fail(digest, delay):
                with c.lock:
                    c.embed_retries += 1
                raise ProviderError(503, "injected transient failure", retryable=True)
            return super().embed(texts)


def make_providers(cfg, profile: Profile, counters: Counters, inject_failures: bool, tracer=None):
    """Replacement for ``qgen.cli.build_providers``: one fresh pair per stage call."""
    endpoint = _Endpoint(profile, counters, inject_failures, tracer)
    return (
        BenchChat(endpoint, malformed_rate=cfg.provider.mock_malformed_rate),
        BenchEmbedder(endpoint, dim=cfg.provider.mock_dim),
    )
