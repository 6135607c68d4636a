from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import qgen
from qgen.embedding import (
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    RetryPolicy,
    embed_texts,
    map_in_flight,
)
from qgen.errors import ConfigError, DimensionMismatch, EmptyText, ProviderError


def test_identical_texts_identical_vectors(mock_embedder):
    a, b = embed_texts(mock_embedder, ["integer", "integer"])
    assert np.array_equal(a, b)
    assert float(a @ b) == pytest.approx(1.0)


def test_dimensions_and_norms(mock_embedder):
    vectors = embed_texts(mock_embedder, ["satu dua", "tiga empat lima", "enam"])
    assert len(vectors) == 3
    for v in vectors:
        assert v.shape == (64,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)


def test_shared_vocabulary_scores_higher(mock_embedder):
    a, b, c = embed_texts(mock_embedder, [
        "menambah integer pada garis nombor",
        "menolak integer pada garis nombor",
        "kapal layar biru belayar jauh",
    ])
    assert float(a @ b) > float(a @ c)


def test_empty_text_rejected(mock_embedder):
    with pytest.raises(EmptyText):
        embed_texts(mock_embedder, ["ok", ""])
    with pytest.raises(EmptyText):
        embed_texts(mock_embedder, ["   "])


def test_empty_list_is_noop(mock_embedder):
    assert embed_texts(mock_embedder, []) == []


def test_mock_determinism_across_processes(mock_embedder):
    code = (
        "from qgen.embedding import MockEmbeddingProvider;"
        "import hashlib;"
        "v = MockEmbeddingProvider(64).embed(['garis nombor integer'])[0];"
        "print(hashlib.sha256(v.tobytes()).hexdigest())"
    )
    # The child imports the same qgen as this process, however pytest found it.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qgen.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    local = mock_embedder.embed(["garis nombor integer"])[0]
    import hashlib

    assert out.stdout.strip() == hashlib.sha256(local.tobytes()).hexdigest()


def test_mock_dim_validation():
    with pytest.raises(ConfigError):
        MockEmbeddingProvider(dim=1)


def test_token_free_text_still_embeds(mock_embedder):
    (v,) = embed_texts(mock_embedder, ["???"])
    assert np.linalg.norm(v) == pytest.approx(1.0)


class FlakyProvider:
    """Scripted provider: fails with the given errors, then succeeds."""

    tag = "flaky"

    def __init__(self, errors, dim=8):
        self.errors = list(errors)
        self.dim = dim
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return [np.ones(self.dim) for _ in texts]


def test_retryable_errors_are_retried_with_backoff():
    provider = FlakyProvider([
        ProviderError(429, "rate limited", retryable=True),
        ProviderError(503, "unavailable", retryable=True),
    ])
    sleeps = []
    vectors = embed_texts(provider, ["a"], retry=RetryPolicy(max_retries=3, base_delay=0.5),
                          sleep=sleeps.append)
    assert provider.calls == 3
    assert len(vectors) == 1
    assert sleeps == [0.5, 1.0]


def test_retries_exhausted_surfaces_error():
    provider = FlakyProvider([ProviderError(429, "rate limited", retryable=True)] * 10)
    with pytest.raises(ProviderError) as exc_info:
        embed_texts(provider, ["a"], retry=RetryPolicy(max_retries=3, base_delay=0.0),
                    sleep=lambda _: None)
    assert exc_info.value.retryable
    assert provider.calls == 4  # initial attempt + 3 retries


def test_non_retryable_error_not_retried():
    provider = FlakyProvider([ProviderError(401, "bad key", retryable=False)])
    with pytest.raises(ProviderError):
        embed_texts(provider, ["a"], sleep=lambda _: None)
    assert provider.calls == 1


def test_concurrent_dispatch_preserves_input_order(mock_embedder):
    texts = [f"ayat nombor {i} tentang integer" for i in range(300)]
    sequential = embed_texts(mock_embedder, texts, max_in_flight=1)
    concurrent = embed_texts(mock_embedder, texts, max_in_flight=4)
    assert len(concurrent) == 300
    for a, b in zip(sequential, concurrent):
        assert np.array_equal(a, b)


def test_map_in_flight_keeps_input_order_under_contention():
    # More workers than cores and a short switch interval shuffle completion order.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        out = map_in_flight(lambda i: (time.sleep(0.0005 * (i % 3)), i * i)[1], range(200), 8)
    finally:
        sys.setswitchinterval(previous)
    assert out == [i * i for i in range(200)]


def test_map_in_flight_serial_cases_stay_on_calling_thread():
    caller = threading.get_ident()
    assert map_in_flight(lambda _: threading.get_ident(), range(5), 1) == [caller] * 5
    assert map_in_flight(lambda _: threading.get_ident(), [0], 8) == [caller]
    assert map_in_flight(lambda _: threading.get_ident(), [], 8) == []


def test_map_in_flight_bounds_concurrency():
    lock = threading.Lock()
    running = peak = 0
    threads = set()

    def work(_):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
            threads.add(threading.get_ident())
        time.sleep(0.002)
        with lock:
            running -= 1

    map_in_flight(work, range(30), 3)
    assert 1 < peak <= 3
    assert len(threads) <= 3
    map_in_flight(work, range(2), 8)
    assert len(threads) <= 3 + 2


def test_map_in_flight_raises_lowest_failure_and_stops_dispatch():
    started = []
    lock = threading.Lock()
    seven_failing = threading.Event()

    def work(i):
        with lock:
            started.append(i)
        if i == 5:
            seven_failing.wait(timeout=5)  # a higher item fails first
            raise ValueError("item 5")
        if i == 7:
            seven_failing.set()
            raise ValueError("item 7")
        time.sleep(0.001)
        return i

    with pytest.raises(ValueError, match="item 5"):
        map_in_flight(work, range(100), 4)
    assert set(range(8)) <= set(started)
    assert len(started) <= 7 + 4


class FailsOnBatch:
    """Embedder that fails non-retryably on the batch starting with ``first``."""

    tag = "fails-on-batch"

    def __init__(self, first):
        self.first = first
        self.calls = 0
        self.lock = threading.Lock()

    def embed(self, texts):
        with self.lock:
            self.calls += 1
        if texts[0] == self.first:
            raise ProviderError(400, "bad batch", retryable=False)
        time.sleep(0.001)
        return [np.ones(4) for _ in texts]


def test_embed_texts_stops_after_a_failed_batch():
    texts = [f"t{i}" for i in range(64 * 20)]
    provider = FailsOnBatch(first=texts[64 * 3])
    with pytest.raises(ProviderError, match="bad batch"):
        embed_texts(provider, texts, sleep=lambda _: None, max_in_flight=2)
    assert 4 <= provider.calls <= 3 + 2


class RaggedProvider:
    tag = "ragged"

    def embed(self, texts):
        return [np.ones(4), np.ones(5)]


def test_inconsistent_dimensions_rejected():
    with pytest.raises(DimensionMismatch):
        embed_texts(RaggedProvider(), ["a", "b"])


def test_http_adapter_wire_format(monkeypatch):
    monkeypatch.setenv("QGEN_API_KEY", "secret-key")
    seen = {}

    def fake_transport(url, payload, headers, timeout):
        seen.update(url=url, payload=payload, headers=headers)
        return {"data": [{"embedding": [1.0, 0.0, 0.0]} for _ in payload["input"]]}

    provider = HttpEmbeddingProvider("https://api.example.test/embed", "embed-small",
                                     transport=fake_transport)
    vectors = embed_texts(provider, ["teks satu", "teks dua"])
    assert seen["payload"] == {"model": "embed-small", "input": ["teks satu", "teks dua"]}
    assert seen["headers"]["Authorization"] == "Bearer secret-key"
    assert len(vectors) == 2
    assert provider.tag == "http:embed-small"


def test_http_adapter_requires_api_key(monkeypatch):
    monkeypatch.delenv("QGEN_API_KEY", raising=False)
    with pytest.raises(ConfigError, match="QGEN_API_KEY"):
        HttpEmbeddingProvider("https://api.example.test/embed", "embed-small")


def test_http_adapter_alternate_response_shape(monkeypatch):
    monkeypatch.setenv("QGEN_API_KEY", "secret-key")
    provider = HttpEmbeddingProvider(
        "https://api.example.test/embed", "m",
        transport=lambda url, payload, headers, timeout: {"embeddings": [[0.0, 2.0]]},
    )
    (v,) = embed_texts(provider, ["x"])
    assert v.tolist() == [0.0, 1.0]
