from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from qgen.embedding import (
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    RetryPolicy,
    embed_texts,
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
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
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
