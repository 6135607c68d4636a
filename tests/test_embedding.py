from __future__ import annotations

import ast
import email.message
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
import urllib.error
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qgen
from qgen.embedding import (
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    ProviderPolicy,
    _bucket,
    embed_texts,
    map_in_flight,
)
from qgen.errors import InputError, ProviderError
from qgen.wire import http_post_json
from tests.conftest import TRANSPORT_FAILURES, RecordingEmbedder, failing_urlopen


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
    with pytest.raises(InputError, match=r"texts\[1\] is empty"):
        embed_texts(mock_embedder, ["ok", ""])
    with pytest.raises(InputError, match=r"texts\[0\] is empty"):
        embed_texts(mock_embedder, ["   "])


def test_empty_list_is_noop(mock_embedder):
    assert embed_texts(mock_embedder, []).shape == (0, 0)


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


def test_retryable_errors_are_retried_with_backoff(monkeypatch):
    provider = FlakyProvider([
        ProviderError(429, "rate limited", retryable=True),
        ProviderError(503, "unavailable", retryable=True),
    ])
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    vectors = embed_texts(provider, ["a"], ProviderPolicy(max_retries=3, base_delay=0.5))
    assert provider.calls == 3
    assert len(vectors) == 1
    assert sleeps == [0.5, 1.0]


def test_retries_exhausted_surfaces_error(monkeypatch):
    provider = FlakyProvider([ProviderError(429, "rate limited", retryable=True)] * 10)
    monkeypatch.setattr(time, "sleep", lambda _: None)
    with pytest.raises(ProviderError) as exc_info:
        embed_texts(provider, ["a"], ProviderPolicy(max_retries=3, base_delay=0.0))
    assert exc_info.value.retryable
    assert provider.calls == 4  # initial attempt + 3 retries


def test_non_retryable_error_not_retried(monkeypatch):
    provider = FlakyProvider([ProviderError(401, "bad key", retryable=False)])
    monkeypatch.setattr(time, "sleep", lambda _: None)
    with pytest.raises(ProviderError):
        embed_texts(provider, ["a"])
    assert provider.calls == 1


def test_concurrent_dispatch_preserves_input_order(mock_embedder):
    texts = [f"ayat nombor {i} tentang integer" for i in range(300)]
    sequential = embed_texts(mock_embedder, texts, ProviderPolicy(max_in_flight=1))
    concurrent = embed_texts(mock_embedder, texts, ProviderPolicy(max_in_flight=4))
    assert len(concurrent) == 300
    for a, b in zip(sequential, concurrent):
        assert np.array_equal(a, b)


def test_map_in_flight_keeps_input_order_under_contention():
    # More workers than cores and a short switch interval shuffle completion order.
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        out = map_in_flight(lambda i: (time.sleep(0.0005 * (i % 3)), i * i)[1], range(200),
                            ProviderPolicy(max_in_flight=8))
    finally:
        sys.setswitchinterval(previous)
    assert out == [i * i for i in range(200)]


def test_map_in_flight_serial_cases_stay_on_calling_thread():
    caller = threading.get_ident()
    serial, eight = ProviderPolicy(max_in_flight=1), ProviderPolicy(max_in_flight=8)
    assert map_in_flight(lambda _: threading.get_ident(), range(5), serial) == [caller] * 5
    assert map_in_flight(lambda _: threading.get_ident(), [0], eight) == [caller]
    assert map_in_flight(lambda _: threading.get_ident(), [], eight) == []


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

    map_in_flight(work, range(30), ProviderPolicy(max_in_flight=3))
    assert 1 < peak <= 3
    assert len(threads) <= 3
    map_in_flight(work, range(2), ProviderPolicy(max_in_flight=8))
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
        map_in_flight(work, range(100), ProviderPolicy(max_in_flight=4))
    assert set(range(8)) <= set(started)
    assert len(started) <= 7 + 4


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_map_in_flight_retries_only_the_item_that_failed(monkeypatch, max_in_flight):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    policy = ProviderPolicy(max_retries=2, base_delay=0.25, max_in_flight=max_in_flight)
    calls = []
    lock = threading.Lock()

    def work(i):
        with lock:
            calls.append(i)
            attempt = calls.count(i)
        if i in (3, 11) and attempt == 1:
            raise ProviderError(503, f"item {i} busy", retryable=True)
        if i in (2, 17) and attempt <= 2:
            raise ProviderError(429, f"item {i} limited", retryable=True, retry_after=0.4)
        return i * i

    assert map_in_flight(work, range(20), policy) == [i * i for i in range(20)]
    assert sorted(calls) == sorted([*range(20), 2, 2, 3, 11, 17, 17])
    assert sorted(sleeps) == [0.25, 0.25, 0.4, 0.4, 0.5, 0.5]

    calls.clear()

    def work_failing(i):
        with lock:
            calls.append(i)
            attempt = calls.count(i)
        if i == 1 and attempt == 1:
            raise ProviderError(503, "item 1 busy", retryable=True)
        if i in (6, 9):
            raise ProviderError(400, f"item {i} rejected", retryable=False)
        return i

    with pytest.raises(ProviderError, match="item 6 rejected"):
        map_in_flight(work_failing, range(20), policy)
    assert calls.count(1) == 2
    assert calls.count(6) == 1


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
        embed_texts(provider, texts, ProviderPolicy(max_in_flight=2))
    assert 4 <= provider.calls <= 3 + 2


class RaggedProvider:
    tag = "ragged"

    def embed(self, texts):
        return [np.ones(4), np.ones(5)]


def test_inconsistent_dimensions_rejected():
    with pytest.raises(ProviderError, match="embedding batch 0 is not one matrix of numbers") as refused:
        embed_texts(RaggedProvider(), ["a", "b"])
    assert not refused.value.retryable


class DimensionPerBatchProvider:
    """Embedder whose second batch comes back one entry wider than its first."""

    tag = "dimension-per-batch"

    def __init__(self):
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        return np.ones((len(texts), 3 + (texts[0] == "t64")))


def test_embed_texts_refuses_a_dimension_that_changes_between_batches():
    provider = DimensionPerBatchProvider()
    texts = [f"t{i}" for i in range(65)]
    with pytest.raises(ProviderError, match=r"embedding batch 1 has shape \(1, 4\), but batch 0 has dimension 3") \
            as refused:
        embed_texts(provider, texts)
    assert not refused.value.retryable
    assert provider.calls == 2


def test_embed_texts_batches_only_the_distinct_texts():
    provider = RecordingEmbedder()
    texts = [f"t{i % 100}" for i in range(200)]
    embed_texts(provider, texts, ProviderPolicy(max_in_flight=2))
    assert sorted(map(len, provider.batches), reverse=True) == [64, 36]
    assert sorted(t for batch in provider.batches for t in batch) == sorted(set(texts))


def test_embed_texts_sends_each_distinct_text_once():
    provider = RecordingEmbedder()
    texts = ["dua tiga", "satu", "dua tiga", "empat lima", "satu", "dua tiga"]
    vectors = embed_texts(provider, texts)
    assert provider.batches == [["dua tiga", "satu", "empat lima"]]
    reference = np.array([embed_texts(MockEmbeddingProvider(dim=64), [t])[0] for t in texts])
    assert vectors.tobytes() == reference.tobytes()


class RowProvider:
    """Embedder that returns ``row`` for ``text`` and a unit vector for every other text."""

    tag = "row"

    def __init__(self, text, row):
        self.text = text
        self.row = row

    def embed(self, texts):
        return [self.row if t == self.text else [1.0, 0.0] for t in texts]


@pytest.mark.parametrize("row", [[0.0, 0.0], [float("nan"), 1.0], [float("inf"), 0.0],
                                 [1e200, 1e200], [1e-200, 1e-200]],
                         ids=["zeros", "nan", "infinity", "length_overflows", "length_underflows"])
def test_embed_texts_refuses_a_row_without_a_direction(row):
    texts = [f"t{i}" for i in range(100)]
    with pytest.raises(ProviderError, match=r"embedding batch 1 row 6 is not a finite non-zero vector") \
            as refused:
        embed_texts(RowProvider("t70", row), texts, ProviderPolicy(max_in_flight=2))
    assert not refused.value.retryable


def test_http_adapter_wire_format(monkeypatch):
    monkeypatch.setenv("QGEN_API_KEY", "secret-key")
    seen = {}

    def fake_transport(url, payload, headers, timeout):
        seen.update(url=url, payload=payload, headers=headers)
        return {"data": [{"embedding": [1.0, 0.0, 0.0]} for _ in payload["input"]]}

    monkeypatch.setattr(qgen.wire, "http_post_json", fake_transport)
    provider = HttpEmbeddingProvider("https://api.example.test/embed", "embed-small")
    vectors = embed_texts(provider, ["teks satu", "teks dua"])
    assert seen["payload"] == {"model": "embed-small", "input": ["teks satu", "teks dua"]}
    assert seen["headers"]["Authorization"] == "Bearer secret-key"
    assert len(vectors) == 2
    assert provider.tag == "http:embed-small"


def test_http_adapter_requires_api_key(monkeypatch):
    monkeypatch.delenv("QGEN_API_KEY", raising=False)
    with pytest.raises(InputError, match="QGEN_API_KEY"):
        HttpEmbeddingProvider("https://api.example.test/embed", "embed-small")


def test_http_adapter_alternate_response_shape(monkeypatch):
    monkeypatch.setenv("QGEN_API_KEY", "secret-key")
    monkeypatch.setattr(qgen.wire, "http_post_json",
                        lambda url, payload, headers, timeout: {"embeddings": [[0.0, 2.0]]})
    provider = HttpEmbeddingProvider("https://api.example.test/embed", "m")
    (v,) = embed_texts(provider, ["x"])
    assert v.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("body, refusal", [
    ([[1.0, 0.0], [0.0, 1.0]], "embedding response is not a JSON object"),
    ({"data": [{"embedding": [1.0, 0.0]}, [0.0, 1.0]]}, r"embedding response data\[1\] is not an object"),
    ({"embeddings": [[1.0, 0.0], [0.0, "1.0"]]}, r"embeddings\[1\] is not a flat list of finite numbers"),
    ({"data": [{"embedding": [1.0, 0.0]}, {"embedding": [0.0, None]}]}, r"data\[1\] is not a flat list of finite numbers"),
    ({"embeddings": [[1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]]}, r"embeddings\[1\] is not a flat list of finite numbers"),
    ({"embeddings": [[1.0, 0.0], [False, True]]}, r"embeddings\[1\] is not a flat list of finite numbers"),
    ({"embeddings": [[1.0, 0.0], [math.nan, 1.0]]}, r"embeddings\[1\] is not a flat list of finite numbers"),
    ({"embeddings": [[1.0, 0.0], [10 ** 400, 1.0]]}, r"embedding batch 0 is not one matrix of numbers: int too large"),
])
def test_http_adapter_refuses_malformed_vectors(monkeypatch, body, refusal):
    monkeypatch.setenv("QGEN_API_KEY", "secret-key")
    calls = []

    def fake_transport(url, payload, headers, timeout):
        calls.append(payload)
        return body

    monkeypatch.setattr(qgen.wire, "http_post_json", fake_transport)
    provider = HttpEmbeddingProvider("https://api.example.test/embed", "m")
    monkeypatch.setattr(time, "sleep", lambda _: None)
    with pytest.raises(ProviderError, match=refusal) as refused:
        embed_texts(provider, ["satu", "dua"])
    assert not refused.value.retryable
    assert len(calls) == 1


# --- bitwise contracts of the matrix path ---------------------------------------


def reference_normalize(vector: np.ndarray) -> np.ndarray:
    """One vector at a time, as normalisation worked before it took matrices."""
    return vector / float(np.linalg.norm(vector))


def reference_mock_vector(text: str, dim: int) -> np.ndarray:
    """The mock's counts without the bucket memo: every token hashed on every use."""
    vec = np.zeros(dim, dtype=np.float64)
    tokens = re.findall(r"\w+", text.lower(), re.UNICODE)
    if not tokens:
        vec[_bucket(text, dim)] = 1.0
        return vec
    for token in tokens:
        vec[_bucket(token, dim)] += 1.0
    return vec


MOCK_TEXTS = [
    "Menambah dan menolak integer pada garis nombor.",
    "integer integer INTEGER nombor",
    "???",
    "Pecahan, perpuluhan dan peratusan dalam situasi harian",
    "ayat nombor 17 tentang integer negatif",
    "mendarab integer",
    "İstanbul",  # lowercases to a longer text
    "ΟΔΟΣ Σ",  # final sigma
    "\u2014",  # token-free, in the middle of the batch
    "x² ½ a_b c-d",
    "zero\u200dwidth no\u00a0break cafe\u0301",  # joiner, no-break space, combining mark
    "日本語",
] + [f"standard {i} nombor nisbah {i % 7} latihan {i * i}" for i in range(200)]


def test_embed_texts_returns_one_normalized_matrix(mock_embedder):
    vectors = embed_texts(mock_embedder, MOCK_TEXTS, ProviderPolicy(max_in_flight=3))
    assert vectors.shape == (len(MOCK_TEXTS), 64)
    ref = np.stack([reference_normalize(reference_mock_vector(t, 64)) for t in MOCK_TEXTS])
    assert vectors.tobytes() == ref.tobytes()


def test_embed_texts_scales_each_row_as_one_at_a_time_division_does():
    raw = np.random.default_rng(20251018).standard_normal((2000, 64))

    class RawRows:
        tag = "raw-rows"

        def embed(self, texts):
            return raw[[int(text) for text in texts]]

    vectors = embed_texts(RawRows(), [str(i) for i in range(len(raw))])
    assert vectors.tobytes() == np.stack([reference_normalize(v) for v in raw]).tobytes()


def test_memoised_mock_equals_unmemoised_reference():
    provider = MockEmbeddingProvider(dim=48)
    ref = np.stack([reference_mock_vector(t, 48) for t in MOCK_TEXTS])
    first = provider.embed(MOCK_TEXTS)
    again = provider.embed(MOCK_TEXTS[::-1])[::-1]
    assert first.dtype == np.float64
    assert first.tobytes() == ref.tobytes()
    assert again.tobytes() == ref.tobytes()
    assert provider.embed([]).shape == (0, 48)


# Word and non-word characters whose lowercasing or class is easy to get wrong.
_TRICKY = st.sampled_from(list(" _-\t\nİΣσςΟΔ\u200d\u00a0\u0301\u2014x²½日本aZ9"))


@settings(max_examples=150, deadline=None)
@given(texts=st.lists(st.text(st.one_of(st.characters(), _TRICKY), max_size=12), max_size=12),
       cuts=st.lists(st.integers(0, 12), max_size=4))
@example(texts=["a", "\ud800", "b"], cuts=[1, 2])
def test_batch_embed_equals_reference_for_any_text_and_split(texts, cuts):
    provider = MockEmbeddingProvider(dim=16)
    bounds = sorted({0, len(texts), *(c for c in cuts if c < len(texts))})
    parts, refs = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        try:
            part_refs = [reference_mock_vector(t, 16) for t in texts[lo:hi]]
        except UnicodeEncodeError:
            # A token-free text holding a lone surrogate, which is not UTF-8, cannot be hashed.
            with pytest.raises(UnicodeEncodeError):
                provider.embed(texts[lo:hi])
            continue
        parts.append(provider.embed(texts[lo:hi]))
        refs += part_refs
    got = np.concatenate(parts) if parts else provider.embed([])
    ref = np.stack(refs) if refs else np.zeros((0, 16))
    assert got.dtype == np.float64 and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_mock_counts_a_batch_in_one_bincount(monkeypatch):
    calls = []
    bincount = np.bincount

    def counting(*args, **kwargs):
        calls.append(args)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    MockEmbeddingProvider(dim=64).embed(MOCK_TEXTS)
    assert len(calls) == 1


def test_memoised_mock_is_exact_when_threads_share_one_instance():
    provider = MockEmbeddingProvider(dim=64)
    ref = {t: reference_mock_vector(t, 64).tobytes() for t in MOCK_TEXTS}
    mismatches = []

    def work(seed):
        order = random.Random(seed).sample(MOCK_TEXTS, len(MOCK_TEXTS))
        for lo in range(0, len(order), 16):
            batch = order[lo:lo + 16]
            for text, vec in zip(batch, provider.embed(batch)):
                if vec.tobytes() != ref[text]:
                    mismatches.append(text)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


# --- Retry-After ------------------------------------------------------------------


def _http_error(status: int, retry_after: str | None) -> urllib.error.HTTPError:
    headers = email.message.Message()
    if retry_after is not None:
        headers["Retry-After"] = retry_after
    return urllib.error.HTTPError("https://api.example.test/embed", status, "busy", headers, io.BytesIO())


@pytest.mark.parametrize(
    ("status", "header", "expected"),
    [
        (429, "7", 7.0),
        (503, "0.25", 0.25),
        (429, None, None),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", None),
        (429, "-3", None),
        (500, "7", None),
    ],
)
def test_wire_reads_retry_after_seconds(monkeypatch, status, header, expected):
    def raise_error(request, timeout):
        raise _http_error(status, header)

    monkeypatch.setattr("urllib.request.urlopen", raise_error)
    with pytest.raises(ProviderError) as exc_info:
        http_post_json("https://api.example.test/embed", {}, {})
    assert exc_info.value.status == status
    assert exc_info.value.retry_after == expected


@pytest.mark.parametrize("failure", sorted(TRANSPORT_FAILURES))
def test_wire_maps_transport_errors_to_retryable_provider_errors(monkeypatch, failure):
    monkeypatch.setattr("urllib.request.urlopen", failing_urlopen(failure))
    with pytest.raises(ProviderError, match="^provider error \\(status 0\\): network error: ") as exc_info:
        http_post_json("https://api.example.test/embed", {}, {})
    assert exc_info.value.status == 0
    assert exc_info.value.retryable


@pytest.mark.parametrize("failure", sorted(TRANSPORT_FAILURES))
def test_transport_error_is_retried(monkeypatch, failure):
    monkeypatch.setenv("QGEN_API_KEY", "secret-key")
    fail = failing_urlopen(failure)
    calls = []

    def urlopen(request, timeout):
        calls.append(request)
        if len(calls) == 1:
            return fail(request, timeout)
        return io.BytesIO(json.dumps({"embeddings": [[1.0, 0.0]]}).encode())

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    provider = HttpEmbeddingProvider("https://api.example.test/embed", "m")
    vectors = embed_texts(provider, ["a"], ProviderPolicy(max_retries=1, base_delay=0.5))
    assert vectors.tolist() == [[1.0, 0.0]]
    assert len(calls) == 2 and sleeps == [0.5]


@pytest.mark.parametrize(("header", "expected_sleeps"), [("7", [7.0]), ("0.1", [0.5]), (None, [0.5])])
def test_backoff_waits_at_least_retry_after(monkeypatch, header, expected_sleeps):
    monkeypatch.setenv("QGEN_API_KEY", "secret-key")
    responses = [_http_error(429, header)]

    def urlopen(request, timeout):
        if responses:
            raise responses.pop()
        texts = json.loads(request.data)["input"]
        return io.BytesIO(json.dumps({"embeddings": [[1.0, 0.0] for _ in texts]}).encode())

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    provider = HttpEmbeddingProvider("https://api.example.test/embed", "m")
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    vectors = embed_texts(provider, ["a"], ProviderPolicy(max_retries=3, base_delay=0.5))
    assert sleeps == expected_sleeps
    assert vectors.tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize("header", ["1e300", "86400"])
def test_backoff_caps_retry_after_at_60_s(monkeypatch, header):
    monkeypatch.setenv("QGEN_API_KEY", "secret-key")
    responses = [_http_error(503, header)]

    def urlopen(request, timeout):
        if responses:
            raise responses.pop()
        return io.BytesIO(json.dumps({"embeddings": [[1.0, 0.0]]}).encode())

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    provider = HttpEmbeddingProvider("https://api.example.test/embed", "m")
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    vectors = embed_texts(provider, ["a"], ProviderPolicy(max_retries=3, base_delay=0.5))
    assert sleeps == [60.0]
    assert vectors.tolist() == [[1.0, 0.0]]


def test_only_embedding_knows_the_retry_loop():
    """Backoff and retries live in ``map_in_flight`` alone, and no signature carries retry settings."""
    src = Path(qgen.embedding.__file__).parent
    loop_modules, retry_params = set(), []
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, (ast.FunctionDef, ast.alias)) else None)
            if name in ("sleep", "call_with_retries", "_call_with_retries"):
                loop_modules.add(module)
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                retry_params += [f"{module}: {a.arg}" for a in args if a.arg in ("retry", "sleep", "max_in_flight")]
    assert loop_modules == {"embedding.py"}
    assert retry_params == []


def test_only_embed_texts_reads_a_providers_embed():
    """A provider's vectors enter through ``embed_texts`` alone, so no second place re-checks them."""
    src = Path(qgen.embedding.__file__).parent
    readers = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing = {}
        for node in ast.walk(tree):
            name = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else enclosing.get(node)
            for child in ast.iter_child_nodes(node):
                enclosing[child] = name
        readers += [f"{path.relative_to(src).as_posix()}: {enclosing[node]}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "embed"]
    assert readers == ["embedding.py: embed_texts"]
