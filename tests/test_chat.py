from __future__ import annotations

import io
import json
import math
import random
import urllib.error

import pytest

import qgen.wire
from qgen.chat import REFUSAL_TEXT, HttpChatProvider, MockChatProvider
from qgen.errors import InputError, ProviderError
from qgen.generate import GenRequest, Method, generate_mcq
from qgen.jsonio import loads
from qgen.mcq import Mcq, ParseFailure, parse_mcq_json
from qgen.prompts import MCQ_RESPONSE_SCHEMA, build_prompt_basic, build_prompt_qa, build_prompt_rag
from qgen.wire import http_post_json
from tests.test_prompts import make_chunk


def test_mock_plain_completion_is_parseable():
    chat = MockChatProvider()
    bundle = build_prompt_basic("Nombor Nisbah")
    raw = chat.complete(bundle.system_text, bundle.user_text)
    assert isinstance(parse_mcq_json(raw), Mcq)


def test_mock_structured_returns_schema_shaped_dict():
    chat = MockChatProvider(malformed_rate=1.0)
    payload = loads(chat.complete_structured("s", "u", MCQ_RESPONSE_SCHEMA))
    assert set(payload) == {"stem", "options", "answer_key", "explanation"}
    assert len(payload["options"]) == 4


def test_mock_seed_varies_generic_stems():
    chat = MockChatProvider()
    bundle = build_prompt_basic("topik")
    a = chat.complete(bundle.system_text, bundle.user_text, seed=0)
    b = chat.complete(bundle.system_text, bundle.user_text, seed=1)
    assert json.loads(a)["stem"] != json.loads(b)["stem"]
    again = MockChatProvider().complete(bundle.system_text, bundle.user_text, seed=0)
    assert json.loads(a) == json.loads(again)


def test_mock_rag_stem_echoes_first_chunk():
    chat = MockChatProvider()
    chunks = [make_chunk("c1", "Contoh 3: tolak integer di garis nombor."),
              make_chunk("c2", "Latih Diri 9: cuba soalan ini.")]
    bundle = build_prompt_rag("topik", chunks)
    stem = json.loads(chat.complete(bundle.system_text, bundle.user_text))["stem"]
    assert stem.startswith("Contoh 3")


def test_mock_qa_answers_from_context():
    chat = MockChatProvider()
    bundle = build_prompt_qa("Apakah integer?", [make_chunk("s1", "1.1.2 Mengenal integer.")])
    answer = chat.complete(bundle.system_text, bundle.user_text)
    assert "1.1.2 Mengenal integer." in answer
    assert "tidak dapat dijawab" not in answer.lower()


def test_mock_refusal_mode():
    chat = MockChatProvider(refuse_questions=True)
    bundle = build_prompt_qa("Apakah integer?", [make_chunk("s1", "1.1.2 Mengenal integer.")])
    assert chat.complete(bundle.system_text, bundle.user_text) == REFUSAL_TEXT


def test_mock_malformed_schedule_prefix_counts():
    chat = MockChatProvider(malformed_rate=0.25)
    bundle = build_prompt_basic("t")
    results = [chat.complete(bundle.system_text, bundle.user_text, seed=i) for i in range(40)]
    malformed = [r for r in results if not isinstance(parse_mcq_json(r), Mcq)]
    assert len(malformed) == 10


def test_mock_malformed_schedule_is_independent_of_call_order():
    bundle = build_prompt_basic("t")
    forward = list(range(40))
    shuffled = random.Random(3).sample(forward, len(forward))
    malformed_sets = []
    for order in (forward, forward[::-1], shuffled):
        chat = MockChatProvider(malformed_rate=0.3)
        raws = {seed: chat.complete(bundle.system_text, bundle.user_text, seed=seed) for seed in order}
        malformed_sets.append({seed for seed, raw in raws.items() if not isinstance(parse_mcq_json(raw), Mcq)})
    assert malformed_sets[0] == malformed_sets[1] == malformed_sets[2]
    for n in range(41):
        assert len({seed for seed in malformed_sets[0] if seed < n}) == math.floor(n * 0.3)


def test_http_chat_wire_format(monkeypatch):
    monkeypatch.setenv("QGEN_API_KEY", "k123")
    seen = {}

    def fake_transport(url, payload, headers, timeout):
        seen.update(url=url, payload=payload, headers=headers)
        return {"choices": [{"message": {"content": "jawapan model"}}]}

    monkeypatch.setattr(qgen.wire, "http_post_json", fake_transport)
    chat = HttpChatProvider("https://api.example.test/chat", "chat-large")
    out = chat.complete("arahan sistem", "soalan pengguna", temperature=0.4, seed=11)
    assert out == "jawapan model"
    assert seen["payload"]["model"] == "chat-large"
    assert seen["payload"]["temperature"] == 0.4
    assert seen["payload"]["seed"] == 11
    assert seen["payload"]["messages"][0] == {"role": "system", "content": "arahan sistem"}
    assert seen["payload"]["messages"][1] == {"role": "user", "content": "soalan pengguna"}
    assert "response_schema" not in seen["payload"]
    assert seen["headers"]["Authorization"] == "Bearer k123"


def test_http_chat_structured_parses_json_content(monkeypatch):
    monkeypatch.setenv("QGEN_API_KEY", "k123")
    body = {"stem": "s", "options": [], "answer_key": "A", "explanation": ""}

    def fake_transport(url, payload, headers, timeout):
        assert payload["response_schema"] == MCQ_RESPONSE_SCHEMA
        return {"choices": [{"message": {"content": json.dumps(body)}}]}

    monkeypatch.setattr(qgen.wire, "http_post_json", fake_transport)
    chat = HttpChatProvider("https://api.example.test/chat", "m")
    assert chat.complete_structured("s", "u", MCQ_RESPONSE_SCHEMA) == json.dumps(body)


def test_schema_mode_parse_failure_records_the_endpoints_text(monkeypatch):
    monkeypatch.setenv("QGEN_API_KEY", "k123")
    content = '{"stem": "Apakah integer?", "options": ["a", "b", "c"], "answer_key": "A"}'
    monkeypatch.setattr(qgen.wire, "http_post_json",
                        lambda url, payload, headers, timeout: {"choices": [{"message": {"content": content}}]})
    chat = HttpChatProvider("https://api.example.test/chat", "m")
    outcome = generate_mcq(chat, GenRequest(method=Method.STRUCTURED_PROMPT, topic="integer"))
    assert isinstance(outcome.result, ParseFailure)
    assert outcome.result.raw_text == content


def test_http_chat_structured_rejects_non_json(monkeypatch):
    monkeypatch.setenv("QGEN_API_KEY", "k123")
    monkeypatch.setattr(qgen.wire, "http_post_json", lambda url, payload, headers, timeout: {"content": "bukan json"})
    chat = HttpChatProvider("https://api.example.test/chat", "m")
    with pytest.raises(ProviderError):
        chat.complete_structured("s", "u", MCQ_RESPONSE_SCHEMA)


@pytest.mark.parametrize("content", [None, 7, {"text": "jawapan"}, ["jawapan"]],
                         ids=["null", "number", "object", "array"])
@pytest.mark.parametrize("structured", [False, True], ids=["plain", "structured"])
def test_http_chat_refuses_content_that_is_not_a_string(monkeypatch, content, structured):
    monkeypatch.setenv("QGEN_API_KEY", "k123")
    calls = []

    def fake_transport(url, payload, headers, timeout):
        calls.append(payload)
        return {"choices": [{"message": {"content": content}}]}

    monkeypatch.setattr(qgen.wire, "http_post_json", fake_transport)
    chat = HttpChatProvider("https://api.example.test/chat", "m")
    with pytest.raises(ProviderError, match=f"content is {type(content).__name__}, not a string") as refused:
        if structured:
            chat.complete_structured("s", "u", MCQ_RESPONSE_SCHEMA)
        else:
            chat.complete("s", "u")
    assert not refused.value.retryable
    assert len(calls) == 1


def test_http_chat_requires_api_key(monkeypatch):
    monkeypatch.delenv("QGEN_API_KEY", raising=False)
    with pytest.raises(InputError, match="environment variable QGEN_API_KEY must be set"):
        HttpChatProvider("https://api.example.test/chat", "m")


def test_wire_maps_http_errors_to_provider_error(monkeypatch):
    def raise_429(request, timeout):
        raise urllib.error.HTTPError(request.full_url, 429, "Too Many Requests", {}, io.BytesIO())

    monkeypatch.setattr("urllib.request.urlopen", raise_429)
    with pytest.raises(ProviderError) as exc_info:
        http_post_json("https://api.example.test/x", {}, {})
    assert exc_info.value.status == 429
    assert exc_info.value.retryable


def test_wire_maps_network_errors_retryable(monkeypatch):
    def raise_unreachable(request, timeout):
        raise urllib.error.URLError("unreachable")

    monkeypatch.setattr("urllib.request.urlopen", raise_unreachable)
    with pytest.raises(ProviderError) as exc_info:
        http_post_json("https://api.example.test/x", {}, {})
    assert exc_info.value.retryable
