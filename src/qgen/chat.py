"""Chat completion providers.

The provider contract has two capabilities: plain completion and
schema-constrained completion. The deterministic mock implements both so
the whole pipeline runs offline; the HTTP adapter maps the contract onto a
JSON chat endpoint.
"""

from __future__ import annotations

import math
import os
import re
from typing import Protocol

from . import wire
from .errors import InputError, ProviderError
from .jsonio import dumps, loads


class ChatProvider(Protocol):
    tag: str

    def complete(self, system: str, user: str, *, temperature: float = 0.7,
                 seed: int | None = None) -> str: ...

    def complete_structured(self, system: str, user: str, schema: dict, *,
                            temperature: float = 0.7, seed: int | None = None) -> str: ...


# Off-curriculum stems for non-grounded prompts; vocabulary deliberately
# avoids the fixture corpus so alignment scores stay near zero.
_GENERIC_STEMS = (
    "Siapakah pelukis agung zaman pembaharuan Itali?",
    "Apakah ibu kota empayar Rom purba?",
    "Apakah lautan terluas di dunia?",
    "Siapakah pengarang hikayat lama tersebut?",
    "Apakah gunung tertinggi di Asia Tenggara?",
    "Siapakah saintis pencipta teleskop awal?",
    "Apakah planet paling hampir dengan matahari?",
    "Apakah burung kebangsaan negara kita?",
)

_GENERIC_OPTIONS = ("Pilihan pertama", "Pilihan kedua", "Pilihan ketiga", "Pilihan keempat")
_RAG_OPTIONS = ("-8", "-2", "1", "8")

_CONTEXT_BLOCK_RE = re.compile(r"\[(?P<cid>[^\]\n]+)\]\n(?P<body>.*?)\n---", re.DOTALL)

_QA_MARKER = "Jawab soalan berikut"
_RAG_MARKER = "Konteks nota:"

# Seconds an HTTP chat round-trip may take before it fails as a network error.
_HTTP_TIMEOUT = 120.0

REFUSAL_TEXT = "Maaf, soalan ini tidak dapat dijawab berdasarkan konteks yang diberikan."


def _first_context_body(user: str) -> str | None:
    m = _CONTEXT_BLOCK_RE.search(user)
    return m.group("body") if m else None


class MockChatProvider:
    """Deterministic offline stand-in for a chat model.

    Behaviour is a pure function of (prompt, seed) and two explicit knobs:
    ``malformed_rate``, in [0, 1] as ``RunConfig`` checked it, injects broken
    JSON into plain MCQ completions on a fixed arithmetic schedule over the
    request seed (the generation ordinal; every prefix of seeds 0..n-1 holds
    exactly ``floor(n * rate)`` malformed ones), and ``refuse_questions``
    makes the QA mode answer with a refusal. Calls share no state, so any
    call order or concurrency gives the same outputs. A missing seed counts
    as seed 0. Grounded prompts yield stems built from the first retrieved
    chunk, so retrieval quality propagates into the generated question text.
    """

    def __init__(self, malformed_rate: float = 0.0, refuse_questions: bool = False):
        self.tag = "mock-chat-v1"
        self.malformed_rate = malformed_rate
        self.refuse_questions = refuse_questions

    # -- scheduling ------------------------------------------------------

    def _is_malformed(self, seed: int) -> bool:
        return math.floor((seed + 1) * self.malformed_rate) > math.floor(seed * self.malformed_rate)

    # -- content synthesis -----------------------------------------------

    def _mcq_payload(self, user: str, seed: int) -> dict:
        body = _first_context_body(user) if _RAG_MARKER in user else None
        if body is not None:
            line = body.strip().split("\n")[0]
            line = " ".join(line.split()[:24])
            stem = f"{line} Antara berikut, yang manakah benar?"
            options = _RAG_OPTIONS
            answer = "B"
            explanation = f"Rujuk nota: {line}"
        else:
            stem = _GENERIC_STEMS[seed % len(_GENERIC_STEMS)]
            options = _GENERIC_OPTIONS
            answer = "A"
            explanation = "Jawapan umum."
        return {
            "stem": stem,
            "options": [{"label": label, "text": text} for label, text in zip("ABCD", options)],
            "answer_key": answer,
            "explanation": explanation,
        }

    def _qa_answer(self, user: str) -> str:
        if self.refuse_questions:
            return REFUSAL_TEXT
        body = _first_context_body(user)
        if body is None:
            return REFUSAL_TEXT
        line = body.strip().split("\n")[0]
        return f"Berdasarkan konteks rujukan: {line}"

    # -- provider contract -------------------------------------------------

    def complete(self, system: str, user: str, *, temperature: float = 0.7,
                 seed: int | None = None) -> str:
        del system, temperature
        if _QA_MARKER in user:
            return self._qa_answer(user)
        seed = seed or 0
        if self._is_malformed(seed):
            return '{"stem": "Soalan tidak leng'
        return dumps(self._mcq_payload(user, seed)).decode()

    def complete_structured(self, system: str, user: str, schema: dict, *,
                            temperature: float = 0.7, seed: int | None = None) -> str:
        del system, schema, temperature
        # Schema-constrained mode is guaranteed well-formed by contract, so
        # the malformed schedule never applies here.
        return dumps(self._mcq_payload(user, seed or 0)).decode()


class HttpChatProvider:
    """Adapter for an HTTP chat-completion endpoint.

    Wire contract: POST ``{"model", "messages", "temperature"}`` plus
    ``"response_schema"`` for schema-constrained requests and ``"seed"``
    when given; bearer token from the configured environment variable. The
    response carries the completion at ``choices[0].message.content`` (or a
    top-level ``content``), a string, JSON-encoded for structured requests;
    content of any other type, and structured content that is not a strict
    JSON object, is a non-retryable :class:`ProviderError`. Both methods
    return the content exactly as the endpoint sent it.
    """

    def __init__(self, endpoint: str, model: str, api_key_env: str = "QGEN_API_KEY"):
        if not endpoint:
            raise InputError("chat endpoint must be configured for non-mock runs")
        key = os.environ.get(api_key_env, "")
        if not key:
            raise InputError(f"environment variable {api_key_env} must be set for non-mock runs")
        self.endpoint = endpoint
        self.model = model
        self.tag = f"http:{model}"
        self._key = key

    def _request(self, system: str, user: str, temperature: float,
                 schema: dict | None, seed: int | None) -> str:
        payload: dict = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": temperature,
        }
        if schema is not None:
            payload["response_schema"] = schema
        if seed is not None:
            payload["seed"] = seed
        body = wire.http_post_json(self.endpoint, payload, {"Authorization": f"Bearer {self._key}"},
                                   timeout=_HTTP_TIMEOUT)
        try:
            content = body["choices"][0]["message"]["content"] if "choices" in body else body["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(0, f"chat response missing completion content: {exc}", retryable=False) from exc
        if not isinstance(content, str):
            raise ProviderError(0, f"chat response content is {type(content).__name__}, not a string",
                                retryable=False)
        return content

    def complete(self, system: str, user: str, *, temperature: float = 0.7,
                 seed: int | None = None) -> str:
        return self._request(system, user, temperature, None, seed)

    def complete_structured(self, system: str, user: str, schema: dict, *,
                            temperature: float = 0.7, seed: int | None = None) -> str:
        content = self._request(system, user, temperature, schema, seed)
        try:
            data = loads(content)
        except ValueError as exc:
            raise ProviderError(0, f"schema-constrained response is not JSON: {exc}", retryable=False) from exc
        if not isinstance(data, dict):
            raise ProviderError(0, "schema-constrained response is not a JSON object", retryable=False)
        return content
