from __future__ import annotations

import math

import pytest

from qgen.chat import MockChatProvider
from qgen.chunking import Chunk, LearningStandard, Strategy
from qgen.embedding import embed_texts
from qgen.errors import PipelineStateError
from qgen.generate import GenOutcome, GenRequest, Method, embed_rag_queries, generate_batch, generate_mcq
from qgen.jsonio import dumps, loads
from qgen.mcq import Mcq, ParseFailure, parse_mcq_json
from qgen.vectorindex import build_index
from tests.malformed_corpus import MALFORMED_CASES

STANDARDS = [
    LearningStandard("1.1.1", "Mengenal nombor positif dan nombor negatif."),
    LearningStandard("1.1.2", "Mengenal dan memerihalkan integer."),
    LearningStandard("1.1.3", "Mewakilkan integer pada garis nombor."),
    LearningStandard("1.2.1", "Menambah dan menolak integer menggunakan garis nombor."),
    LearningStandard("1.2.2", "Mendarab dan membahagi integer."),
    LearningStandard("1.2.6", "Menyelesaikan masalah yang melibatkan integer."),
]

KNOWLEDGE_TEXTS = [
    "Standard Pembelajaran 1.1.2: Mengenal dan memerihalkan integer.",
    "Standard Pembelajaran 1.1.3: Mewakilkan integer pada garis nombor.",
    "Standard Pembelajaran 1.2.1: Menambah dan menolak integer menggunakan garis nombor.",
    "Contoh 7(a): Hitung -8 x (-2 + 3) mengikut tertib operasi.",
    "Latih Diri 5: Hitung 5 + (-3) menggunakan garis nombor.",
]


@pytest.fixture
def knowledge_index(mock_embedder):
    chunks = [
        Chunk(chunk_id=f"nota:structure_aware:{i:04d}", doc_id="nota", text=t,
              strategy=Strategy.STRUCTURE_AWARE)
        for i, t in enumerate(KNOWLEDGE_TEXTS)
    ]
    vectors = embed_texts(mock_embedder, [c.text for c in chunks])
    return build_index(chunks, vectors, provider_tag=mock_embedder.tag)


def test_basic_prompt_parses_with_mock(mock_chat):
    request = GenRequest(method=Method.BASIC_PROMPT, topic="Nombor Nisbah")
    outcome = generate_mcq(mock_chat, request, outcome_id="basic:0000")
    assert isinstance(outcome.result, Mcq)
    assert outcome.retrieved_chunk_ids == ()
    assert outcome.provider_tag == "mock-chat-v1"
    assert len(outcome.prompt_fingerprint) == 64


def test_malformed_mock_yields_parse_failure_with_raw():
    chat = MockChatProvider(malformed_rate=1.0)
    request = GenRequest(method=Method.BASIC_PROMPT, topic="integer")
    outcome = generate_mcq(chat, request)
    assert isinstance(outcome.result, ParseFailure)
    assert outcome.result.raw_text.startswith('{"stem"')


def test_structured_never_fails_even_with_malformed_mode():
    chat = MockChatProvider(malformed_rate=1.0)
    request = GenRequest(method=Method.STRUCTURED_PROMPT, topic="integer")
    for _ in range(5):
        outcome = generate_mcq(chat, request)
        assert isinstance(outcome.result, Mcq)


class SchemaChat:
    """Answers every schema-constrained request with one fixed completion."""

    tag = "schema-chat"

    def __init__(self, content):
        self.content = content

    def complete(self, system, user, *, temperature=0.7, seed=None):
        raise AssertionError("the structured method asked for a plain completion")

    def complete_structured(self, system, user, schema, *, temperature=0.7, seed=None):
        assert schema
        return self.content


def _object_payloads():
    for raw, _ in MALFORMED_CASES:
        try:
            payload = loads(raw)
        except ValueError:
            continue
        if isinstance(payload, dict):
            yield payload


OBJECT_PAYLOADS = list(_object_payloads())


@pytest.mark.parametrize("payload", OBJECT_PAYLOADS, ids=range(len(OBJECT_PAYLOADS)))
def test_structured_response_is_parsed_like_a_plain_completion(payload):
    content = dumps(payload).decode()
    outcome = generate_mcq(SchemaChat(content), GenRequest(method=Method.STRUCTURED_PROMPT, topic="integer"))
    expected = parse_mcq_json(content)
    assert isinstance(expected, ParseFailure)
    assert outcome.result == expected


def test_rag_retrieval_matches_brute_force_oracle(mock_chat, mock_embedder, knowledge_index):
    (outcome,) = generate_batch(mock_chat, Method.RAG_STRUCTURE_AWARE, 1, topic="Nombor Nisbah",
                                standards=[STANDARDS[3]], retrieval_k=3, index=knowledge_index,
                                rag_queries=embed_rag_queries(mock_embedder, 1, topic="Nombor Nisbah",
                                                              standards=[STANDARDS[3]]))
    assert len(outcome.retrieved_chunk_ids) == 3

    query = embed_texts(mock_embedder, [f"Nombor Nisbah {STANDARDS[3].description}"])[0]
    scored = []
    for i, chunk in enumerate(knowledge_index.chunks):
        row = knowledge_index.matrix[i]
        dot = math.fsum(a * b for a, b in zip(row, query))
        scored.append((-dot, chunk.chunk_id))
    expected = [cid for _, cid in sorted(scored)[:3]]
    assert list(outcome.retrieved_chunk_ids) == expected


def test_rag_grounds_stem_in_top_chunk(mock_chat, mock_embedder, knowledge_index):
    (outcome,) = generate_batch(mock_chat, Method.RAG_GENERIC, 1, topic="Nombor Nisbah",
                                standards=[STANDARDS[2]], retrieval_k=2, index=knowledge_index,
                                rag_queries=embed_rag_queries(mock_embedder, 1, topic="Nombor Nisbah",
                                                              standards=[STANDARDS[2]]))
    (top_chunk,) = [c for c in knowledge_index.chunks if c.chunk_id == outcome.retrieved_chunk_ids[0]]
    first_line = top_chunk.text.split("\n")[0]
    assert first_line.split()[0] in outcome.result.stem


def test_missing_index_and_embedder(mock_chat, mock_embedder, knowledge_index):
    with pytest.raises(PipelineStateError, match="requires a vector index"):
        generate_batch(mock_chat, Method.RAG_GENERIC, 1, topic="t", standards=STANDARDS,
                       retrieval_k=2, index=None,
                       rag_queries=embed_rag_queries(mock_embedder, 1, topic="t", standards=STANDARDS))
    with pytest.raises(PipelineStateError, match="requires an embedding provider"):
        generate_batch(mock_chat, Method.RAG_GENERIC, 1, topic="t", standards=STANDARDS,
                       retrieval_k=2, index=knowledge_index, rag_queries=None)


def test_rag_batch_refuses_a_query_count_other_than_n(mock_chat, mock_embedder, knowledge_index):
    queries = embed_rag_queries(mock_embedder, 2, topic="t", standards=STANDARDS)
    assert queries.shape == (2, mock_embedder.dim)
    with pytest.raises(PipelineStateError, match="got retrieval queries for 2 requests, not 3"):
        generate_batch(mock_chat, Method.RAG_GENERIC, 3, topic="t", standards=STANDARDS,
                       retrieval_k=2, index=knowledge_index, rag_queries=queries)


def test_request_invariant_retrieval_k():
    with pytest.raises(ValueError):
        GenRequest(method=Method.RAG_GENERIC, topic="t")
    with pytest.raises(ValueError):
        GenRequest(method=Method.BASIC_PROMPT, topic="t", retrieval_k=3)


def test_batch_round_robin_covers_standards(mock_chat):
    outcomes = generate_batch(mock_chat, Method.BASIC_PROMPT, 6,
                              topic="Nombor Nisbah", standards=STANDARDS)
    assert len(outcomes) == 6
    used = [o.request.target_standard.code for o in outcomes]
    assert sorted(used) == [s.code for s in STANDARDS]


def test_batch_seeded_failure_schedule_is_exact():
    chat = MockChatProvider(malformed_rate=0.04)
    outcomes = generate_batch(chat, Method.BASIC_PROMPT, 100,
                              topic="Nombor Nisbah", standards=STANDARDS)
    assert len(outcomes) == 100
    failures = [o for o in outcomes if o.failed]
    assert len(failures) == 4
    for f in failures:
        assert f.result.raw_text


def test_batch_returns_exactly_n_despite_failures():
    chat = MockChatProvider(malformed_rate=0.5)
    outcomes = generate_batch(chat, Method.BASIC_PROMPT, 17,
                              topic="t", standards=STANDARDS)
    assert len(outcomes) == 17


def test_rag_batch_every_outcome_has_retrieved_ids(mock_chat, mock_embedder, knowledge_index):
    outcomes = generate_batch(mock_chat, Method.RAG_STRUCTURE_AWARE, 10,
                              topic="Nombor Nisbah", standards=STANDARDS,
                              retrieval_k=2, index=knowledge_index,
                              rag_queries=embed_rag_queries(mock_embedder, 10, topic="Nombor Nisbah",
                                                            standards=STANDARDS))
    assert len(outcomes) == 10
    for o in outcomes:
        assert o.retrieved_chunk_ids
        assert set(o.retrieved_chunk_ids) <= {c.chunk_id for c in knowledge_index.chunks}


def test_batch_outcome_ids_are_unique_and_ordered(mock_chat):
    outcomes = generate_batch(mock_chat, Method.BASIC_PROMPT, 4, topic="t", standards=STANDARDS)
    assert [o.outcome_id for o in outcomes] == [f"basic_prompt:{i:04d}" for i in range(4)]


def test_fingerprint_stable_for_same_request(mock_chat):
    request = GenRequest(method=Method.BASIC_PROMPT, topic="Nombor Nisbah")
    a = generate_mcq(mock_chat, request)
    b = generate_mcq(mock_chat, request)
    assert a.prompt_fingerprint == b.prompt_fingerprint


class FlakyChat:
    """Fails with scripted errors before delegating to the mock provider."""

    tag = "flaky-chat"

    def __init__(self, errors):
        self.errors = list(errors)
        self.inner = MockChatProvider()
        self.calls = 0

    def complete(self, system, user, *, temperature=0.7, seed=None):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.inner.complete(system, user, temperature=temperature, seed=seed)

    def complete_structured(self, system, user, schema, *, temperature=0.7, seed=None):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.inner.complete_structured(system, user, schema, temperature=temperature, seed=seed)


def test_chat_transport_errors_retried():
    from qgen.embedding import ProviderPolicy
    from qgen.errors import ProviderError

    chat = FlakyChat([ProviderError(503, "down", retryable=True)] * 2)
    (outcome,) = generate_batch(chat, Method.BASIC_PROMPT, 1, topic="t", standards=[],
                                policy=ProviderPolicy(max_retries=3, base_delay=0.0))
    assert isinstance(outcome.result, Mcq)
    assert chat.calls == 3


def test_chat_retries_exhausted_propagates():
    from qgen.embedding import ProviderPolicy
    from qgen.errors import ProviderError

    chat = FlakyChat([ProviderError(503, "down", retryable=True)] * 10)
    with pytest.raises(ProviderError):
        generate_batch(chat, Method.STRUCTURED_PROMPT, 1, topic="t", standards=[],
                       policy=ProviderPolicy(max_retries=2, base_delay=0.0))
    assert chat.calls == 3


def test_outcome_serialization_round_trip(mock_chat, mock_embedder, knowledge_index):
    request = GenRequest(method=Method.RAG_GENERIC, topic="Nombor Nisbah",
                         target_standard=STANDARDS[1], retrieval_k=2, seed_hint=7)
    outcome = generate_mcq(mock_chat, request, knowledge_index.chunks[:2], outcome_id="rag_generic:0007")
    assert GenOutcome.from_dict(outcome.to_dict()) == outcome

    failing = MockChatProvider(malformed_rate=1.0)
    failed = generate_mcq(failing, GenRequest(method=Method.BASIC_PROMPT, topic="t"))
    assert GenOutcome.from_dict(failed.to_dict()) == failed
