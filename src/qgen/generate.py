"""Question generation: request/outcome types and the four-method pipeline.

Every request produces exactly one :class:`GenOutcome`; malformed model
output becomes a recorded :class:`ParseFailure`, never an exception, so
batches account for failures instead of dropping them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .chat import ChatProvider
from .chunking import Chunk, LearningStandard
from .embedding import EmbeddingProvider, ProviderPolicy, embed_texts, map_in_flight
from .jsonio import as_tuple, fields_of
from .mcq import Mcq, ParseFailure, parse_mcq_json
from .prompts import build_prompt_basic, build_prompt_rag, build_prompt_structured
from .vectorindex import VectorIndex, similarities, top_k


class Method(Enum):
    # Declaration order is the report's row order and the default ``generation.methods``.
    STRUCTURED_PROMPT = "structured_prompt"
    BASIC_PROMPT = "basic_prompt"
    RAG_GENERIC = "rag_generic"
    RAG_STRUCTURE_AWARE = "rag_structure_aware"

    @property
    def is_rag(self) -> bool:
        return self in (Method.RAG_GENERIC, Method.RAG_STRUCTURE_AWARE)

    @property
    def display_name(self) -> str:
        return {
            Method.STRUCTURED_PROMPT: "Structured Prompt",
            Method.BASIC_PROMPT: "Basic Prompt",
            Method.RAG_GENERIC: "RAG (generic chunks)",
            Method.RAG_STRUCTURE_AWARE: "RAG (structure-aware chunks)",
        }[self]


@dataclass(frozen=True)
class GenRequest:
    method: Method
    topic: str
    target_standard: LearningStandard | None = None
    retrieval_k: int | None = None
    seed_hint: int | None = None

    def __post_init__(self):
        # A row read back from JSON holds the method's value and the standard as an object.
        object.__setattr__(self, "method", Method(self.method))
        if isinstance(self.target_standard, dict):
            object.__setattr__(self, "target_standard", LearningStandard(**self.target_standard))
        counts = (self.retrieval_k, self.seed_hint)
        if not isinstance(self.topic, str) or not all(n is None or type(n) is int for n in counts):
            raise TypeError(f"topic must be a string, and retrieval_k and seed_hint integers or None, "
                            f"got {self.topic!r}, {self.retrieval_k!r}, {self.seed_hint!r}")
        if not (self.target_standard is None or isinstance(self.target_standard, LearningStandard)):
            raise TypeError(f"target_standard must be a learning standard or None, got {self.target_standard!r}")
        if self.method.is_rag:
            if self.retrieval_k is None or self.retrieval_k < 1:
                raise ValueError(f"{self.method.value} requires a positive retrieval_k")
        elif self.retrieval_k is not None:
            raise ValueError(f"{self.method.value} must not set retrieval_k")


@dataclass(frozen=True, kw_only=True)
class GenOutcome(GenRequest):
    """A request's fields plus what came of it; a row read back makes its result the class its ``kind`` names."""

    outcome_id: str
    result: Mcq | ParseFailure
    retrieved_chunk_ids: tuple[str, ...]
    prompt_fingerprint: str
    provider_tag: str

    def __post_init__(self):
        super().__post_init__()
        if isinstance(self.result, dict):
            result = {**self.result}
            kind = result.pop("kind", None)
            if kind not in ("mcq", "parse_failure"):
                raise ValueError(f"result kind must be 'mcq' or 'parse_failure', got {kind!r}")
            object.__setattr__(self, "result", (Mcq if kind == "mcq" else ParseFailure)(**result))
        if not isinstance(self.result, (Mcq, ParseFailure)):
            raise TypeError(f"result must be an MCQ or a parse failure, got {self.result!r}")
        object.__setattr__(self, "retrieved_chunk_ids", as_tuple(self.retrieved_chunk_ids))
        if not isinstance(self.retrieved_chunk_ids, tuple):
            raise TypeError(f"retrieved_chunk_ids must be a tuple, got {self.retrieved_chunk_ids!r}")
        texts = (self.outcome_id, self.prompt_fingerprint, self.provider_tag, *self.retrieved_chunk_ids)
        if not all(isinstance(text, str) for text in texts):
            raise TypeError(f"outcome_id, prompt_fingerprint, provider_tag and retrieved_chunk_ids "
                            f"must be strings, got {texts!r}")

    @property
    def mcq(self) -> Mcq | None:
        return self.result if isinstance(self.result, Mcq) else None

    @property
    def failed(self) -> bool:
        return isinstance(self.result, ParseFailure)


def _target_standard(standards: Sequence[LearningStandard], i: int) -> LearningStandard | None:
    # Request i of a batch targets the standards round-robin.
    return standards[i % len(standards)] if standards else None


def _rag_query_text(topic: str, standard: LearningStandard | None) -> str:
    # Retrieval query couples the run topic with the targeted standard's
    # description, when one is set; both are disclosed in provenance.
    if standard is not None:
        return f"{topic} {standard.description}"
    return topic


def embed_rag_queries(
    embedder: EmbeddingProvider,
    n: int,
    *,
    topic: str,
    standards: Sequence[LearningStandard],
    policy: ProviderPolicy = ProviderPolicy(),
) -> np.ndarray:
    """The retrieval queries of an ``n``-request RAG batch, for :func:`generate_batch`.

    Returns the ``(n, d)`` matrix whose row ``i`` is the unit vector of
    request ``i``'s query; :func:`embed_texts` sends each distinct query
    once. A query depends only on the topic and the request's target
    standard, so every RAG method of a run shares them.
    """
    return embed_texts(embedder, [_rag_query_text(topic, _target_standard(standards, i)) for i in range(n)], policy)


def generate_mcq(
    chat: ChatProvider,
    request: GenRequest,
    context: Sequence[Chunk] = (),
    *,
    outcome_id: str = "q:0000",
    temperature: float = 0.7,
) -> GenOutcome:
    """Run one request's prompt, chat round-trip and parse; always return an outcome.

    RAG methods ground the prompt in ``context``, the chunks retrieved for
    the request in descending score order (see :func:`generate_batch`);
    non-RAG methods ignore it. The chat round-trip is made once, and only
    the provider's errors propagate. A schema-constrained completion is
    parsed like any plain one.
    """
    retrieved: tuple[str, ...] = ()
    if request.method.is_rag:
        retrieved = tuple(c.chunk_id for c in context)
        bundle = build_prompt_rag(request.topic, list(context))
    elif request.method is Method.STRUCTURED_PROMPT:
        bundle = build_prompt_structured(request.topic)
    else:
        bundle = build_prompt_basic(request.topic)

    if bundle.response_schema is None:
        raw = chat.complete(bundle.system_text, bundle.user_text,
                            temperature=temperature, seed=request.seed_hint)
    else:
        raw = chat.complete_structured(bundle.system_text, bundle.user_text, bundle.response_schema,
                                       temperature=temperature, seed=request.seed_hint)

    return GenOutcome(
        **fields_of(request),
        outcome_id=outcome_id,
        result=parse_mcq_json(raw),
        retrieved_chunk_ids=retrieved,
        prompt_fingerprint=bundle.fingerprint(),
        provider_tag=chat.tag,
    )


def generate_batch(
    chat: ChatProvider,
    method: Method,
    n: int,
    *,
    topic: str,
    standards: list[LearningStandard],
    retrieval_k: int = 3,
    index: VectorIndex | None = None,
    rag_queries: np.ndarray | None = None,
    temperature: float = 0.7,
    policy: ProviderPolicy = ProviderPolicy(),
) -> list[GenOutcome]:
    """Generate exactly ``n`` outcomes, cycling standards round-robin.

    Standards are targeted in order so coverage across the teaching plan is
    uniform; parse failures are recorded in place, never dropped. RAG
    methods take their retrieval queries from :func:`embed_rag_queries`
    and retrieve the top ``retrieval_k`` chunks of every request's query
    from ``index`` in one :func:`top_k` call on the calling thread; the chat
    round-trips then run through :func:`map_in_flight` under ``policy``,
    and outcomes come back in request order. ``RunConfig`` checks ``n`` and
    ``retrieval_k``; a RAG method needs ``index`` and ``n`` ``rag_queries``.
    """
    requests = [
        GenRequest(
            method=method,
            topic=topic,
            target_standard=_target_standard(standards, i),
            retrieval_k=retrieval_k if method.is_rag else None,
            seed_hint=i,
        )
        for i in range(n)
    ]
    contexts: list[Sequence[Chunk]] = [()] * n
    if method.is_rag:
        positions, _ = top_k(index, similarities(index, rag_queries), retrieval_k)
        contexts = [[index.chunks[i] for i in row] for row in positions.tolist()]
    return map_in_flight(
        lambda i: generate_mcq(
            chat, requests[i], contexts[i],
            outcome_id=f"{method.value}:{i:04d}", temperature=temperature,
        ),
        range(n), policy,
    )
