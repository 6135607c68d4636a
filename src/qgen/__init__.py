"""Curriculum-grounded MCQ generation and evaluation pipeline."""

from .blocks import Block, DocRole, SourceDocument, flatten_text, load_document
from .chunking import (
    Chunk,
    LearningStandard,
    Strategy,
    chunk_recursive,
    chunk_rpt_standards,
    chunk_structure_aware,
)
from .chat import HttpChatProvider, MockChatProvider
from .embedding import HttpEmbeddingProvider, MockEmbeddingProvider, RetryPolicy, embed_texts
from .evaluate import (
    AlignmentScore,
    MethodReport,
    ValidityVerdict,
    Verdict,
    VerdictReason,
    aggregate,
    embed_questions,
    ragqa_validity,
    render_report,
    retrieve_standards,
    sts_alignment,
)
from .generate import GenOutcome, GenRequest, Method, generate_batch, generate_mcq
from .mcq import Mcq, McqOption, ParseCategory, ParseFailure, parse_mcq_json
from .prompts import (
    MCQ_RESPONSE_SCHEMA,
    PromptBundle,
    build_prompt_basic,
    build_prompt_qa,
    build_prompt_rag,
    build_prompt_structured,
)
from .vectorindex import (
    ScoredHit,
    VectorIndex,
    build_index,
    load_index,
    save_index,
    similarities,
    top_k,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentScore",
    "Block",
    "Chunk",
    "DocRole",
    "GenOutcome",
    "GenRequest",
    "HttpChatProvider",
    "HttpEmbeddingProvider",
    "LearningStandard",
    "MCQ_RESPONSE_SCHEMA",
    "Mcq",
    "McqOption",
    "Method",
    "MethodReport",
    "MockChatProvider",
    "MockEmbeddingProvider",
    "ParseCategory",
    "ParseFailure",
    "PromptBundle",
    "RetryPolicy",
    "ScoredHit",
    "SourceDocument",
    "Strategy",
    "ValidityVerdict",
    "Verdict",
    "VerdictReason",
    "VectorIndex",
    "aggregate",
    "build_index",
    "build_prompt_basic",
    "build_prompt_qa",
    "build_prompt_rag",
    "build_prompt_structured",
    "chunk_recursive",
    "chunk_rpt_standards",
    "chunk_structure_aware",
    "embed_questions",
    "embed_texts",
    "flatten_text",
    "generate_batch",
    "generate_mcq",
    "load_document",
    "load_index",
    "parse_mcq_json",
    "ragqa_validity",
    "render_report",
    "retrieve_standards",
    "save_index",
    "similarities",
    "sts_alignment",
    "top_k",
]
