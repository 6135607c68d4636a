"""Prompt bundles for the four generation methods and the QA validity check.

Templates are Bahasa Melayu resource files shipped with the package
(``resources/prompts/<version>/``) with named placeholders ``{topic}``,
``{context}`` and ``{question}``. ``RunConfig`` refuses a blank topic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .chunking import Chunk
from .jsonio import dumps

TEMPLATE_VERSION = "v1"

MCQ_RESPONSE_SCHEMA: dict = {
    "type": "object",
    "properties": {
        "stem": {"type": "string", "minLength": 1},
        "options": {
            "type": "array",
            "minItems": 4,
            "maxItems": 4,
            "items": {
                "type": "object",
                "properties": {
                    "label": {"enum": ["A", "B", "C", "D"]},
                    "text": {"type": "string", "minLength": 1},
                },
                "required": ["label", "text"],
            },
        },
        "answer_key": {"enum": ["A", "B", "C", "D"]},
        "explanation": {"type": "string"},
    },
    "required": ["stem", "options", "answer_key", "explanation"],
}


@lru_cache(maxsize=None)
def _template(name: str) -> str:
    ref = resources.files("qgen").joinpath(f"resources/prompts/{TEMPLATE_VERSION}/{name}.txt")
    return ref.read_text(encoding="utf-8").strip()


@dataclass(frozen=True)
class PromptBundle:
    system_text: str
    user_text: str
    response_schema: dict | None = None

    def fingerprint(self) -> str:
        payload = {
            "system": self.system_text,
            "user": self.user_text,
            "schema": self.response_schema,
            "version": TEMPLATE_VERSION,
        }
        return hashlib.sha256(dumps(payload)).hexdigest()


def build_prompt_structured(topic: str) -> PromptBundle:
    """Generic topic prompt plus a machine-readable MCQ response schema."""
    return PromptBundle(
        system_text=_template("system"),
        user_text=_template("structured_user").format(topic=topic.strip()),
        response_schema=MCQ_RESPONSE_SCHEMA,
    )


def build_prompt_basic(topic: str) -> PromptBundle:
    """Generic topic prompt requesting JSON output in prose; no schema attached."""
    return PromptBundle(
        system_text=_template("system"),
        user_text=_template("basic_user").format(topic=topic.strip()),
        response_schema=None,
    )


def format_context(chunks: list[Chunk]) -> str:
    """Render retrieved chunks verbatim, labeled by chunk_id, in given order."""
    return "\n".join(f"[{c.chunk_id}]\n{c.text}\n---" for c in chunks)


def build_prompt_rag(topic: str, context: list[Chunk]) -> PromptBundle:
    """Grounded prompt embedding every retrieved chunk verbatim.

    ``context`` (at least one chunk) is in descending retrieval-score
    order; each chunk is delimited and labeled with its chunk_id.
    """
    return PromptBundle(
        system_text=_template("system"),
        user_text=_template("rag_user").format(topic=topic.strip(), context=format_context(context)),
        response_schema=None,
    )


def build_prompt_qa(question: str, context: list[Chunk]) -> PromptBundle:
    """Answer-this-question prompt for a non-blank ``Mcq`` stem and at least one context chunk."""
    return PromptBundle(
        system_text=_template("qa_system"),
        user_text=_template("qa_user").format(question=question.strip(), context=format_context(context)),
        response_schema=None,
    )
