"""Dual evaluation of generated questions: alignment scoring and validity.

Alignment is the maximum cosine similarity between a question and the
learning standards; validity is a functional check asking whether the
question can be answered from the standards document alone (retrieval
threshold plus refusal detection on the answering model).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .chat import ChatProvider
from .chunking import Strategy
from .embedding import EmbeddingProvider, RetryPolicy, call_with_retries, embed_texts, stack_vectors
from .errors import DanglingReference, EmptyBatch, LengthMismatch, WrongIndexRole
from .generate import METHOD_ORDER, GenOutcome, Method
from .mcq import Mcq
from .prompts import build_prompt_qa
from .vectorindex import ScoredHit, VectorIndex, similarities, top_k


class Verdict(Enum):
    VALID = "Valid"
    INVALID = "Invalid"


class VerdictReason(Enum):
    ABOVE_THRESHOLD_ANSWERED = "AboveThresholdAnswered"
    BELOW_THRESHOLD = "BelowThreshold"
    REFUSAL = "Refusal"
    NO_MCQ = "NoMcq"


DEFAULT_REFUSAL_MARKERS = (
    "tidak dapat dijawab",
    "tidak mempunyai maklumat",
    "cannot be answered",
    "cannot answer",
    "not enough information",
)


# Mathematically equal cosines can differ in their last bits when their
# terms sit at different positions of the rows being summed; alignment
# treats scores this close to the maximum as tied.
TIE_TOLERANCE = 1e-12


class EmptyStandards(EmptyBatch):
    pass


@dataclass(frozen=True)
class AlignmentScore:
    question_ref: str
    score: float
    best_standard: str


@dataclass(frozen=True)
class ValidityVerdict:
    question_ref: str
    verdict: Verdict
    reason: VerdictReason
    top_score: float
    answer_text: str | None = None

    def __post_init__(self):
        if self.verdict is Verdict.VALID and self.reason is not VerdictReason.ABOVE_THRESHOLD_ANSWERED:
            raise ValueError("a Valid verdict must carry reason AboveThresholdAnswered")


@dataclass(frozen=True)
class MethodReport:
    method: Method
    n: int
    mean_sts: float
    std_sts: float
    validity_pct: float
    parse_failure_pct: float
    embedder_tag: str = ""
    chat_tag: str = ""

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "n": self.n,
            "mean_sts": self.mean_sts,
            "std_sts": self.std_sts,
            "validity_pct": self.validity_pct,
            "parse_failure_pct": self.parse_failure_pct,
            "embedder_tag": self.embedder_tag,
            "chat_tag": self.chat_tag,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MethodReport":
        return cls(
            method=Method(d["method"]),
            n=d["n"],
            mean_sts=d["mean_sts"],
            std_sts=d["std_sts"],
            validity_pct=d["validity_pct"],
            parse_failure_pct=d["parse_failure_pct"],
            embedder_tag=d.get("embedder_tag", ""),
            chat_tag=d.get("chat_tag", ""),
        )


def _evaluation_text(mcq: Mcq, unit: str) -> str:
    if unit == "stem":
        return mcq.stem
    if unit == "full":
        parts = [mcq.stem] + [o.text for o in mcq.options]
        if mcq.explanation:
            parts.append(mcq.explanation)
        return "\n".join(parts)
    raise ValueError(f"sts unit must be 'stem' or 'full', got {unit!r}")


def embed_questions(
    embedder: EmbeddingProvider,
    mcqs: Sequence[Mcq],
    *,
    unit: str = "stem",
    retry: RetryPolicy = RetryPolicy(),
    max_in_flight: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Embed every distinct text that evaluation scores, each exactly once.

    Returns two ``(m, d)`` matrices with one row per question: the first
    embeds the ``unit`` text that :func:`sts_alignment` scores, the second
    the stem that :func:`retrieve_standards` queries with. With unit
    ``"stem"`` both are the same rows.
    """
    texts = [(_evaluation_text(m, unit), m.stem) for m in mcqs]
    distinct = list(dict.fromkeys(t for pair in texts for t in pair))
    row = {text: i for i, text in enumerate(distinct)}
    vectors = embed_texts(embedder, distinct, retry=retry, max_in_flight=max_in_flight)
    return vectors[[row[text] for text, _ in texts]], vectors[[row[stem] for _, stem in texts]]


def sts_alignment(
    queries: np.ndarray,
    rpt_index: VectorIndex,
    codes: Sequence[str],
    *,
    question_ref: str = "",
    question_refs: Sequence[str] | None = None,
) -> AlignmentScore | list[AlignmentScore]:
    """Max cosine similarity between each question vector and every standard.

    A query vector gives one score, named ``question_ref``; an ``(m, d)``
    query matrix gives a list of ``m`` scores, named by ``question_refs``
    (empty names when it is None). ``codes[i]`` is the learning-standard
    code of ``rpt_index`` row ``i``. Ties on the maximum (scores within
    ``TIE_TOLERANCE`` of it) are broken by the lowest standard code so
    results stay deterministic.
    """
    if not codes:
        raise EmptyStandards("alignment scoring needs at least one learning standard")
    if len(codes) != len(rpt_index):
        raise LengthMismatch(f"{len(codes)} standard codes for {len(rpt_index)} index rows")
    scores = similarities(rpt_index, queries)
    table = np.atleast_2d(scores)
    if scores.ndim == 1:
        refs = [question_ref]
    else:
        refs = list(question_refs) if question_refs is not None else [""] * len(table)
        if len(refs) != len(table):
            raise LengthMismatch(f"{len(refs)} question refs for {len(table)} query vectors")
    best = table.max(axis=1)
    # Columns in code order: the first tied column of a row has its lowest tied code.
    by_code = np.argsort(np.asarray(codes), kind="stable")
    best_rows = by_code[np.argmax((table >= (best - TIE_TOLERANCE)[:, None])[:, by_code], axis=1)]
    alignments = [
        AlignmentScore(question_ref=ref, score=float(score), best_standard=codes[i])
        for ref, score, i in zip(refs, best.tolist(), best_rows.tolist())
    ]
    return alignments[0] if scores.ndim == 1 else alignments


def retrieve_standards(
    rpt_index: VectorIndex,
    stem_vectors: np.ndarray | Sequence[np.ndarray],
    k: int = 3,
) -> list[list[ScoredHit]]:
    """Top-``k`` standards for every stem vector, the queries of the validity check.

    ``stem_vectors`` is an ``(m, d)`` matrix or a sequence of ``m``
    vectors, ranked in one :func:`top_k` call. The index must be built
    exclusively from standard-split chunks; this is checked once for the
    whole batch.
    """
    if any(c.strategy is not Strategy.STANDARD_SPLIT for c in rpt_index.chunks):
        raise WrongIndexRole(
            "validity checking requires an index built exclusively from standard-split chunks"
        )
    return top_k(rpt_index, stack_vectors(stem_vectors), k)


def ragqa_validity(
    mcq: Mcq,
    rpt_index: VectorIndex,
    hits: Sequence[ScoredHit],
    chat: ChatProvider,
    *,
    tau: float = 0.5,
    refusal_markers: tuple[str, ...] = DEFAULT_REFUSAL_MARKERS,
    question_ref: str = "",
    retry: RetryPolicy = RetryPolicy(),
) -> ValidityVerdict:
    """Functional validity check over the standards-only index.

    ``hits`` are the stem's top-k standards from :func:`retrieve_standards`;
    below-threshold retrieval is Invalid without ever calling the chat
    provider, otherwise the provider answers from the retrieved standards
    and a refusal marks the question Invalid.
    """
    top_score = hits[0].score
    if top_score < tau:
        return ValidityVerdict(
            question_ref=question_ref,
            verdict=Verdict.INVALID,
            reason=VerdictReason.BELOW_THRESHOLD,
            top_score=top_score,
        )
    context = [rpt_index.chunk_by_id(h.chunk_id) for h in hits]
    bundle = build_prompt_qa(mcq.stem, context)
    answer = call_with_retries(
        lambda: chat.complete(bundle.system_text, bundle.user_text, temperature=0.0), retry
    )
    lowered = answer.lower()
    if any(marker.lower() in lowered for marker in refusal_markers):
        return ValidityVerdict(
            question_ref=question_ref,
            verdict=Verdict.INVALID,
            reason=VerdictReason.REFUSAL,
            top_score=top_score,
            answer_text=answer,
        )
    return ValidityVerdict(
        question_ref=question_ref,
        verdict=Verdict.VALID,
        reason=VerdictReason.ABOVE_THRESHOLD_ANSWERED,
        top_score=top_score,
        answer_text=answer,
    )


def _sample_std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


def aggregate(
    outcomes: list[GenOutcome],
    alignments: list[AlignmentScore],
    verdicts: list[ValidityVerdict],
    *,
    embedder_tag: str = "",
) -> list[MethodReport]:
    """Fold per-question evaluations into one report per method.

    Parse failures are excluded from the score statistics but included in
    the failure percentage's denominator; every parsed outcome must have
    exactly one alignment and one verdict.
    """
    if not outcomes:
        raise EmptyBatch("cannot aggregate an empty outcome list")
    by_id = {o.outcome_id: o for o in outcomes}
    align_by_ref: dict[str, AlignmentScore] = {}
    for a in alignments:
        if a.question_ref not in by_id:
            raise DanglingReference(f"alignment references unknown outcome {a.question_ref!r}")
        if a.question_ref in align_by_ref:
            raise DanglingReference(f"outcome {a.question_ref!r} has multiple alignments")
        align_by_ref[a.question_ref] = a
    verdict_by_ref: dict[str, ValidityVerdict] = {}
    for v in verdicts:
        if v.question_ref not in by_id:
            raise DanglingReference(f"verdict references unknown outcome {v.question_ref!r}")
        if v.question_ref in verdict_by_ref:
            raise DanglingReference(f"outcome {v.question_ref!r} has multiple verdicts")
        verdict_by_ref[v.question_ref] = v

    for o in outcomes:
        if o.failed:
            if o.outcome_id in align_by_ref or o.outcome_id in verdict_by_ref:
                raise DanglingReference(f"failed outcome {o.outcome_id!r} must not carry evaluations")
        else:
            if o.outcome_id not in align_by_ref:
                raise DanglingReference(f"parsed outcome {o.outcome_id!r} is missing an alignment")
            if o.outcome_id not in verdict_by_ref:
                raise DanglingReference(f"parsed outcome {o.outcome_id!r} is missing a verdict")

    reports: list[MethodReport] = []
    for method in METHOD_ORDER:
        group = [o for o in outcomes if o.request.method is method]
        if not group:
            continue
        parsed = [o for o in group if not o.failed]
        failures = len(group) - len(parsed)
        scores = [align_by_ref[o.outcome_id].score for o in parsed]
        valid = sum(
            1 for o in parsed if verdict_by_ref[o.outcome_id].verdict is Verdict.VALID
        )
        chat_tags = sorted({o.provider_tag for o in group})
        reports.append(
            MethodReport(
                method=method,
                n=len(group),
                mean_sts=sum(scores) / len(scores) if scores else 0.0,
                std_sts=_sample_std(scores),
                validity_pct=100.0 * valid / len(parsed) if parsed else 0.0,
                parse_failure_pct=100.0 * failures / len(group),
                embedder_tag=embedder_tag,
                chat_tag=",".join(chat_tags),
            )
        )
    return reports


_MD_HEADER = "| Method | STS Score | Std. Dev. | Validity (%) | Parse Failures (%) |"
_MD_RULE = "| --- | ---: | ---: | ---: | ---: |"


def render_report(reports: list[MethodReport], format: str = "markdown") -> str:
    """Render method reports as a markdown table or a JSON document."""
    if not reports:
        raise EmptyBatch("cannot render an empty report list")
    if format == "json":
        return json.dumps([r.to_dict() for r in reports], ensure_ascii=False, indent=2, sort_keys=True)
    if format == "markdown":
        lines = [_MD_HEADER, _MD_RULE]
        for r in reports:
            lines.append(
                f"| {r.method.display_name} | {r.mean_sts:.2f} | {r.std_sts:.2f} "
                f"| {r.validity_pct:.2f} | {r.parse_failure_pct:.2f} |"
            )
        return "\n".join(lines)
    raise ValueError(f"unknown report format {format!r}")
