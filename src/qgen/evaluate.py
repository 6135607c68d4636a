"""Dual evaluation of generated questions: alignment scoring and validity.

Alignment is the maximum cosine similarity between a question and the
learning standards; validity is a functional check asking whether the
question can be answered from the standards document alone (retrieval
threshold plus refusal detection on the answering model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .chat import ChatProvider
from .chunking import Chunk, Strategy
from .embedding import EmbeddingProvider, ProviderPolicy, distinct_rows, embed_texts
from .errors import PipelineStateError
from .generate import METHOD_ORDER, GenOutcome, Method
from .jsonio import dumps
from .mcq import Mcq
from .prompts import build_prompt_qa
from .vectorindex import VectorIndex, similarities, top_k


class Verdict(Enum):
    VALID = "Valid"
    INVALID = "Invalid"


class VerdictReason(Enum):
    ABOVE_THRESHOLD_ANSWERED = "AboveThresholdAnswered"
    BELOW_THRESHOLD = "BelowThreshold"
    REFUSAL = "Refusal"


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


@dataclass(frozen=True)
class AlignmentScore:
    score: float
    best_standard: str


@dataclass(frozen=True)
class ValidityVerdict:
    reason: VerdictReason
    top_score: float
    answer_text: str | None = None

    @property
    def verdict(self) -> Verdict:
        """Valid exactly when the question was above threshold and answered."""
        return Verdict.VALID if self.reason is VerdictReason.ABOVE_THRESHOLD_ANSWERED else Verdict.INVALID


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


def score_questions(
    embedder: EmbeddingProvider,
    mcqs: Sequence[Mcq],
    rpt_index: VectorIndex,
    *,
    unit: str = "stem",
    policy: ProviderPolicy = ProviderPolicy(),
) -> tuple[np.ndarray, list[int], list[int]]:
    """Embed and score every distinct text that evaluation reads, each exactly once.

    Returns the :func:`similarities` table of the distinct texts against
    ``rpt_index``, then per question the table row of its ``unit`` text
    (what :func:`sts_alignment` reduces) and the row of its stem (what
    :func:`retrieve_standards` ranks). With unit ``"stem"`` both row lists
    are the same.
    """
    distinct, rows = distinct_rows([t for m in mcqs for t in (_evaluation_text(m, unit), m.stem)])
    vectors = embed_texts(embedder, distinct, policy)
    return similarities(rpt_index, vectors), rows[0::2], rows[1::2]


def sts_alignment(scores: np.ndarray, codes: Sequence[str]) -> list[AlignmentScore]:
    """Each row's maximum in a :func:`similarities` table over the standards.

    Column ``i`` of ``scores`` scores the learning standard with code
    ``codes[i]``; the result has one score per row. Ties on the maximum
    (scores within ``TIE_TOLERANCE`` of it) are broken by the lowest
    standard code so results stay deterministic.
    """
    if not codes:
        raise PipelineStateError("alignment scoring needs at least one learning standard")
    if scores.ndim != 2 or scores.shape[1] != len(codes):
        raise PipelineStateError(f"{len(codes)} standard codes for a score table of shape {scores.shape}")
    best = scores.max(axis=1)
    # Columns in code order: the first tied column of a row has its lowest tied code.
    by_code = np.argsort(np.asarray(codes), kind="stable")
    best_cols = by_code[np.argmax((scores >= (best - TIE_TOLERANCE)[:, None])[:, by_code], axis=1)]
    return [
        AlignmentScore(score=float(score), best_standard=codes[i])
        for score, i in zip(best.tolist(), best_cols.tolist())
    ]


def retrieve_standards(rpt_index: VectorIndex, scores: np.ndarray, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` standards for each row of a :func:`similarities` table over ``rpt_index``.

    These are the validity check's retrievals, as :func:`top_k` returns
    them: each row's positions in ``rpt_index.chunks`` and their scores.
    The index must be built exclusively from standard-split chunks.
    """
    if any(c.strategy is not Strategy.STANDARD_SPLIT for c in rpt_index.chunks):
        raise PipelineStateError(
            "validity checking requires an index built exclusively from standard-split chunks"
        )
    return top_k(rpt_index, scores, k)


def ragqa_validity(
    stem: str,
    context: Sequence[Chunk],
    top_score: float,
    chat: ChatProvider,
    *,
    tau: float = 0.5,
    refusal_markers: tuple[str, ...] = DEFAULT_REFUSAL_MARKERS,
) -> ValidityVerdict:
    """Functional validity check over the standards-only index.

    ``context`` holds the stem's top-k standards from
    :func:`retrieve_standards`, best first, and ``top_score`` the first
    one's score. Below-threshold retrieval is Invalid without ever calling
    the chat provider, otherwise the provider answers from ``context`` and
    a refusal marks the question Invalid. The chat round-trip is made
    once; the caller retries it, through :func:`map_in_flight`.
    """
    if top_score < tau:
        return ValidityVerdict(reason=VerdictReason.BELOW_THRESHOLD, top_score=top_score)
    bundle = build_prompt_qa(stem, list(context))
    answer = chat.complete(bundle.system_text, bundle.user_text, temperature=0.0)
    lowered = answer.lower()
    if any(marker.lower() in lowered for marker in refusal_markers):
        return ValidityVerdict(reason=VerdictReason.REFUSAL, top_score=top_score, answer_text=answer)
    return ValidityVerdict(reason=VerdictReason.ABOVE_THRESHOLD_ANSWERED, top_score=top_score, answer_text=answer)


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

    ``alignments[i]`` and ``verdicts[i]`` evaluate the i-th parsed outcome
    of ``outcomes``; parse failures have neither. Parse failures are
    excluded from the score statistics but included in the failure
    percentage's denominator.
    """
    if not outcomes:
        raise PipelineStateError("cannot aggregate an empty outcome list")
    parsed = [o for o in outcomes if not o.failed]
    if not len(alignments) == len(verdicts) == len(parsed):
        raise PipelineStateError(
            f"{len(parsed)} parsed outcomes but {len(alignments)} alignments and {len(verdicts)} verdicts"
        )
    evaluated = list(zip(parsed, alignments, verdicts))

    reports: list[MethodReport] = []
    for method in METHOD_ORDER:
        group = [o for o in outcomes if o.request.method is method]
        if not group:
            continue
        rows = [(a, v) for o, a, v in evaluated if o.request.method is method]
        scores = [a.score for a, _ in rows]
        valid = sum(1 for _, v in rows if v.verdict is Verdict.VALID)
        chat_tags = sorted({o.provider_tag for o in group})
        reports.append(
            MethodReport(
                method=method,
                n=len(group),
                mean_sts=sum(scores) / len(scores) if scores else 0.0,
                std_sts=_sample_std(scores),
                validity_pct=100.0 * valid / len(rows) if rows else 0.0,
                parse_failure_pct=100.0 * (len(group) - len(rows)) / len(group),
                embedder_tag=embedder_tag,
                chat_tag=",".join(chat_tags),
            )
        )
    return reports


_MD_HEADER = "| Method | STS Score | Std. Dev. | Validity (%) | Parse Failures (%) |"
_MD_RULE = "| --- | ---: | ---: | ---: | ---: |"


def render_report(reports: list[MethodReport], format: str = "markdown") -> str:
    """Render method reports as a markdown table or as the JSON document ``report.json`` holds."""
    if not reports:
        raise PipelineStateError("cannot render an empty report list")
    if format == "json":
        return dumps([r.to_dict() for r in reports], indent=True).decode()
    if format == "markdown":
        lines = [_MD_HEADER, _MD_RULE]
        for r in reports:
            lines.append(
                f"| {r.method.display_name} | {r.mean_sts:.2f} | {r.std_sts:.2f} "
                f"| {r.validity_pct:.2f} | {r.parse_failure_pct:.2f} |"
            )
        return "\n".join(lines)
    raise ValueError(f"unknown report format {format!r}")
