"""Dual evaluation of generated questions: alignment scoring and validity.

Alignment is the maximum cosine similarity between a question and the
learning standards; validity is a functional check asking whether the
question can be answered from the standards document alone (retrieval
threshold plus refusal detection on the answering model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .chat import ChatProvider
from .chunking import Chunk, Strategy
from .embedding import EmbeddingProvider, ProviderPolicy, distinct_rows, embed_texts
from .errors import PipelineStateError
from .generate import GenOutcome, Method
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

    @property
    def verdict(self) -> Verdict:
        """Valid exactly when the question was above threshold and answered."""
        return Verdict.VALID if self is VerdictReason.ABOVE_THRESHOLD_ANSWERED else Verdict.INVALID


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


def _check_finite(row, names: tuple[str, ...]) -> None:
    for name in names:
        if type(getattr(row, name)) not in (int, float) or not math.isfinite(getattr(row, name)):
            raise ValueError(f"{name} must be a finite number, got {getattr(row, name)!r}")


@dataclass(frozen=True)
class EvalRecord:
    """One parsed question's evaluation: its alignment and its validity, with the verdict they derive."""

    outcome_id: str
    method: Method
    score: float
    best_standard: str
    reason: VerdictReason
    top_score: float
    verdict: Verdict = field(init=False)

    def __post_init__(self):
        # A row read back from JSON holds the method's and the reason's values.
        object.__setattr__(self, "method", Method(self.method))
        object.__setattr__(self, "reason", VerdictReason(self.reason))
        object.__setattr__(self, "verdict", self.reason.verdict)
        if not isinstance(self.outcome_id, str) or not isinstance(self.best_standard, str):
            raise TypeError(f"outcome_id and best_standard must be strings, "
                            f"got {self.outcome_id!r}, {self.best_standard!r}")
        _check_finite(self, ("score", "top_score"))


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

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        if type(self.n) is not int or self.n < 0:
            raise ValueError(f"n must be an integer >= 0, got {self.n!r}")
        _check_finite(self, ("mean_sts", "std_sts", "validity_pct", "parse_failure_pct"))
        if not isinstance(self.embedder_tag, str) or not isinstance(self.chat_tag, str):
            raise TypeError(f"embedder_tag and chat_tag must be strings: {self.embedder_tag!r}, {self.chat_tag!r}")


def _evaluation_text(mcq: Mcq, unit: str) -> str:
    """The stem for ``unit`` "stem", else ("full", as ``RunConfig`` checks) stem, options and any explanation."""
    if unit == "stem":
        return mcq.stem
    return "\n".join(filter(None, [mcq.stem, *(o.text for o in mcq.options), mcq.explanation]))


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


def sts_alignment(scores: np.ndarray, codes: Sequence[str]) -> tuple[list[float], list[str]]:
    """Each row's maximum in a :func:`similarities` table over the standards, and its best code.

    Column ``i`` of ``scores`` scores the learning standard with code
    ``codes[i]`` (a ``VectorIndex`` has at least one); both lists have one
    entry per row. Ties on the maximum (scores within ``TIE_TOLERANCE`` of
    it) are broken by the lowest standard code so results stay deterministic.
    """
    best = scores.max(axis=1)
    # Columns in code order: the first tied column of a row has its lowest tied code.
    by_code = np.argsort(np.asarray(codes), kind="stable")
    best_cols = by_code[np.argmax((scores >= (best - TIE_TOLERANCE)[:, None])[:, by_code], axis=1)]
    return best.tolist(), [codes[i] for i in best_cols.tolist()]


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
) -> VerdictReason:
    """The reason for a stem's verdict in the functional validity check over the standards-only index.

    ``context`` holds the stem's top-k standards from
    :func:`retrieve_standards`, best first, and ``top_score`` the first
    one's score. Below-threshold retrieval is ``BELOW_THRESHOLD`` without
    ever calling the chat provider, otherwise the provider answers from
    ``context`` and a refusal is ``REFUSAL``. The chat round-trip is made
    once; the caller retries it, through :func:`map_in_flight`.
    """
    if top_score < tau:
        return VerdictReason.BELOW_THRESHOLD
    bundle = build_prompt_qa(stem, list(context))
    answer = chat.complete(bundle.system_text, bundle.user_text, temperature=0.0).lower()
    refused = any(marker.lower() in answer for marker in refusal_markers)
    return VerdictReason.REFUSAL if refused else VerdictReason.ABOVE_THRESHOLD_ANSWERED


def _sample_std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


def aggregate(outcomes: list[GenOutcome], records: list[EvalRecord], *, embedder_tag: str = "") -> list[MethodReport]:
    """Fold the evaluation records of the non-empty ``outcomes`` into one report per method.

    ``records`` holds one record per parsed outcome; parse failures have
    none. They are excluded from the score statistics but included in the
    failure percentage's denominator.
    """
    reports: list[MethodReport] = []
    for method in Method:
        group = [o for o in outcomes if o.method is method]
        if not group:
            continue
        rows = [r for r in records if r.method is method]
        scores = [r.score for r in rows]
        valid = sum(1 for r in rows if r.verdict is Verdict.VALID)
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
    """Render method reports as ``report.json`` holds them for ``format`` "json", else as a markdown table."""
    if not reports:
        raise PipelineStateError("cannot render an empty report list")
    if format == "json":
        return dumps(reports, indent=True).decode()
    lines = [_MD_HEADER, _MD_RULE]
    for r in reports:
        lines.append(
            f"| {r.method.display_name} | {r.mean_sts:.2f} | {r.std_sts:.2f} "
            f"| {r.validity_pct:.2f} | {r.parse_failure_pct:.2f} |"
        )
    return "\n".join(lines)
