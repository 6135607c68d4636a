"""Output checks for each stage, computed outside the timed region.

Each check reads the stage's artifacts from the workdir and returns a list
of problems (empty when the output is right). The evaluate check recomputes
every alignment score as a numpy brute-force maximum over the standards
matrix, independent of the pipeline's own retrieval and scoring code.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

PLAIN_METHODS = ("basic_prompt", "rag_generic", "rag_structure_aware")
CHUNK_FILES = ("knowledge_recursive", "knowledge_structure_aware", "standards")
STAGE_OUTPUTS = {
    "ingest": ("chunks/*.jsonl",),
    "index": ("indexes/*.json",),
    "generate": ("outcomes/*.jsonl",),
    "evaluate": ("eval/records.jsonl", "report.json", "report.md"),
}


def _rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def artifact_digest(workdir: Path, stage: str) -> str:
    """sha256 over the stage's output files, in sorted path order."""
    h = hashlib.sha256()
    for pattern in STAGE_OUTPUTS[stage]:
        for path in sorted(workdir.glob(pattern)):
            h.update(str(path.relative_to(workdir)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_ingest(workdir: Path, codes: list[str]) -> list[str]:
    problems = []
    for name in CHUNK_FILES:
        path = workdir / "chunks" / f"{name}.jsonl"
        if not path.is_file() or not _rows(path):
            problems.append(f"ingest: {path.name} missing or empty")
    got = [row["code"] for row in _rows(workdir / "chunks" / "learning_standards.jsonl")]
    if got != codes:
        problems.append(f"ingest: {len(got)} standards read, {len(codes)} written, or codes out of order")
    return problems


def check_index(workdir: Path, dim: int) -> list[str]:
    problems = []
    for name in CHUNK_FILES:
        payload = json.loads((workdir / "indexes" / f"{name}.index.json").read_text(encoding="utf-8"))
        chunks = len(_rows(workdir / "chunks" / f"{name}.jsonl"))
        if payload["count"] != chunks or payload["dimension"] != dim:
            problems.append(f"index: {name} holds {payload['count']}x{payload['dimension']}, expected {chunks}x{dim}")
    return problems


def check_generate(workdir: Path, methods: list[str], n: int, rate: float) -> list[str]:
    problems = []
    for method in methods:
        rows = _rows(workdir / "outcomes" / f"{method}.jsonl")
        failures = sum(row["result"]["kind"] == "parse_failure" for row in rows)
        expected = math.floor(n * rate) if method in PLAIN_METHODS else 0
        if len(rows) != n or failures != expected:
            problems.append(f"generate: {method} has {len(rows)} outcomes and {failures} parse failures, "
                            f"expected {n} and {expected}")
    return problems


def check_evaluate(workdir: Path, tau: float, dim: int) -> tuple[list[str], list[tuple], int]:
    """Recompute every record; return problems, the (id, verdict, reason, best) rows and tie-break misses.

    A record passes when its score is within 1e-9 of the brute-force maximum
    and its best standard is one of the standards within 1e-9 of it. Among
    such ties the documented rule names the lowest code; records that name
    another tied code are counted, not failed, because the pipeline decides
    ties on float rounding of mathematically equal cosines.
    """
    from qgen.embedding import MockEmbeddingProvider

    standards = _rows(workdir / "chunks" / "learning_standards.jsonl")
    index = json.loads((workdir / "indexes" / "standards.index.json").read_text(encoding="utf-8"))
    vectors = {e["chunk"]["chunk_id"]: e["vector"] for e in index["entries"]}
    codes = np.array([s["code"] for s in standards])
    matrix = np.array([vectors[s["chunk_id"]] for s in standards], dtype=np.float64)

    stems = {}
    for path in sorted((workdir / "outcomes").glob("*.jsonl")):
        for row in _rows(path):
            if row["result"]["kind"] == "mcq":
                stems[row["outcome_id"]] = row["result"]["stem"]
    records = _rows(workdir / "eval" / "records.jsonl")
    problems = []
    if sorted(r["outcome_id"] for r in records) != sorted(stems):
        problems.append(f"evaluate: {len(records)} records for {len(stems)} parsed outcomes")
        return problems, [], 0

    raw = np.array(MockEmbeddingProvider(dim=dim).embed([stems[r["outcome_id"]] for r in records]))
    queries = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    scores = queries @ matrix.T
    best = scores.max(axis=1)
    rows, tie_misses = [], 0
    for i, r in enumerate(records):
        tied = codes[scores[i] >= best[i] - 1e-9].tolist()
        if abs(r["score"] - best[i]) > 1e-9 or r["best_standard"] not in tied:
            problems.append(f"evaluate: {r['outcome_id']} score {r['score']!r} best {r['best_standard']}, "
                            f"oracle {best[i]!r} best of {tied}")
        tie_misses += r["best_standard"] != min(tied)
        if abs(r["top_score"] - best[i]) > 1e-9:
            problems.append(f"evaluate: {r['outcome_id']} top_score {r['top_score']!r}, oracle {best[i]!r}")
        below = r["top_score"] < tau
        expected = {"BelowThreshold"} if below else {"AboveThresholdAnswered", "Refusal"}
        valid = r["reason"] == "AboveThresholdAnswered"
        if r["reason"] not in expected or (r["verdict"] == "Valid") != valid:
            problems.append(f"evaluate: {r['outcome_id']} {r['verdict']}/{r['reason']} at top_score "
                            f"{r['top_score']!r}, tau {tau}")
        rows.append((r["outcome_id"], r["verdict"], r["reason"], r["best_standard"]))
    return problems[:20], sorted(rows), tie_misses


def whitespace_chunk_defect(max_chars: int, overlap: int) -> bool:
    """Whether chunk_recursive emits a whitespace-only chunk on its known trigger.

    The trigger is a block of ``max_chars`` characters after a block of
    ``max_chars - 1``: the blank line between them becomes a chunk, and
    qgen index rejects it. corpus.py redraws blocks of those lengths so
    that every stage runs; this probe keeps the defect in view.
    """
    from qgen.blocks import Block, DocRole, Page, SourceDocument
    from qgen.chunking import chunk_recursive

    blocks = tuple(Block(c * n, 1, (0.0, 0.0, 1.0, 1.0), 11.0) for c, n in (("a", max_chars - 1), ("b", max_chars)))
    doc = SourceDocument("probe", DocRole.KNOWLEDGE_SOURCE, (Page(1, blocks),))
    return any(not c.text.strip() for c in chunk_recursive(doc, max_chars, overlap))


def rows_digest(rows: list[tuple]) -> str:
    return hashlib.sha256(json.dumps(rows, ensure_ascii=False).encode("utf-8")).hexdigest()
