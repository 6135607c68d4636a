from __future__ import annotations

import json
import math
import random
import re
import sys
import threading
from collections import Counter

import numpy as np
import pytest

import qgen.cli
from qgen.chat import MockChatProvider
from qgen.chunking import Chunk, LearningStandard, Strategy
from qgen.cli import main
from qgen.config import load_config
from qgen.embedding import MockEmbeddingProvider, _bucket, embed_texts
from qgen.errors import PipelineStateError, ProviderError
from qgen.evaluate import (
    TIE_TOLERANCE,
    EvalRecord,
    MethodReport,
    Verdict,
    VerdictReason,
    _evaluation_text,
    aggregate,
    ragqa_validity,
    render_report,
    retrieve_standards,
    score_questions,
    sts_alignment,
)
from qgen.generate import GenOutcome, Method
from qgen.jsonio import dumps, loads
from qgen.mcq import Mcq, McqOption, ParseCategory, ParseFailure
from qgen.vectorindex import build_index, load_index, similarities
from tests.conftest import FIXTURES, CountingChat, unit_rows

STANDARDS = [
    LearningStandard("1.1.1", "Mengenal nombor positif dan nombor negatif berdasarkan situasi sebenar."),
    LearningStandard("1.1.2", "Mengenal dan memerihalkan integer."),
    LearningStandard("1.1.3", "Mewakilkan integer pada garis nombor."),
    LearningStandard("1.2.1", "Menambah dan menolak integer menggunakan garis nombor atau kaedah lain."),
    LearningStandard("1.2.2", "Mendarab dan membahagi integer menggunakan pelbagai kaedah."),
    LearningStandard("1.2.6", "Menyelesaikan masalah yang melibatkan integer dalam situasi harian."),
]

# Verified token-disjoint from the first three standard descriptions under
# the mock embedder's hash buckets; the test re-checks that explicitly.
DISJOINT_STEM = "kapal layar belayar jauh ungu"


def token_buckets(embedder: MockEmbeddingProvider, text: str) -> set[int]:
    """The mock embedder's buckets of this text's tokens."""
    return {_bucket(token, embedder.dim) for token in re.findall(r"\w+", text.lower())}


def make_mcq(stem: str) -> Mcq:
    options = tuple(McqOption(l, t) for l, t in zip("ABCD", ["w", "x", "y", "z"]))
    return Mcq(stem=stem, options=options, answer_key="A")


def standards_index(embedder, standards=None, text=lambda s: f"{s.code} {s.description}"):
    standards = standards if standards is not None else STANDARDS
    chunks = [
        Chunk(chunk_id=f"rpt:standard_split:{i:04d}", doc_id="rpt",
              text=text(s), strategy=Strategy.STANDARD_SPLIT)
        for i, s in enumerate(standards)
    ]
    vectors = embed_texts(embedder, [c.text for c in chunks])
    return build_index(chunks, vectors, provider_tag=embedder.tag)


def align(embedder, mcq, standards=None, *, unit="stem"):
    """Score ``mcq`` against an index over the bare standard descriptions: its score and best code."""
    standards = standards if standards is not None else STANDARDS
    index = standards_index(embedder, standards, text=lambda s: s.description)
    table, (row,), _ = score_questions(embedder, [mcq], index, unit=unit)
    scores, best_codes = sts_alignment(table, [s.code for s in standards])
    return scores[row], best_codes[row]


def stem_scores(embedder, index, mcq):
    return similarities(index, embed_texts(embedder, [mcq.stem]))


def stem_retrieval(embedder, index, mcq, k=3):
    """The stem's retrieved standards, best first, and the first one's score."""
    (positions,), (scores,) = retrieve_standards(index, stem_scores(embedder, index, mcq), k)
    return [index.chunks[i] for i in positions], float(scores[0])


# --- sts_alignment -------------------------------------------------------------


def test_identical_stem_scores_one(mock_embedder):
    mcq = make_mcq(STANDARDS[1].description)
    score, best = align(mock_embedder, mcq)
    assert score == pytest.approx(1.0)
    assert best == "1.1.2"


def test_token_disjoint_stem_scores_zero(mock_embedder):
    stem_buckets = token_buckets(mock_embedder, DISJOINT_STEM)
    standard_buckets = set()
    for s in STANDARDS[:3]:
        standard_buckets |= token_buckets(mock_embedder, s.description)
    assert stem_buckets.isdisjoint(standard_buckets), "fixture tokens collide; pick new words"

    score, _ = align(mock_embedder, make_mcq(DISJOINT_STEM), STANDARDS[:3])
    assert score == pytest.approx(0.0, abs=1e-12)


def test_alignment_matches_brute_force_max(mock_embedder):
    rng = random.Random(11)
    vocab = ["integer", "nombor", "garis", "pecahan", "suhu", "wang", "kiri", "kanan",
             "darab", "bahagi", "tolak", "tambah", "situasi", "harian"]
    vectors = embed_texts(mock_embedder, [s.description for s in STANDARDS])
    for _ in range(20):
        stem = " ".join(rng.choices(vocab, k=rng.randint(3, 8)))
        score, _ = align(mock_embedder, make_mcq(stem))
        query = embed_texts(mock_embedder, [stem])[0]
        best = max(
            math.fsum(a * b for a, b in zip(query, vec)) for vec in vectors
        )
        assert score == pytest.approx(best, abs=1e-9)


def test_alignment_tie_break_lowest_code(mock_embedder):
    twins = [
        LearningStandard("2.9.9", "Ayat yang serupa sepenuhnya."),
        LearningStandard("2.1.1", "Ayat yang serupa sepenuhnya."),
    ]
    _, best = align(mock_embedder, make_mcq("Ayat yang serupa sepenuhnya."), twins)
    assert best == "2.1.1"


def test_alignment_rounding_tie_takes_lowest_code():
    # "2.1.1" scores a few ulps below "2.9.9": a tie in exact arithmetic.
    c = 1.0 - 2.0 ** -50
    chunks = [Chunk(chunk_id=f"rpt:standard_split:{i:04d}", doc_id="rpt", text="t",
                    strategy=Strategy.STANDARD_SPLIT) for i in range(2)]
    index = build_index(chunks, [np.array([1.0, 0.0]), np.array([c, math.sqrt(1.0 - c * c)])],
                        provider_tag="t")
    (scores,) = similarities(index, np.array([[1.0, 0.0]]))
    assert 0.0 < scores[0] - scores[1] < TIE_TOLERANCE
    (score,), (best,) = sts_alignment(scores[None], ["2.9.9", "2.1.1"])
    assert best == "2.1.1"
    assert score == scores.max()


def reference_alignment(query, index, codes):
    """Alignment of one query as scored before batching: max, then the lowest tied code."""
    (scores,) = similarities(index, query[None])
    best = scores.max()
    return float(best), min(codes[i] for i in np.flatnonzero(scores >= best - TIE_TOLERANCE))


def test_batched_alignment_equals_scalar_reference():
    rng = np.random.default_rng(11)
    c = 1.0 - 2.0 ** -50
    # Rows 0 and 1 tie in exact arithmetic but differ by ulps; rows 2 and 3
    # are exact twins; the rest are random. Codes are in no particular order.
    rows = np.vstack([[1.0, 0.0, 0.0], [c, math.sqrt(1.0 - c * c), 0.0],
                      unit_rows([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]), unit_rows(rng.standard_normal((8, 3)))])
    codes = ["2.9.9", "2.1.1", "3.5.1", "3.2.7", "1.4.4", "4.1.1", "1.1.2", "2.2.2",
             "5.0.1", "0.9.9", "3.3.3", "2.5.5"]
    chunks = [Chunk(chunk_id=f"rpt:standard_split:{i:04d}", doc_id="rpt", text="t",
                    strategy=Strategy.STANDARD_SPLIT) for i in range(len(rows))]
    index = build_index(chunks, rows, provider_tag="t")
    queries = np.vstack([[1.0, 0.0, 0.0], unit_rows([0.0, 2.0, 2.0]), rows[4:], unit_rows(rng.standard_normal((20, 3)))])
    table = similarities(index, queries)
    batched = list(zip(*sts_alignment(table, codes)))
    expected = [reference_alignment(q, index, codes) for q in queries]
    assert batched == expected
    assert batched[0][1] == "2.1.1"
    assert batched[1][1] == "3.2.7"
    single = [tuple(column[0] for column in sts_alignment(similarities(index, q[None]), codes)) for q in queries]
    assert batched == single
    assert sts_alignment(similarities(index, np.empty((0, 0))), codes) == ([], [])


def test_adding_standard_never_decreases_score(mock_embedder):
    mcq = make_mcq("mendarab dan membahagi integer")
    base, _ = align(mock_embedder, mcq, STANDARDS[:3])
    extended, _ = align(mock_embedder, mcq, STANDARDS[:4])
    assert extended >= base - 1e-12


def test_sts_unit_full_includes_options(mock_embedder):
    options = tuple(McqOption(l, t) for l, t in zip("ABCD", [
        "mendarab integer", "membahagi integer", "pelbagai kaedah", "situasi harian",
    ]))
    mcq = Mcq(stem=DISJOINT_STEM, options=options, answer_key="A")
    stem_only, _ = align(mock_embedder, mcq, unit="stem")
    full, _ = align(mock_embedder, mcq, unit="full")
    assert full > stem_only


def fixture_config(tmp_path, **evaluation):
    """fixtures/mock_config.json with absolute input paths and a workdir under tmp_path."""
    cfg = json.loads((FIXTURES / "mock_config.json").read_text())
    cfg["paths"] = {
        "knowledge_blocks": str(FIXTURES / "nota_mini.blocks.json"),
        "standards_blocks": str(FIXTURES / "rpt_mini.blocks.json"),
        "workdir": str(tmp_path / "workdir"),
    }
    cfg["evaluation"].update(evaluation)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_all_stem_alignment_equals_top_score(tmp_path):
    config = fixture_config(tmp_path, sts_unit="stem")
    assert main(["run-all", "--config", str(config)]) == 0
    lines = (tmp_path / "workdir" / "eval" / "records.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records
    for r in records:
        assert r["score"] == r["top_score"], r["outcome_id"]


class CountingEmbedder:
    """Records every text and call that reaches the wrapped mock embedder."""

    def __init__(self, inner):
        self.inner = inner
        self.tag = inner.tag
        self.texts = []
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        self.texts.extend(texts)
        return self.inner.embed(texts)


def read_outcomes(workdir):
    """The outcomes evaluate reads, in its order: outcome files by name, then line."""
    return [
        GenOutcome(**json.loads(line))
        for path in sorted((workdir / "outcomes").glob("*.jsonl"))
        for line in path.read_text().splitlines()
    ]


def parsed_outcomes(workdir):
    return [o for o in read_outcomes(workdir) if o.mcq is not None]


def read_records(workdir):
    return [json.loads(line) for line in (workdir / "eval" / "records.jsonl").read_text().splitlines()]


def evaluated_texts(workdir, unit):
    """The distinct texts evaluate scores: each parsed question's stem and ``unit`` text."""
    mcqs = [o.mcq for o in parsed_outcomes(workdir)]
    expected = {m.stem for m in mcqs} | {_evaluation_text(m, unit) for m in mcqs}
    assert len(expected) < 2 * len(mcqs)  # texts repeat, so deduplication is exercised
    return expected


@pytest.mark.parametrize("unit", ["stem", "full"])
def test_evaluate_embeds_each_distinct_text_once(tmp_path, monkeypatch, unit):
    config = fixture_config(tmp_path, sts_unit=unit)
    for cmd in ("ingest", "index", "generate"):
        assert main([cmd, "--config", str(config)]) == 0
    embedder = CountingEmbedder(MockEmbeddingProvider(dim=64))
    monkeypatch.setattr(qgen.cli, "build_providers", lambda cfg: (MockChatProvider(), embedder))
    assert main(["evaluate", "--config", str(config)]) == 0

    expected = evaluated_texts(tmp_path / "workdir", unit)
    assert Counter(embedder.texts) == Counter(expected)
    assert embedder.calls == math.ceil(len(expected) / 64)


@pytest.mark.parametrize("unit", ["stem", "full"])
def test_evaluate_scores_each_distinct_text_once(tmp_path, monkeypatch, unit):
    config = fixture_config(tmp_path, sts_unit=unit)
    for cmd in ("ingest", "index", "generate"):
        assert main([cmd, "--config", str(config)]) == 0
    original = similarities
    rows = []

    def recording(index, queries):
        rows.append(len(queries))
        return original(index, queries)

    bound = [m for name, m in sys.modules.items()
             if name.split(".")[0] == "qgen" and getattr(m, "similarities", None) is original]
    assert bound
    for module in bound:
        monkeypatch.setattr(module, "similarities", recording)
    reduced = {}

    def recording_alignment(table, codes):
        reduced["align"] = table
        return sts_alignment(table, codes)

    def recording_retrieval(index, table, k):
        reduced["retrieve"] = table
        return retrieve_standards(index, table, k)

    monkeypatch.setattr(qgen.cli, "sts_alignment", recording_alignment)
    monkeypatch.setattr(qgen.cli, "retrieve_standards", recording_retrieval)
    assert main(["evaluate", "--config", str(config)]) == 0
    assert rows == [len(evaluated_texts(tmp_path / "workdir", unit))]
    # Rows are independent, so both reductions read the whole table, uncopied.
    assert reduced["align"] is reduced["retrieve"]
    assert len(reduced["align"]) == rows[0]


class RecordingChat(MockChatProvider):
    """Mock chat that records every prompt pair it answers, from any thread."""

    def __init__(self):
        super().__init__()
        self.prompts = []
        self.lock = threading.Lock()

    def complete(self, system, user, **kwargs):
        with self.lock:
            self.prompts.append((system, user))
        return super().complete(system, user, **kwargs)


def test_evaluate_asks_each_distinct_stem_once(tmp_path, monkeypatch):
    config = fixture_config(tmp_path)
    for cmd in ("ingest", "index", "generate"):
        assert main([cmd, "--config", str(config)]) == 0
    chat = RecordingChat()
    monkeypatch.setattr(qgen.cli, "build_providers",
                        lambda cfg: (chat, MockEmbeddingProvider(dim=cfg.provider.mock_dim)))
    assert main(["evaluate", "--config", str(config)]) == 0

    workdir = tmp_path / "workdir"
    tau = load_config(config).evaluation.tau
    stems = {o.outcome_id: o.mcq.stem for o in parsed_outcomes(workdir)}
    asked = [stems[r["outcome_id"]] for r in read_records(workdir) if r["top_score"] >= tau]
    assert len(set(asked)) < len(asked)  # stems repeat above tau, so coalescing is exercised
    assert max(Counter(chat.prompts).values()) == 1
    assert len(chat.prompts) == len(set(asked))


@pytest.mark.parametrize("unit", ["stem", "full"])
def test_evaluate_records_equal_per_question_reference(tmp_path, unit):
    config = fixture_config(tmp_path, sts_unit=unit)
    assert main(["run-all", "--config", str(config)]) == 0

    workdir = tmp_path / "workdir"
    ev = load_config(config).evaluation
    rpt_index = load_index(workdir / "indexes" / "standards.index.json")
    codes = [json.loads(line)["code"]
             for line in (workdir / "chunks" / "learning_standards.jsonl").read_text().splitlines()]
    embedder, chat = MockEmbeddingProvider(dim=64), MockChatProvider()
    expected = []
    for outcome in parsed_outcomes(workdir):
        table, (sts_row,), (stem_row,) = score_questions(embedder, [outcome.mcq], rpt_index, unit=unit)
        scores, best_codes = sts_alignment(table, codes)
        positions, top_scores = retrieve_standards(rpt_index, table, ev.k)
        top_score = float(top_scores[stem_row, 0])
        reason = ragqa_validity(outcome.mcq.stem, [rpt_index.chunks[i] for i in positions[stem_row]],
                                top_score, chat, tau=ev.tau, refusal_markers=ev.refusal_markers)
        expected.append({
            "outcome_id": outcome.outcome_id,
            "method": outcome.method.value,
            "score": scores[sts_row],
            "best_standard": best_codes[sts_row],
            "verdict": reason.verdict.value,
            "reason": reason.value,
            "top_score": top_score,
        })
    assert {r["reason"] for r in expected} >= {"AboveThresholdAnswered", "BelowThreshold"}
    assert read_records(workdir) == expected


@pytest.mark.parametrize("malformed_rate", [0.0, 0.2])
def test_records_read_back_and_fold_into_the_report(tmp_path, malformed_rate):
    config = fixture_config(tmp_path)
    cfg = json.loads(config.read_text())
    cfg["provider"]["mock_malformed_rate"] = malformed_rate
    config.write_text(json.dumps(cfg))
    assert main(["run-all", "--config", str(config)]) == 0

    workdir = tmp_path / "workdir"
    records = []
    for row in read_records(workdir):
        written = row.pop("verdict")
        records.append(EvalRecord(**row))
        assert records[-1].verdict.value == written
    assert {r.verdict for r in records} == set(Verdict)
    outcomes = read_outcomes(workdir)
    assert any(o.failed for o in outcomes) is (malformed_rate > 0)
    reports = aggregate(outcomes, records, embedder_tag=MockEmbeddingProvider(dim=64).tag)
    assert dumps(reports, indent=True) + b"\n" == (workdir / "report.json").read_bytes()


@pytest.mark.parametrize("field, value, message", [
    ("outcome_id", 1, "must be strings"), ("method", "basic", "not a valid Method"),
    ("score", "0.5", "score must be a finite number"), ("score", math.nan, "score must be a finite number"),
    ("best_standard", None, "must be strings"), ("reason", "Valid", "not a valid VerdictReason"),
    ("top_score", None, "top_score must be a finite number"), ("verdict", "Valid", "unexpected keyword argument"),
])
def test_eval_record_refuses_a_damaged_field(field, value, message):
    record = EvalRecord("q0", Method.BASIC_PROMPT, 0.5, "1.1.1", VerdictReason.REFUSAL, 0.6)
    row = loads(dumps(record))
    assert row.pop("verdict") == "Invalid"
    with pytest.raises((TypeError, ValueError), match=message):
        EvalRecord(**{**row, field: value})
    assert EvalRecord(**row) == record


class QaRejected(MockChatProvider):
    def complete(self, system, user, **kwargs):
        raise ProviderError(400, "rejected question", retryable=False)


def test_evaluate_qa_failure_exits_3_without_records(tmp_path, monkeypatch, capsys):
    config = fixture_config(tmp_path)
    for cmd in ("ingest", "index", "generate"):
        assert main([cmd, "--config", str(config)]) == 0
    monkeypatch.setattr(qgen.cli, "build_providers",
                        lambda cfg: (QaRejected(), MockEmbeddingProvider(dim=cfg.provider.mock_dim)))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config)]) == 3
    assert "rejected question" in capsys.readouterr().err
    assert not (tmp_path / "workdir" / "eval" / "records.jsonl").exists()
    assert not (tmp_path / "workdir" / "report.json").exists()


# --- ragqa_validity -------------------------------------------------------------


def test_valid_when_stem_matches_standard(mock_embedder, mock_chat):
    index = standards_index(mock_embedder)
    mcq = make_mcq(f"{STANDARDS[1].code} {STANDARDS[1].description}")
    context, top_score = stem_retrieval(mock_embedder, index, mcq)
    reason = ragqa_validity(mcq.stem, context, top_score, mock_chat, tau=0.5)
    assert reason.verdict is Verdict.VALID
    assert reason is VerdictReason.ABOVE_THRESHOLD_ANSWERED
    assert top_score == pytest.approx(1.0)


def test_below_threshold_skips_chat(mock_embedder):
    chat = CountingChat()
    index = standards_index(mock_embedder)
    mcq = make_mcq(DISJOINT_STEM)
    reason = ragqa_validity(mcq.stem, *stem_retrieval(mock_embedder, index, mcq), chat, tau=0.5)
    assert reason.verdict is Verdict.INVALID
    assert reason is VerdictReason.BELOW_THRESHOLD
    assert chat.calls == 0


def test_refusal_mode_invalidates(mock_embedder):
    chat = CountingChat(refuse_questions=True)
    index = standards_index(mock_embedder)
    mcq = make_mcq(STANDARDS[2].description)
    reason = ragqa_validity(mcq.stem, *stem_retrieval(mock_embedder, index, mcq), chat, tau=0.3)
    assert reason.verdict is Verdict.INVALID
    assert reason is VerdictReason.REFUSAL
    assert chat.calls == 1


def test_wrong_index_role_rejected(mock_embedder, mock_chat):
    chunks = [Chunk(chunk_id="k:recursive:0000", doc_id="k", text="nota biasa",
                    strategy=Strategy.RECURSIVE)]
    vectors = embed_texts(mock_embedder, ["nota biasa"])
    index = build_index(chunks, vectors, provider_tag="t")
    mcq = make_mcq("apa")
    with pytest.raises(PipelineStateError, match="requires an index built exclusively from standard-split chunks"):
        retrieve_standards(index, stem_scores(mock_embedder, index, mcq))


def test_tau_monotonicity(mock_embedder):
    index = standards_index(mock_embedder)
    stems = [
        STANDARDS[0].description,
        "menambah integer garis nombor",
        "masalah integer harian",
        DISJOINT_STEM,
        "nombor positif sahaja",
    ]
    taus = [i / 10 for i in range(1, 10)]
    for stem in stems:
        mcq = make_mcq(stem)
        previous_invalid = False
        for tau in taus:
            chat = MockChatProvider()
            verdict = ragqa_validity(mcq.stem, *stem_retrieval(mock_embedder, index, mcq), chat, tau=tau)
            if previous_invalid:
                assert verdict.verdict is Verdict.INVALID
            previous_invalid = verdict.verdict is Verdict.INVALID


# --- aggregate -------------------------------------------------------------------


def _outcome(outcome_id: str, method: Method, failed: bool = False) -> GenOutcome:
    result = (
        ParseFailure(raw_text="{", category=ParseCategory.NOT_JSON, message="broken")
        if failed
        else make_mcq(f"soalan {outcome_id}")
    )
    return GenOutcome(
        method=method, topic="t", retrieval_k=3 if method.is_rag else None,
        outcome_id=outcome_id, result=result,
        retrieved_chunk_ids=(), prompt_fingerprint="f" * 64, provider_tag="mock-chat-v1",
    )


def _record(outcome: GenOutcome, score: float, valid: bool) -> EvalRecord:
    reason = VerdictReason.ABOVE_THRESHOLD_ANSWERED if valid else VerdictReason.BELOW_THRESHOLD
    return EvalRecord(outcome.outcome_id, outcome.method, score, "1.1.1", reason, 0.9 if valid else 0.1)


def test_aggregate_hand_arithmetic():
    outcomes = [_outcome(f"q{i}", Method.BASIC_PROMPT) for i in range(3)]
    records = [_record(o, score, valid) for o, score, valid in zip(outcomes, (0.8, 0.9, 1.0), (True, True, False))]
    (report,) = aggregate(outcomes, records, embedder_tag="e")
    assert report.mean_sts == pytest.approx(0.9)
    assert report.std_sts == pytest.approx(0.1)
    assert report.validity_pct == pytest.approx(66.67, abs=0.01)
    assert report.parse_failure_pct == 0.0
    assert report.n == 3


def test_aggregate_excludes_failures_from_stats():
    outcomes = [_outcome(f"q{i:03d}", Method.BASIC_PROMPT, failed=i < 4) for i in range(100)]
    records = [_record(o, 0.5, True) for o in outcomes if not o.failed]
    (report,) = aggregate(outcomes, records)
    assert report.parse_failure_pct == pytest.approx(4.0)
    assert report.n == 100
    assert report.mean_sts == pytest.approx(0.5)
    assert report.validity_pct == pytest.approx(100.0)


def test_aggregate_groups_records_by_method():
    outcomes = [_outcome("q0", Method.BASIC_PROMPT), _outcome("q1", Method.RAG_GENERIC),
                _outcome("q2", Method.BASIC_PROMPT, failed=True), _outcome("q3", Method.RAG_GENERIC),
                _outcome("q4", Method.BASIC_PROMPT)]
    parsed = [o for o in outcomes if not o.failed]
    records = [_record(o, s, v) for o, s, v in zip(parsed, (0.2, 0.8, 0.4, 0.6), (True, False, False, True))]
    # A method's records are found by their method, not by their position among the outcomes.
    assert aggregate(outcomes, records[::-1]) == aggregate(outcomes, records)
    basic, rag = aggregate(outcomes, records)
    assert (basic.method, basic.n, basic.validity_pct) == (Method.BASIC_PROMPT, 3, 100.0)
    assert basic.mean_sts == pytest.approx(0.4)
    assert basic.parse_failure_pct == pytest.approx(100 / 3)
    assert (rag.method, rag.n, rag.validity_pct) == (Method.RAG_GENERIC, 2, 0.0)
    assert rag.mean_sts == pytest.approx(0.6)


def test_aggregate_sanity_bounds(mock_embedder):
    rng = random.Random(3)
    outcomes = []
    records = []
    scores = {}
    for method in (Method.BASIC_PROMPT, Method.RAG_GENERIC):
        for i in range(12):
            oid = f"{method.value}:{i}"
            failed = rng.random() < 0.2
            outcomes.append(_outcome(oid, method, failed=failed))
            if not failed:
                records.append(_record(outcomes[-1], rng.uniform(-1, 1), rng.random() < 0.5))
                scores[oid] = records[-1].score
    reports = aggregate(outcomes, records)
    for r in reports:
        assert 0.0 <= r.validity_pct <= 100.0
        assert r.std_sts >= 0.0
        method_scores = [s for ref, s in scores.items() if ref.startswith(r.method.value)]
        if method_scores:
            assert min(method_scores) - 1e-12 <= r.mean_sts <= max(method_scores) + 1e-12


# --- render_report ----------------------------------------------------------------


def _report(method: Method, mean=0.5) -> MethodReport:
    return MethodReport(method=method, n=10, mean_sts=mean, std_sts=0.1,
                        validity_pct=50.0, parse_failure_pct=0.0,
                        embedder_tag="e", chat_tag="c")


@pytest.mark.parametrize("field, value", [
    ("n", -1), ("n", True), ("n", 1.0), ("mean_sts", "x"), ("mean_sts", None), ("std_sts", math.nan),
    ("validity_pct", math.inf), ("parse_failure_pct", False), ("embedder_tag", 1), ("chat_tag", None),
])
def test_method_report_refuses_a_damaged_field(field, value):
    fields = loads(dumps(_report(Method.BASIC_PROMPT)))
    with pytest.raises((TypeError, ValueError), match=field):
        MethodReport(**{**fields, field: value})
    assert MethodReport(**fields) == _report(Method.BASIC_PROMPT)


def test_markdown_report_shape():
    reports = [_report(m) for m in
               (Method.STRUCTURED_PROMPT, Method.BASIC_PROMPT, Method.RAG_GENERIC,
                Method.RAG_STRUCTURE_AWARE)]
    text = render_report(reports, "markdown")
    lines = text.split("\n")
    assert len(lines) == 6
    assert lines[0].count("|") == 6
    assert "STS Score" in lines[0]
    assert "Parse Failures (%)" in lines[0]
    for line in lines[2:]:
        assert line.count("|") == 6


def test_report_two_decimal_rendering():
    report = _report(Method.BASIC_PROMPT, mean=0.6666)
    text = render_report([report], "markdown")
    assert "| 0.67 |" in text


def test_json_report_round_trip():
    reports = [_report(Method.BASIC_PROMPT), _report(Method.RAG_GENERIC, mean=0.9)]
    import json

    parsed = [MethodReport(**d) for d in json.loads(render_report(reports, "json"))]
    assert parsed == reports


def test_render_empty_rejected():
    with pytest.raises(PipelineStateError, match="cannot render an empty report list"):
        render_report([], "markdown")


