"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so the run log doubles as a checklist."""

from __future__ import annotations

import json
import math
import random
import re
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from qgen.blocks import DocRole, flatten_text, load_document
from qgen.chat import MockChatProvider
from qgen.chunking import (
    Chunk,
    Strategy,
    chunk_recursive,
    chunk_rpt_standards,
    chunk_structure_aware,
)
from qgen.cli import main
from qgen.embedding import MockEmbeddingProvider, embed_texts
from qgen.errors import PipelineStateError
from qgen.evaluate import (
    Verdict,
    VerdictReason,
    aggregate,
    ragqa_validity,
    retrieve_standards,
    score_questions,
    sts_alignment,
)
from qgen.generate import Method, embed_rag_queries, generate_batch
from qgen.mcq import Mcq, McqOption, ParseFailure, parse_mcq_json
from qgen.vectorindex import build_index, load_index, save_index, similarities, top_k
from tests.conftest import FIXTURES, CountingChat, make_doc, unit_rows
from tests.malformed_corpus import MALFORMED_CASES


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def _brute_force_hits(matrix, chunk_ids, query, k):
    qnorm = math.sqrt(math.fsum(x * x for x in query))
    scored = []
    for row, cid in zip(matrix, chunk_ids):
        dot = math.fsum(a * b for a, b in zip(row, query))
        scored.append((max(-1.0, min(1.0, dot / qnorm)), cid))
    ranked = sorted(scored, key=lambda t: (-t[0], t[1]))
    return ranked[: min(k, len(chunk_ids))]


def test_criterion_1_retrieval_oracle():
    with criterion(1, "retrieval oracle"):
        rng = random.Random(20240601)
        started = time.monotonic()
        for _ in range(200):
            size = rng.randint(1, 50)
            dim = rng.randint(2, 16)
            k = rng.randint(1, size + 5)
            chunks = [Chunk(chunk_id=f"c{i:03d}", doc_id="d", text="t",
                            strategy=Strategy.RECURSIVE) for i in range(size)]
            vectors = unit_rows([[rng.gauss(0, 1) for _ in range(dim)] for _ in range(size)])
            index = build_index(chunks, vectors, provider_tag="oracle")
            query = np.array([rng.gauss(0, 1) for _ in range(dim)])
            if float(np.linalg.norm(query)) == 0.0:
                continue
            query = unit_rows(query)
            (positions,), (scores,) = top_k(index, similarities(index, query[None]), k)
            expected = _brute_force_hits(index.matrix, [c.chunk_id for c in chunks], query, k)
            assert [chunks[i].chunk_id for i in positions] == [cid for _, cid in expected]
            assert len(scores) == len(expected)
            for got, (score, _) in zip(scores.tolist(), expected):
                assert abs(got - score) < 1e-9
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"retrieval oracle took {elapsed:.1f}s"


def _standards_index(pairs):
    """Standards index whose rows embed the given (standard, vector) pairs in order."""
    chunks = [Chunk(chunk_id=f"rpt:standard_split:{i:04d}", doc_id="rpt", text=s.description,
                    strategy=Strategy.STANDARD_SPLIT) for i, (s, _) in enumerate(pairs)]
    return build_index(chunks, [v for _, v in pairs], provider_tag="oracle")


def test_criterion_2_sts_oracle():
    with criterion(2, "sts oracle"):
        rng = random.Random(7_000)
        embedder = MockEmbeddingProvider(dim=64)
        vocab = ["integer", "nombor", "garis", "pecahan", "suhu", "wang", "darab",
                 "bahagi", "tolak", "tambah", "situasi", "harian", "positif", "negatif",
                 "masalah", "kaedah", "contoh", "latih"]
        for _ in range(100):
            stem = " ".join(rng.choices(vocab, k=rng.randint(2, 9)))
            n_standards = rng.randint(2, 8)
            standards = []
            for j in range(n_standards):
                code = f"{rng.randint(1, 3)}.{rng.randint(1, 9)}.{rng.randint(1, 9)}"
                desc = " ".join(rng.choices(vocab, k=rng.randint(2, 6)))
                standards.append((code, desc))
            # codes must be unique for the tie-break contract to be meaningful
            if len({c for c, _ in standards}) != len(standards):
                continue
            from qgen.chunking import LearningStandard

            pairs_std = [LearningStandard(c, d) for c, d in standards]
            vectors = embed_texts(embedder, [s.description for s in pairs_std])
            pairs = list(zip(pairs_std, vectors))
            options = tuple(McqOption(l, t) for l, t in zip("ABCD", ["p", "q", "r", "s"]))
            mcq = Mcq(stem=stem, options=options, answer_key="A")
            query = embed_texts(embedder, [stem])[0]
            (result,) = sts_alignment(similarities(_standards_index(pairs), query[None]),
                                      [s.code for s in pairs_std])
            scored = sorted(
                ((max(-1.0, min(1.0, math.fsum(a * b for a, b in zip(query, vec)))), s.code)
                 for s, vec in pairs),
                key=lambda t: (-t[0], t[1]),
            )
            best_score, best_code = scored[0]
            assert abs(result.score - best_score) < 1e-9
            assert result.best_standard == best_code

        # explicit tie: identical descriptions, argmax must take the lowest code
        from qgen.chunking import LearningStandard

        twins = [LearningStandard("3.9.9", "ayat serupa"), LearningStandard("3.1.1", "ayat serupa")]
        vectors = embed_texts(embedder, [s.description for s in twins])
        options = tuple(McqOption(l, t) for l, t in zip("ABCD", ["p", "q", "r", "s"]))
        table, (row,), _ = score_questions(embedder, [Mcq(stem="ayat serupa", options=options, answer_key="A")],
                                           _standards_index(list(zip(twins, vectors))))
        tie = sts_alignment(table, [s.code for s in twins])[row]
        assert tie.best_standard == "3.1.1"


def test_criterion_3_chunker_coverage():
    with criterion(3, "chunker coverage"):
        rng = random.Random(99)
        alphabet = "abcdefg hij.\nkl!\n\nmn? " + "z" * 12
        for _ in range(100):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 500)))
            if not text.strip():
                continue
            max_chars = rng.randint(4, 90)
            overlap = rng.randint(0, max_chars - 1)
            doc = make_doc([text])
            flat = flatten_text(doc)
            chunks = chunk_recursive(doc, max_chars=max_chars, overlap=overlap)
            covered = set()
            for c in chunks:
                s, e = c.char_span
                assert c.text == flat[s:e]
                covered.update(range(s, e))
                if e - s > max_chars:
                    tokens = re.findall(r"\S+", c.text)
                    assert any(len(t) > max_chars for t in tokens)
            assert covered == set(range(len(flat)))

        # structure-aware: partition + keyword-unit integrity on the fixture corpus
        nota = load_document(FIXTURES / "nota_mini.blocks.json", DocRole.KNOWLEDGE_SOURCE)
        chunks = chunk_structure_aware(nota)
        assigned = [i for c in chunks for i in c.source_blocks]
        blocks = list(nota.iter_blocks())
        assert assigned == list(range(len(blocks)))
        for c in chunks:
            first = blocks[c.source_blocks[0]]
            if first.text.startswith("Contoh"):
                # the whole unit (until the next keyword/heading block) stays together
                nxt = c.source_blocks[-1] + 1
                if nxt < len(blocks):
                    assert any(blocks[nxt].text.startswith(k)
                               for k in ("Contoh", "Latih Diri", "Standard Pembelajaran")) \
                        or blocks[nxt].font_size > first.font_size
        # a Contoh unit larger than the budget is still one chunk
        oversize = make_doc(["Contoh 9: " + "a" * 200, "sambungan " + "b" * 200,
                             "lagi " + "c" * 200])
        assert len(chunk_structure_aware(oversize, max_chars=300)) == 1


def test_criterion_4_parser_robustness():
    with criterion(4, "parser robustness"):
        assert len(MALFORMED_CASES) == 30
        for raw, expected_category in MALFORMED_CASES:
            result = parse_mcq_json(raw)
            assert isinstance(result, ParseFailure)
            assert result.category is expected_category
            assert result.raw_text == raw


def test_criterion_5_failure_accounting():
    with criterion(5, "failure accounting"):
        rpt = load_document(FIXTURES / "rpt_mini.blocks.json", DocRole.STANDARDS_BLUEPRINT)
        standards = [s for s, _ in chunk_rpt_standards(rpt)]
        chat = MockChatProvider(malformed_rate=0.04)
        embedder = MockEmbeddingProvider(dim=64)
        outcomes = generate_batch(chat, Method.BASIC_PROMPT, 100,
                                  topic="Nombor Nisbah", standards=standards)
        assert len(outcomes) == 100
        parsed = [o for o in outcomes if not o.failed]
        assert len(parsed) == 96

        align_index = _standards_index(
            list(zip(standards, embed_texts(embedder, [s.description for s in standards])))
        )
        std_chunks = [
            Chunk(chunk_id=f"rpt:standard_split:{i:04d}", doc_id="rpt",
                  text=f"{s.code} {s.description}", strategy=Strategy.STANDARD_SPLIT)
            for i, s in enumerate(standards)
        ]
        rpt_index = build_index(std_chunks, embed_texts(embedder, [c.text for c in std_chunks]),
                                provider_tag=embedder.tag)
        stem_vectors = embed_texts(embedder, [o.mcq.stem for o in parsed])
        alignments = sts_alignment(similarities(align_index, stem_vectors), [s.code for s in standards])
        table, _, stem_rows = score_questions(embedder, [o.mcq for o in parsed], rpt_index)
        positions, top_scores = retrieve_standards(rpt_index, table, 3)
        verdicts = [
            ragqa_validity(o.mcq.stem, [rpt_index.chunks[i] for i in positions[row]], float(top_scores[row, 0]),
                           MockChatProvider(), tau=0.35)
            for o, row in zip(parsed, stem_rows)
        ]
        (report,) = aggregate(outcomes, alignments, verdicts, embedder_tag=embedder.tag)
        assert report.parse_failure_pct == 4.00
        assert report.n == 100
        expected_mean = sum(a.score for a in alignments) / 96
        assert report.mean_sts == pytest.approx(expected_mean)


def _fixture_config(tmp_path: Path) -> Path:
    cfg = {
        "paths": {
            "knowledge_blocks": str(FIXTURES / "nota_mini.blocks.json"),
            "standards_blocks": str(FIXTURES / "rpt_mini.blocks.json"),
            "workdir": str(tmp_path / "workdir"),
        },
        "chunking": {"recursive_max_chars": 280, "recursive_overlap": 60},
        "provider": {"mock": True},
        "generation": {"n_per_method": 6, "topic": "Nombor Nisbah", "retrieval_k": 3},
        "evaluation": {"tau": 0.35, "k": 3},
    }
    path = tmp_path / "acceptance_config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_criterion_6_direction_of_effect(tmp_path):
    with criterion(6, "direction-of-effect replication"):
        config = _fixture_config(tmp_path)
        started = time.monotonic()
        assert main(["run-all", "--config", str(config)]) == 0
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"run-all took {elapsed:.1f}s"

        reports = {
            r["method"]: r
            for r in json.loads((tmp_path / "workdir" / "report.json").read_text())
        }
        sts = {m: reports[m]["mean_sts"] for m in reports}
        validity = {m: reports[m]["validity_pct"] for m in reports}
        assert sts["rag_structure_aware"] >= sts["rag_generic"]
        assert sts["rag_generic"] > sts["structured_prompt"]
        assert sts["rag_generic"] > sts["basic_prompt"]
        for rag in ("rag_generic", "rag_structure_aware"):
            for plain in ("structured_prompt", "basic_prompt"):
                assert validity[rag] > validity[plain]


def test_criterion_7_determinism_and_persistence(tmp_path):
    with criterion(7, "determinism & persistence"):
        config = _fixture_config(tmp_path)
        workdir = tmp_path / "workdir"
        assert main(["run-all", "--config", str(config)]) == 0
        first = {
            str(p.relative_to(workdir)): p.read_bytes()
            for p in sorted(workdir.rglob("*")) if p.is_file()
        }
        assert main(["run-all", "--config", str(config)]) == 0
        second = {
            str(p.relative_to(workdir)): p.read_bytes()
            for p in sorted(workdir.rglob("*")) if p.is_file()
        }
        assert first == second

        index_path = workdir / "indexes" / "standards.index.json"
        index = load_index(index_path)
        copy_path = tmp_path / "copy.index.json"
        save_index(index, copy_path)
        assert load_index(copy_path) == index
        assert copy_path.read_bytes() == index_path.read_bytes()

        payload = index_path.read_bytes()
        truncated = tmp_path / "broken.index.json"
        truncated.write_bytes(payload[: len(payload) // 3])
        with pytest.raises(PipelineStateError, match="not a valid index file"):
            load_index(truncated)
        tampered = json.loads(payload)
        tampered["entries"][0]["vector"][0] += 0.25
        bad = tmp_path / "tampered.index.json"
        bad.write_text(json.dumps(tampered))
        with pytest.raises(PipelineStateError, match="checksum mismatch"):
            load_index(bad)


def test_criterion_8_validity_rule_properties():
    with criterion(8, "validity rule properties"):
        embedder = MockEmbeddingProvider(dim=64)
        rpt = load_document(FIXTURES / "rpt_mini.blocks.json", DocRole.STANDARDS_BLUEPRINT)
        pairs = chunk_rpt_standards(rpt)
        rpt_index = build_index([c for _, c in pairs],
                                embed_texts(embedder, [c.text for _, c in pairs]),
                                provider_tag=embedder.tag)
        nota = load_document(FIXTURES / "nota_mini.blocks.json", DocRole.KNOWLEDGE_SOURCE)
        nota_index = build_index(
            chunk_structure_aware(nota),
            embed_texts(embedder, [c.text for c in chunk_structure_aware(nota)]),
            provider_tag=embedder.tag,
        )
        standards = [s for s, _ in pairs]
        chat = MockChatProvider()
        rag = generate_batch(chat, Method.RAG_STRUCTURE_AWARE, 25, topic="Nombor Nisbah",
                             standards=standards, retrieval_k=3, index=nota_index,
                             rag_queries=embed_rag_queries(embedder, 25, topic="Nombor Nisbah",
                                                           standards=standards))
        plain = generate_batch(chat, Method.BASIC_PROMPT, 25, topic="Nombor Nisbah",
                               standards=standards)
        questions = [o.mcq for o in rag + plain if o.mcq is not None]
        assert len(questions) == 50
        table, _, stem_rows = score_questions(embedder, questions, rpt_index)
        positions, top_scores = retrieve_standards(rpt_index, table, 3)
        contexts = [[rpt_index.chunks[i] for i in positions[row]] for row in stem_rows]
        stem_top_scores = [float(top_scores[row, 0]) for row in stem_rows]

        taus = [i / 10 for i in range(1, 10)]
        previous_invalid: set[int] = set()
        for tau in taus:
            invalid_now: set[int] = set()
            for qi, mcq in enumerate(questions):
                spy = CountingChat()
                verdict = ragqa_validity(mcq.stem, contexts[qi], stem_top_scores[qi], spy, tau=tau)
                if verdict.verdict is Verdict.INVALID:
                    invalid_now.add(qi)
                if verdict.reason is VerdictReason.BELOW_THRESHOLD:
                    assert spy.calls == 0
            assert previous_invalid <= invalid_now, (
                f"raising tau to {tau} flipped a verdict from Invalid to Valid"
            )
            previous_invalid = invalid_now
