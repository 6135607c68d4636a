"""Command-line pipeline: ingest -> index -> generate -> evaluate -> report.

Every stage is a pure function of its inputs plus the resolved config, so
deleting a stage's outputs and rerunning reproduces them exactly under the
mock providers. Exit codes: 0 ok, 2 input error, 3 provider error, 4
pipeline-state error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .blocks import DocRole, load_document
from .chat import ChatProvider, HttpChatProvider, MockChatProvider
from .chunking import Chunk, LearningStandard, chunk_recursive, chunk_rpt_standards, chunk_structure_aware
from .config import RunConfig, load_config
from .embedding import (
    EmbeddingProvider,
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    ProviderPolicy,
    embed_texts,
    map_in_flight,
)
from .errors import InputError, PipelineStateError, ProviderError, QgenError
from .evaluate import (
    MethodReport,
    aggregate,
    ragqa_validity,
    render_report,
    retrieve_standards,
    score_questions,
    sts_alignment,
)
from .generate import GenOutcome, Method, embed_rag_queries, generate_batch
from .jsonio import loads, read_jsonl, write_json, write_jsonl, write_text
from .vectorindex import VectorIndex, build_index, load_index, save_index

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PROVIDER = 3
EXIT_STATE = 4


class Workdir:
    """Fixed artifact layout inside the run directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.chunks = self.root / "chunks"
        self.indexes = self.root / "indexes"
        self.outcomes = self.root / "outcomes"
        self.eval = self.root / "eval"

    def chunk_file(self, name: str) -> Path:
        return self.chunks / f"{name}.jsonl"

    def index_file(self, name: str) -> Path:
        return self.indexes / f"{name}.index.json"

    def outcome_file(self, method: Method) -> Path:
        return self.outcomes / f"{method.value}.jsonl"

    @property
    def standards_file(self) -> Path:
        return self.chunks / "learning_standards.jsonl"

    @property
    def eval_records(self) -> Path:
        return self.eval / "records.jsonl"

    @property
    def report_md(self) -> Path:
        return self.root / "report.md"

    @property
    def report_json(self) -> Path:
        return self.root / "report.json"

    @property
    def resolved_config(self) -> Path:
        return self.root / "resolved_config.json"


def build_providers(cfg: RunConfig) -> tuple[ChatProvider, EmbeddingProvider]:
    """Construct providers; mock mode never touches the network by design."""
    p = cfg.provider
    if p.mock:
        return (
            MockChatProvider(malformed_rate=p.mock_malformed_rate),
            MockEmbeddingProvider(dim=p.mock_dim),
        )
    chat = HttpChatProvider(endpoint=p.chat_endpoint, model=p.chat_model, api_key_env=p.api_key_env)
    embedder = HttpEmbeddingProvider(endpoint=p.embed_endpoint, model=p.embed_model, api_key_env=p.api_key_env)
    return chat, embedder


def _provider_policy(cfg: RunConfig) -> ProviderPolicy:
    p = cfg.provider
    return ProviderPolicy(max_retries=p.max_retries, base_delay=p.backoff_base, max_in_flight=p.max_in_flight)


def _echo_config(cfg: RunConfig) -> None:
    write_json(Workdir(cfg.paths.workdir).resolved_config, cfg.to_dict())


def _read_artifact(path: Path, stage: str, from_dict) -> list:
    """The rows of a workdir artifact that ``stage`` writes, each through ``from_dict``.

    A missing file, or a row that ``from_dict`` cannot read, is a
    pipeline-state error naming the file and the row.
    """
    if not path.is_file():
        raise PipelineStateError(f"missing {path}; run the {stage} stage first")
    rows = []
    try:
        for row in read_jsonl(path) if path.suffix == ".jsonl" else loads(path.read_bytes()):
            rows.append(from_dict(row))
    except (KeyError, TypeError, ValueError) as exc:
        raise PipelineStateError(
            f"{path}: row {len(rows) + 1} is damaged ({type(exc).__name__}: {exc}); rerun the {stage} stage"
        ) from exc
    return rows


def _read_standards(work: Workdir) -> list[tuple[LearningStandard, str]]:
    return _read_artifact(
        work.standards_file, "ingest",
        lambda row: (LearningStandard(row["code"], row["description"]), row["chunk_id"]),
    )


def cmd_ingest(cfg: RunConfig) -> int:
    """Chunk both source documents into the workdir chunk files."""
    work = Workdir(cfg.paths.workdir)
    knowledge = load_document(cfg.paths.knowledge_blocks, DocRole.KNOWLEDGE_SOURCE)
    standards_doc = load_document(cfg.paths.standards_blocks, DocRole.STANDARDS_BLUEPRINT)

    ch = cfg.chunking
    recursive = chunk_recursive(knowledge, max_chars=ch.recursive_max_chars, overlap=ch.recursive_overlap)
    structure = chunk_structure_aware(
        knowledge,
        heading_font_delta=ch.structure_heading_font_delta,
        max_chars=ch.structure_max_chars,
        keywords=ch.unit_keywords,
    )
    standard_pairs = chunk_rpt_standards(standards_doc)

    n1 = write_jsonl(work.chunk_file("knowledge_recursive"), (c.to_dict() for c in recursive))
    n2 = write_jsonl(work.chunk_file("knowledge_structure_aware"), (c.to_dict() for c in structure))
    n3 = write_jsonl(work.chunk_file("standards"), (c.to_dict() for _, c in standard_pairs))
    write_jsonl(
        work.standards_file,
        ({"code": s.code, "description": s.description, "chunk_id": c.chunk_id} for s, c in standard_pairs),
    )
    print(f"ingest: knowledge_recursive={n1} knowledge_structure_aware={n2} standards={n3}")
    return EXIT_OK


def cmd_index(cfg: RunConfig) -> int:
    """Embed every chunk file in one call and persist one flat index per file."""
    work = Workdir(cfg.paths.workdir)
    _, embedder = build_providers(cfg)
    names = ("knowledge_recursive", "knowledge_structure_aware", "standards")
    chunk_lists = [_read_artifact(work.chunk_file(name), "ingest", Chunk.from_dict) for name in names]
    # One call sends each distinct chunk text once, so a provider failure writes no index.
    vectors = embed_texts(embedder, [c.text for chunks in chunk_lists for c in chunks], _provider_policy(cfg))
    splits = np.split(vectors, np.cumsum([len(chunks) for chunks in chunk_lists[:-1]]))
    counts = []
    for name, chunks, rows in zip(names, chunk_lists, splits):
        index = build_index(chunks, rows, provider_tag=embedder.tag)
        save_index(index, work.index_file(name))
        counts.append(f"{name}={len(index)}")
    print(f"index: {' '.join(counts)} provider={embedder.tag}")
    return EXIT_OK


def _load_matching_index(path: Path, embedder: EmbeddingProvider) -> VectorIndex:
    """Load an index, refusing one that another embedder made: queries would land in a foreign space."""
    if not path.is_file():
        raise PipelineStateError(f"missing index {path}; run the index stage first")
    index = load_index(path)
    if index.provider_tag != embedder.tag:
        raise PipelineStateError(
            f"{path} was embedded by {index.provider_tag!r}, but the configured embedder is "
            f"{embedder.tag!r}; rerun `qgen index`"
        )
    return index


def cmd_generate(cfg: RunConfig) -> int:
    """Generate n outcomes per enabled method, cycling the standards."""
    work = Workdir(cfg.paths.workdir)
    chat, embedder = build_providers(cfg)
    standards = [s for s, _ in _read_standards(work)]
    gen = cfg.generation
    policy = _provider_policy(cfg)
    # Every index is checked before any method runs, so a refusal writes no outcome file.
    indexes = {
        method: _load_matching_index(work.index_file(
            "knowledge_recursive" if method is Method.RAG_GENERIC else "knowledge_structure_aware"
        ), embedder)
        for method in gen.methods if method.is_rag
    }
    # The RAG methods retrieve with the same queries, so they are embedded once for all of them.
    rag_queries = embed_rag_queries(embedder, gen.n_per_method, topic=gen.topic, standards=standards,
                                    policy=policy) if indexes else None
    for method in gen.methods:
        outcomes = generate_batch(
            chat,
            method,
            gen.n_per_method,
            topic=gen.topic,
            standards=standards,
            retrieval_k=gen.retrieval_k,
            index=indexes.pop(method, None),
            rag_queries=rag_queries if method.is_rag else None,
            temperature=gen.temperature,
            policy=policy,
        )
        write_jsonl(work.outcome_file(method), (o.to_dict() for o in outcomes))
        failed = sum(1 for o in outcomes if o.failed)
        print(f"generate: method={method.value} parsed={len(outcomes) - failed} failed={failed}")
    return EXIT_OK


def _load_outcomes(work: Workdir, methods: tuple[Method, ...]) -> list[GenOutcome]:
    """Outcomes of the configured methods, their files read in file-name order."""
    outcomes: list[GenOutcome] = []
    for path in sorted({work.outcome_file(m) for m in methods}):
        outcomes.extend(_read_artifact(path, "generate", GenOutcome.from_dict))
    if not outcomes:
        raise PipelineStateError(f"no outcomes found under {work.outcomes}")
    return outcomes


def cmd_evaluate(cfg: RunConfig) -> int:
    """Score every parsed outcome and write records plus the method report."""
    work = Workdir(cfg.paths.workdir)
    chat, embedder = build_providers(cfg)
    standards_index_path = work.index_file("standards")
    rpt_index = _load_matching_index(standards_index_path, embedder)
    standards = _read_standards(work)
    if [chunk_id for _, chunk_id in standards] != [c.chunk_id for c in rpt_index.chunks]:
        raise PipelineStateError(
            f"{work.standards_file} and {standards_index_path} disagree on standard chunk ids; "
            "rerun the ingest and index stages together"
        )
    codes = [standard.code for standard, _ in standards]
    outcomes = _load_outcomes(work, cfg.generation.methods)
    parsed = [o for o in outcomes if o.mcq is not None]

    ev = cfg.evaluation
    policy = _provider_policy(cfg)
    table, sts_rows, stem_rows = score_questions(embedder, [o.mcq for o in parsed], rpt_index,
                                                 unit=ev.sts_unit, policy=policy)
    # Each distinct text is aligned and ranked once: rows are independent,
    # so both reductions take the whole table. Each distinct stem is asked
    # once: the QA request is a pure function of the stem, so identical
    # stems share one verdict, and the requests go out in the stems'
    # first-occurrence order. A question then takes the results of its rows.
    # Scoring and retrieval are CPU work and stay on this thread; only the
    # QA round-trips overlap.
    best = sts_alignment(table, codes)
    positions, top_scores = retrieve_standards(rpt_index, table, ev.k)
    positions, tops = positions.tolist(), top_scores[:, 0].tolist()
    stem_of = dict(zip(stem_rows, (o.mcq.stem for o in parsed)))
    asked = dict(zip(stem_of, map_in_flight(
        lambda r: ragqa_validity(
            stem_of[r], [rpt_index.chunks[i] for i in positions[r]], tops[r], chat,
            tau=ev.tau, refusal_markers=ev.refusal_markers,
        ),
        list(stem_of), policy,
    )))
    alignments = [best[r] for r in sts_rows]
    verdicts = [asked[r] for r in stem_rows]
    records = [
        {
            "outcome_id": outcome.outcome_id,
            "method": outcome.request.method.value,
            "score": alignment.score,
            "best_standard": alignment.best_standard,
            "verdict": verdict.verdict.value,
            "reason": verdict.reason.value,
            "top_score": verdict.top_score,
        }
        for outcome, alignment, verdict in zip(parsed, alignments, verdicts)
    ]

    write_jsonl(work.eval_records, records)
    reports = aggregate(outcomes, alignments, verdicts, embedder_tag=embedder.tag)
    write_text(work.report_md, render_report(reports, "markdown") + "\n")
    write_json(work.report_json, [r.to_dict() for r in reports])
    print(f"evaluate: records={len(records)} methods={len(reports)}")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    """Print the stored report in the configured format."""
    work = Workdir(cfg.paths.workdir)
    reports = _read_artifact(work.report_json, "evaluate", MethodReport.from_dict)
    print(render_report(reports, cfg.report_format))
    return EXIT_OK


def cmd_run_all(cfg: RunConfig) -> int:
    """Sequential composition of ingest, index, generate and evaluate."""
    for step in (cmd_ingest, cmd_index, cmd_generate, cmd_evaluate):
        step(cfg)
    return EXIT_OK


_COMMANDS = {
    "ingest": cmd_ingest,
    "index": cmd_index,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "run-all": cmd_run_all,
    "report": cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgen",
        usage="qgen <command> [options]",
        description="Curriculum-grounded MCQ generation and evaluation pipeline",
        epilog="commands:\n" + "\n".join(f"  {name:<10}{fn.__doc__}" for name, fn in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one of the commands below")
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--mock", action="store_true", help="force offline mock providers")
    parser.add_argument("--n", type=int, default=None, help="questions per method")
    parser.add_argument("--methods", type=str, default=None,
                        help="comma-separated methods (structured,basic,rag_generic,rag_structure)")
    parser.add_argument("--tau", type=float, default=None, help="validity retrieval threshold")
    parser.add_argument("--k", type=int, default=None, help="evaluation retrieval depth")
    parser.add_argument("--workdir", type=str, default=None, help="run artifact directory")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config file with the flags that were given laid over it, checked as one."""
    flags = {
        "provider": {"mock": args.mock or None},
        "generation": {"n_per_method": args.n, "methods": args.methods.split(",") if args.methods else None},
        "evaluation": {"tau": args.tau, "k": args.k},
        "paths": {"workdir": args.workdir},
    }
    return load_config(args.config, {section: {key: value for key, value in keys.items() if value is not None}
                                     for section, keys in flags.items()})


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command != "report":  # report only reads the workdir
            _echo_config(cfg)
        return _COMMANDS[args.command](cfg)
    except (FileNotFoundError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ProviderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except QgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE


if __name__ == "__main__":
    raise SystemExit(main())
