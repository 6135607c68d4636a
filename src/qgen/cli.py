"""Command-line pipeline: ingest -> index -> generate -> evaluate -> report.

Every stage is a pure function of its inputs plus the resolved config, so
deleting a stage's outputs and rerunning reproduces them exactly under the
mock providers. Exit codes: 0 ok, 2 input error, 3 provider error, 4
pipeline-state error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

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
from .jsonio import fields_of, read_json, read_jsonl, write_json, write_jsonl, write_text
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
        self.standards_file = self.chunks / "learning_standards.jsonl"
        self.eval_records = self.root / "eval" / "records.jsonl"
        self.report_md = self.root / "report.md"
        self.report_json = self.root / "report.json"
        self.resolved_config = self.root / "resolved_config.json"

    def chunk_file(self, name: str) -> Path:
        return self.chunks / f"{name}.jsonl"

    def index_file(self, name: str) -> Path:
        return self.indexes / f"{name}.index.json"

    def outcome_file(self, method: Method) -> Path:
        return self.outcomes / f"{method.value}.jsonl"

    def rag_index(self, method: Method) -> Path:
        """The index a RAG method retrieves from."""
        return self.index_file("knowledge_recursive" if method is Method.RAG_GENERIC else "knowledge_structure_aware")


# The chunk files ingest writes, each embedded into one index of the same name.
CHUNK_FILES = ("knowledge_recursive", "knowledge_structure_aware", "standards")


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


class Providers(NamedTuple):
    """What a stage that calls a provider gets: the two providers and the policy of their round-trips."""

    chat: ChatProvider
    embedder: EmbeddingProvider
    policy: ProviderPolicy


def _writer(cfg: RunConfig, work: Workdir, path: Path) -> str:
    """The name of the stage that writes ``path``."""
    return next(stage.name for stage in PIPELINE if path in stage.writes(cfg, work))


def _read_artifact(cfg: RunConfig, work: Workdir, path: Path, read: Callable[[dict], object]) -> list:
    """The rows of a workdir artifact, each through ``read``.

    ``main`` has checked that the file exists. A row that ``read`` refuses
    with a ``KeyError``, ``TypeError`` or ``ValueError`` is a pipeline-state
    error naming the file, the row and the stage to rerun.
    """
    rows = []
    try:
        for row in read_jsonl(path) if path.suffix == ".jsonl" else read_json(path):
            rows.append(read(row))
    except (KeyError, TypeError, ValueError) as exc:
        raise PipelineStateError(f"{path}: row {len(rows) + 1} is damaged ({type(exc).__name__}: {exc}); "
                                 f"rerun the {_writer(cfg, work, path)} stage") from exc
    return rows


def _read_standards(cfg: RunConfig, work: Workdir) -> list[tuple[LearningStandard, str]]:
    return _read_artifact(cfg, work, work.standards_file,
                          lambda row: (LearningStandard(row["code"], row["description"]), row["chunk_id"]))


def _ingest(cfg: RunConfig, work: Workdir, _: None) -> None:
    """Chunk both source documents into the workdir chunk files."""
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

    n1 = write_jsonl(work.chunk_file("knowledge_recursive"), recursive)
    n2 = write_jsonl(work.chunk_file("knowledge_structure_aware"), structure)
    n3 = write_jsonl(work.chunk_file("standards"), (c for _, c in standard_pairs))
    write_jsonl(work.standards_file, ({**fields_of(s), "chunk_id": c.chunk_id} for s, c in standard_pairs))
    print(f"ingest: knowledge_recursive={n1} knowledge_structure_aware={n2} standards={n3}")


def _index(cfg: RunConfig, work: Workdir, providers: Providers) -> None:
    """Embed every chunk file in one call and persist one flat index per file."""
    embedder = providers.embedder
    chunk_lists = [_read_artifact(cfg, work, work.chunk_file(name), lambda row: Chunk(**row)) for name in CHUNK_FILES]
    # One call sends each distinct chunk text once, so a provider failure writes no index.
    vectors = embed_texts(embedder, [c.text for chunks in chunk_lists for c in chunks], providers.policy)
    splits = np.split(vectors, np.cumsum([len(chunks) for chunks in chunk_lists[:-1]]))
    counts = []
    for name, chunks, rows in zip(CHUNK_FILES, chunk_lists, splits):
        index = build_index(chunks, rows, provider_tag=embedder.tag)
        save_index(index, work.index_file(name))
        counts.append(f"{name}={len(index)}")
    print(f"index: {' '.join(counts)} provider={embedder.tag}")


def _load_matching_index(path: Path, embedder: EmbeddingProvider) -> VectorIndex:
    """Load an index, refusing one that another embedder made: queries would land in a foreign space."""
    index = load_index(path)
    if index.provider_tag != embedder.tag:
        raise PipelineStateError(
            f"{path} was embedded by {index.provider_tag!r}, but the configured embedder is "
            f"{embedder.tag!r}; rerun `qgen index`"
        )
    return index


def _generate(cfg: RunConfig, work: Workdir, providers: Providers) -> None:
    """Generate n outcomes per enabled method, cycling the standards."""
    chat, embedder, policy = providers
    standards = [s for s, _ in _read_standards(cfg, work)]
    gen = cfg.generation
    # Every index is checked before any method runs, and the outcome files are written only once
    # every method has finished, so a refusal or a provider failure writes no outcome file.
    indexes = {method: _load_matching_index(work.rag_index(method), embedder)
               for method in gen.methods if method.is_rag}
    # The RAG methods retrieve with the same queries, so they are embedded once for all of them.
    rag_queries = embed_rag_queries(embedder, gen.n_per_method, topic=gen.topic, standards=standards,
                                    policy=policy) if indexes else None
    batches = {method: generate_batch(chat, method, gen.n_per_method, topic=gen.topic, standards=standards,
                                      retrieval_k=gen.retrieval_k, index=indexes.pop(method, None),
                                      rag_queries=rag_queries if method.is_rag else None,
                                      temperature=gen.temperature, policy=policy)
               for method in gen.methods}
    for method, outcomes in batches.items():
        write_jsonl(work.outcome_file(method), (o.to_dict() for o in outcomes))
        failed = sum(1 for o in outcomes if o.failed)
        print(f"generate: method={method.value} parsed={len(outcomes) - failed} failed={failed}")


def _evaluate(cfg: RunConfig, work: Workdir, providers: Providers) -> None:
    """Score every parsed outcome and write records plus the method report."""
    chat, embedder, policy = providers
    standards_index_path = work.index_file("standards")
    rpt_index = _load_matching_index(standards_index_path, embedder)
    standards = _read_standards(cfg, work)
    if [chunk_id for _, chunk_id in standards] != [c.chunk_id for c in rpt_index.chunks]:
        raise PipelineStateError(
            f"{work.standards_file} and {standards_index_path} disagree on standard chunk ids; "
            "rerun the ingest and index stages together"
        )
    codes = [standard.code for standard, _ in standards]
    seen_ids: set[str] = set()

    def read_outcome(row: dict, method: Method) -> GenOutcome:
        """The outcome of a row of ``method``'s file: one of that method, with an id no earlier row has."""
        outcome = GenOutcome.from_dict(row)
        if outcome.request.method is not method:
            raise ValueError(f"method {outcome.request.method.value!r} is not the file's {method.value!r}")
        if outcome.outcome_id in seen_ids:
            raise ValueError(f"outcome_id {outcome.outcome_id!r} repeats an earlier row's")
        seen_ids.add(outcome.outcome_id)
        return outcome

    # Outcomes of the configured methods, their files read in file-name order.
    outcomes = [outcome for method in sorted(cfg.generation.methods, key=lambda m: m.value)
                for outcome in _read_artifact(cfg, work, work.outcome_file(method),
                                              lambda row: read_outcome(row, method))]
    if not outcomes:
        raise PipelineStateError(f"no outcomes found under {work.outcomes}")
    parsed = [o for o in outcomes if o.mcq is not None]

    ev = cfg.evaluation
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
    write_json(work.report_json, reports)
    print(f"evaluate: records={len(records)} methods={len(reports)}")


def _report(cfg: RunConfig, work: Workdir, _: None) -> None:
    """Print the stored report in the configured format."""
    reports = _read_artifact(cfg, work, work.report_json, lambda row: MethodReport(**row))
    print(render_report(reports, cfg.report_format))


@dataclass(frozen=True)
class Stage:
    """One stage: the workdir files it reads and writes for a resolved config, and its body.

    ``run(cfg, work, providers)`` gets the providers if ``calls_providers``
    is set, and otherwise None.
    """

    name: str
    reads: Callable[[RunConfig, Workdir], list[Path]]
    writes: Callable[[RunConfig, Workdir], list[Path]]
    run: Callable[[RunConfig, Workdir, Providers | None], None]
    calls_providers: bool = False


PIPELINE = (
    Stage("ingest", lambda cfg, work: [],
          lambda cfg, work: [*map(work.chunk_file, CHUNK_FILES), work.standards_file], _ingest),
    Stage("index", lambda cfg, work: [*map(work.chunk_file, CHUNK_FILES)],
          lambda cfg, work: [*map(work.index_file, CHUNK_FILES)], _index, calls_providers=True),
    Stage("generate",
          lambda cfg, work: [work.standards_file, *(work.rag_index(m) for m in cfg.generation.methods if m.is_rag)],
          lambda cfg, work: [*map(work.outcome_file, cfg.generation.methods)], _generate, calls_providers=True),
    Stage("evaluate",
          lambda cfg, work: [work.index_file("standards"), work.standards_file,
                             *map(work.outcome_file, cfg.generation.methods)],
          lambda cfg, work: [work.eval_records, work.report_md, work.report_json], _evaluate, calls_providers=True),
)
REPORT = Stage("report", lambda cfg, work: [work.report_json], lambda cfg, work: [], _report)
# Each command and the stages it runs, in order.
COMMANDS = {**{stage.name: (stage,) for stage in PIPELINE}, "run-all": PIPELINE, "report": (REPORT,)}


def _summary(stages: tuple[Stage, ...]) -> str:
    *first, last = (stage.name for stage in stages)
    return f"Sequential composition of {', '.join(first)} and {last}." if first else stages[0].run.__doc__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgen",
        usage="qgen <command> [options]",
        description="Curriculum-grounded MCQ generation and evaluation pipeline",
        epilog="commands:\n" + "\n".join(f"  {name:<10}{_summary(stages)}" for name, stages in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command", help="one of the commands below")
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
        "generation": {"n_per_method": args.n, "methods": None if args.methods is None else args.methods.split(",")},
        "evaluation": {"tau": args.tau, "k": args.k},
        "paths": {"workdir": args.workdir},
    }
    return load_config(args.config, {section: {key: value for key, value in keys.items() if value is not None}
                                     for section, keys in flags.items()})


def main(argv: list[str] | None = None) -> int:
    """Run the command's stages in order; every stage runs through this loop."""
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        work = Workdir(cfg.paths.workdir)
        stages = COMMANDS[args.command]
        # Every read that no earlier stage of the command writes must exist
        # before anything is written, so a refused command leaves no trace.
        written: set[Path] = set()
        for stage in stages:
            for path in stage.reads(cfg, work):
                if path not in written and not path.is_file():
                    raise PipelineStateError(f"missing {path}; run the {_writer(cfg, work, path)} stage first")
            written.update(stage.writes(cfg, work))
        if written:
            write_json(work.resolved_config, cfg)
        providers = None
        for stage in stages:
            if stage.calls_providers and providers is None:
                p = cfg.provider
                providers = Providers(*build_providers(cfg), ProviderPolicy(
                    max_retries=p.max_retries, base_delay=p.backoff_base, max_in_flight=p.max_in_flight))
            stage.run(cfg, work, providers if stage.calls_providers else None)
        return EXIT_OK
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
