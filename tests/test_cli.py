from __future__ import annotations

import io
import json
import re
import shutil
import threading
import time
from pathlib import Path

import pytest

import qgen.cli
import qgen.evaluate
import qgen.generate
import qgen.wire
from qgen.chat import MockChatProvider
from qgen.cli import main
from qgen.config import load_config
from qgen.embedding import MockEmbeddingProvider, embed_texts
from qgen.errors import ProviderError
from qgen.vectorindex import load_index
from tests.conftest import FIXTURES, TRANSPORT_FAILURES, CountingChat, RecordingEmbedder, failing_urlopen


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "paths": {
            "knowledge_blocks": str(FIXTURES / "nota_mini.blocks.json"),
            "standards_blocks": str(FIXTURES / "rpt_mini.blocks.json"),
            "workdir": str(tmp_path / "workdir"),
        },
        "chunking": {"recursive_max_chars": 280, "recursive_overlap": 60},
        "provider": {"mock": True},
        "generation": {"n_per_method": 5, "topic": "Nombor Nisbah", "retrieval_k": 3},
        "evaluation": {"tau": 0.35, "k": 3},
    }
    for key, value in overrides.items():
        cfg.setdefault(key, {}).update(value) if isinstance(value, dict) else cfg.update({key: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def workdir_snapshot(workdir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(workdir)): p.read_bytes()
        for p in sorted(workdir.rglob("*"))
        if p.is_file()
    }


def test_ingest_writes_three_chunk_files(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["ingest", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "knowledge_recursive=" in out
    workdir = tmp_path / "workdir"
    for name in ("knowledge_recursive", "knowledge_structure_aware", "standards"):
        path = workdir / "chunks" / f"{name}.jsonl"
        assert path.is_file()
        assert len(path.read_text().splitlines()) > 0
    assert (workdir / "chunks" / "learning_standards.jsonl").is_file()
    assert (workdir / "resolved_config.json").is_file()


def test_ingest_missing_standards_file_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, paths={
        "knowledge_blocks": str(FIXTURES / "nota_mini.blocks.json"),
        "standards_blocks": str(tmp_path / "absent.blocks.json"),
        "workdir": str(tmp_path / "workdir"),
    })
    assert main(["ingest", "--config", str(config)]) == 2
    assert "absent.blocks.json" in capsys.readouterr().err


def test_ingest_rerun_byte_identical(tmp_path):
    config = write_config(tmp_path)
    workdir = tmp_path / "workdir"
    assert main(["ingest", "--config", str(config)]) == 0
    first = workdir_snapshot(workdir)
    assert main(["ingest", "--config", str(config)]) == 0
    assert workdir_snapshot(workdir) == first


def test_index_produces_loadable_indexes(tmp_path):
    config = write_config(tmp_path)
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["index", "--config", str(config)]) == 0
    workdir = tmp_path / "workdir"
    for name in ("knowledge_recursive", "knowledge_structure_aware", "standards"):
        index = load_index(workdir / "indexes" / f"{name}.index.json")
        assert len(index) > 0
        assert index.provider_tag.startswith("mock-bow")


def test_indexed_vectors_are_the_rows_embed_texts_returns(tmp_path):
    config = write_config(tmp_path)
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["index", "--config", str(config)]) == 0
    workdir = tmp_path / "workdir"
    for name in ("knowledge_recursive", "knowledge_structure_aware", "standards"):
        chunks = (workdir / "chunks" / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
        rows = embed_texts(MockEmbeddingProvider(dim=64), [json.loads(line)["text"] for line in chunks])
        assert load_index(workdir / "indexes" / f"{name}.index.json").matrix.tobytes() == rows.tobytes(), name


def test_index_corrupt_chunk_line_exit_4(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["ingest", "--config", str(config)]) == 0
    chunk_file = tmp_path / "workdir" / "chunks" / "knowledge_recursive.jsonl"
    lines = chunk_file.read_text().splitlines()
    lines[1] = "{broken json"
    chunk_file.write_text("\n".join(lines) + "\n")
    # A damaged stage output is a pipeline-state error, not an input error.
    assert main(["index", "--config", str(config)]) == 4
    assert "line 2" in capsys.readouterr().err


def test_index_without_ingest_exit_4(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["index", "--config", str(config)]) == 4
    assert "ingest" in capsys.readouterr().err


def test_generate_all_methods(tmp_path, capsys):
    config = write_config(tmp_path)
    for cmd in ("ingest", "index", "generate"):
        assert main([cmd, "--config", str(config)]) == 0
    workdir = tmp_path / "workdir"
    outcome_files = sorted((workdir / "outcomes").glob("*.jsonl"))
    assert len(outcome_files) == 4
    rows = [json.loads(line) for f in outcome_files for line in f.read_text().splitlines()]
    assert len(rows) == 20

    index_ids = {
        json.loads(line)["chunk_id"]
        for line in (workdir / "chunks" / "knowledge_recursive.jsonl").read_text().splitlines()
    }
    for row in rows:
        if row["method"] == "rag_generic":
            assert set(row["retrieved_chunk_ids"]) <= index_ids
            assert row["retrieved_chunk_ids"]


def test_generate_requires_indexes_for_rag(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["generate", "--config", str(config)]) == 4


def test_generate_refuses_format_version_1_index(tmp_path, capsys):
    config = write_config(tmp_path)
    for cmd in ("ingest", "index"):
        assert main([cmd, "--config", str(config)]) == 0
    path = tmp_path / "workdir" / "indexes" / "knowledge_recursive.index.json"
    payload = json.loads(path.read_text())
    payload["format_version"] = 1
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["generate", "--config", str(config)]) == 4
    assert "unsupported format_version 1" in capsys.readouterr().err
    assert not (tmp_path / "workdir" / "outcomes" / "rag_generic.jsonl").exists()


def test_evaluate_writes_records_and_reports(tmp_path):
    config = write_config(tmp_path)
    for cmd in ("ingest", "index", "generate", "evaluate"):
        assert main([cmd, "--config", str(config)]) == 0
    workdir = tmp_path / "workdir"
    records = [json.loads(line) for line in (workdir / "eval" / "records.jsonl").read_text().splitlines()]
    outcomes = [
        json.loads(line)
        for f in sorted((workdir / "outcomes").glob("*.jsonl"))
        for line in f.read_text().splitlines()
    ]
    parsed = [o for o in outcomes if o["result"]["kind"] == "mcq"]
    assert len(records) == len(parsed)
    report_md = (workdir / "report.md").read_text()
    assert report_md.splitlines()[0].count("|") == 6
    reports = json.loads((workdir / "report.json").read_text())
    assert {r["method"] for r in reports} == {
        "structured_prompt", "basic_prompt", "rag_generic", "rag_structure_aware",
    }


def test_evaluate_without_outcomes_exit_4(tmp_path):
    config = write_config(tmp_path)
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["index", "--config", str(config)]) == 0
    assert main(["evaluate", "--config", str(config)]) == 4


def test_evaluate_reads_only_configured_outcome_files(tmp_path):
    config = write_config(tmp_path)
    workdir = tmp_path / "workdir"
    assert main(["run-all", "--config", str(config)]) == 0
    # Records follow the outcome files in file-name order, not in config order.
    parsed_ids = [
        row["outcome_id"]
        for path in sorted((workdir / "outcomes").glob("*.jsonl"))
        for row in map(json.loads, path.read_text().splitlines())
        if row["result"]["kind"] == "mcq"
    ]
    records = (workdir / "eval" / "records.jsonl").read_text().splitlines()
    assert [json.loads(line)["outcome_id"] for line in records] == parsed_ids
    evaluated = {name: (workdir / name).read_bytes() for name in ("eval/records.jsonl", "report.json")}
    (workdir / "outcomes" / "other.jsonl").write_text("not an outcome\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(config)]) == 0
    assert {name: (workdir / name).read_bytes() for name in evaluated} == evaluated

    # Outcomes of a method that is no longer configured are not scored either.
    assert main(["evaluate", "--config", str(config), "--methods", "rag_structure"]) == 0
    reports = json.loads((workdir / "report.json").read_text())
    assert [r["method"] for r in reports] == ["rag_structure_aware"]
    records = (workdir / "eval" / "records.jsonl").read_text().splitlines()
    assert records and {json.loads(line)["method"] for line in records} == {"rag_structure_aware"}


def test_evaluate_missing_configured_outcome_file_exit_4(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run-all", "--config", str(config)]) == 0
    (tmp_path / "workdir" / "outcomes" / "basic_prompt.jsonl").unlink()
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config)]) == 4
    assert "basic_prompt.jsonl" in capsys.readouterr().err


def test_run_all_and_methods_filter(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run-all", "--config", str(config), "--methods", "rag_structure", "--n", "3"]) == 0
    workdir = tmp_path / "workdir"
    reports = json.loads((workdir / "report.json").read_text())
    assert len(reports) == 1
    assert reports[0]["method"] == "rag_structure_aware"
    assert reports[0]["n"] == 3


def test_run_all_rerun_byte_identical(tmp_path):
    config = write_config(tmp_path)
    workdir = tmp_path / "workdir"
    assert main(["run-all", "--config", str(config)]) == 0
    first = workdir_snapshot(workdir)
    assert main(["run-all", "--config", str(config)]) == 0
    assert workdir_snapshot(workdir) == first


def test_report_command_prints_table(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run-all", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "| Method |" in out
    assert "RAG" in out


def test_mock_mode_makes_zero_network_calls(tmp_path, monkeypatch):
    calls = []

    def counting_transport(*args, **kwargs):
        calls.append(args)
        raise AssertionError("network transport must not be touched in mock mode")

    monkeypatch.setattr(qgen.wire, "http_post_json", counting_transport)
    config = write_config(tmp_path)
    assert main(["run-all", "--config", str(config), "--mock"]) == 0
    assert calls == []


def test_unknown_method_flag_exit_2(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["generate", "--config", str(config), "--methods", "quantum"]) == 2
    assert "unknown method" in capsys.readouterr().err


def test_empty_methods_exit_2_before_ingest(tmp_path, capsys):
    config = write_config(tmp_path, generation={"methods": []})
    assert main(["run-all", "--config", str(config)]) == 2
    assert "generation.methods" in capsys.readouterr().err
    assert not (tmp_path / "workdir" / "chunks").exists()


def test_empty_methods_flag_exit_2_before_ingest(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["ingest", "--config", str(config), "--methods", ""]) == 2
    assert "unknown method ''" in capsys.readouterr().err
    assert not (tmp_path / "workdir").exists()


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["ingest", "--config", str(tmp_path / "nope.json")]) == 2


def test_resolved_config_echoes_overrides(tmp_path):
    config = write_config(tmp_path)
    assert main(["ingest", "--config", str(config), "--n", "9"]) == 0
    resolved = json.loads((tmp_path / "workdir" / "resolved_config.json").read_text())
    assert resolved["generation"]["n_per_method"] == 9


@pytest.mark.parametrize("command, echoes", [
    ("run-all", 1), ("ingest", 1), ("index", 1), ("generate", 1), ("evaluate", 1), ("report", 0),
])
def test_each_command_records_the_config_once(tmp_path, monkeypatch, command, echoes):
    """``run-all`` writes ``resolved_config.json`` once, like every stage; ``report`` writes nothing."""
    config = write_config(tmp_path)
    workdir = tmp_path / "workdir"
    assert main(["run-all", "--config", str(config)]) == 0
    before = workdir_snapshot(workdir)
    written = []
    for name in ("write_json", "write_jsonl", "write_text"):
        monkeypatch.setattr(qgen.cli, name, lambda path, *args, _write=getattr(qgen.cli, name):
                            written.append(Path(path).relative_to(workdir).as_posix()) or _write(path, *args))
    assert main([command, "--config", str(config)]) == 0
    assert written.count("resolved_config.json") == echoes
    if command == "report":
        assert written == []
    assert workdir_snapshot(workdir) == before


# The qgen.cli bindings through which the stages read and write workdir files, and the argument holding the path.
READERS = {"read_jsonl": 0, "read_json": 0, "load_index": 0}
WRITERS = {"write_jsonl": 0, "write_json": 0, "write_text": 0, "save_index": 1}


@pytest.mark.parametrize("command", ["ingest", "index", "generate", "evaluate", "report"])
def test_each_stage_reads_and_writes_exactly_its_declared_paths(tmp_path, monkeypatch, command):
    config = write_config(tmp_path, generation={"methods": ["basic", "rag_generic"]})
    workdir = tmp_path / "workdir"
    assert main(["run-all", "--config", str(config)]) == 0
    touched = {"reads": [], "writes": []}
    for kind, bindings in (("reads", READERS), ("writes", WRITERS)):
        for name, arg in bindings.items():
            def recording(*args, _kind=kind, _arg=arg, _fn=getattr(qgen.cli, name), **kwargs):
                touched[_kind].append(Path(args[_arg]))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(qgen.cli, name, recording)
    assert main([command, "--config", str(config)]) == 0
    (stage,) = qgen.cli.COMMANDS[command]
    cfg, work = load_config(config), qgen.cli.Workdir(workdir)
    # main records the config for every command whose stages write a file.
    recorded = [work.resolved_config] if stage.writes(cfg, work) else []
    assert sorted(touched["reads"]) == sorted(stage.reads(cfg, work))
    assert sorted(touched["writes"]) == sorted(stage.writes(cfg, work) + recorded)
    assert all(path.is_relative_to(workdir) for path in touched["reads"] + touched["writes"])


def test_every_declared_read_is_written_by_an_earlier_stage():
    cfg = load_config(FIXTURES / "mock_config.json")
    work = qgen.cli.Workdir(cfg.paths.workdir)
    written = []
    for stage in qgen.cli.PIPELINE + (qgen.cli.REPORT,):
        assert set(stage.reads(cfg, work)) <= set(written), stage.name
        written += stage.writes(cfg, work)
    assert len(written) == len(set(written))


def test_stages_without_providers_need_no_api_key(tmp_path, monkeypatch, capsys):
    assert main(["run-all", "--config", str(write_config(tmp_path))]) == 0
    config = write_config(tmp_path, provider={
        "mock": False,
        "chat_endpoint": "https://api.example.test/chat", "chat_model": "m",
        "embed_endpoint": "https://api.example.test/embed", "embed_model": "e",
    })
    monkeypatch.delenv("QGEN_API_KEY", raising=False)
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["report", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["index", "--config", str(config)]) == 2
    assert "QGEN_API_KEY must be set" in capsys.readouterr().err


def test_run_all_builds_the_providers_once(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(qgen.cli, "build_providers",
                        lambda cfg, _build=qgen.cli.build_providers: built.append(cfg) or _build(cfg))
    assert main(["run-all", "--config", str(write_config(tmp_path))]) == 0
    assert len(built) == 1


def test_help_lists_every_command_with_its_docstring(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: qgen <command> [options]\n")
    run_all = "Sequential composition of ingest, index, generate and evaluate."
    for name, stages in qgen.cli.COMMANDS.items():
        doc = run_all if name == "run-all" else stages[0].run.__doc__
        assert re.search(rf"^  {re.escape(name)} +{re.escape(doc)}$", out, re.MULTILINE), name


def test_run_all_propagates_first_failing_stage(tmp_path):
    config = write_config(tmp_path, paths={
        "knowledge_blocks": str(tmp_path / "gone.blocks.json"),
        "standards_blocks": str(FIXTURES / "rpt_mini.blocks.json"),
        "workdir": str(tmp_path / "workdir"),
    })
    assert main(["run-all", "--config", str(config)]) == 2
    assert not (tmp_path / "workdir" / "chunks").exists()


def test_generate_summary_reports_seeded_failures(tmp_path, capsys):
    config = write_config(tmp_path, provider={"mock": True, "mock_malformed_rate": 0.04})
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["index", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["generate", "--config", str(config), "--methods", "basic", "--n", "100"]) == 0
    out = capsys.readouterr().out
    assert "method=basic_prompt parsed=96 failed=4" in out


def test_stage_outputs_are_resumable(tmp_path):
    import shutil

    config = write_config(tmp_path)
    workdir = tmp_path / "workdir"
    assert main(["run-all", "--config", str(config)]) == 0
    before = workdir_snapshot(workdir)
    shutil.rmtree(workdir / "outcomes")
    (workdir / "report.md").unlink()
    assert main(["generate", "--config", str(config)]) == 0
    assert main(["evaluate", "--config", str(config)]) == 0
    assert workdir_snapshot(workdir) == before


def test_provider_failure_after_retries_exit_3(tmp_path, monkeypatch, capsys):
    from qgen.errors import ProviderError

    attempts = []

    def failing_transport(url, payload, headers, timeout):
        attempts.append(url)
        raise ProviderError(503, "backend down", retryable=True)

    monkeypatch.setattr(qgen.wire, "http_post_json", failing_transport)
    monkeypatch.setenv("QGEN_API_KEY", "k")
    config = write_config(tmp_path, provider={
        "mock": False,
        "chat_endpoint": "https://api.example.test/chat", "chat_model": "m",
        "embed_endpoint": "https://api.example.test/embed", "embed_model": "e",
        "max_retries": 2, "backoff_base": 0.0,
    })
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["index", "--config", str(config)]) == 3
    assert "backend down" in capsys.readouterr().err
    assert len(attempts) == 3  # initial call + 2 retries


@pytest.mark.parametrize("shape, refusal", [
    ("ragged", "embedding batch 0 is not one matrix of numbers"),
    ("one_entry", r"embedding batch 0 has shape \(\d+, 1\), expected \(\d+, d\) with d >= 2"),
    ("zeros", "embedding batch 0 row 0 is not a finite non-zero vector"),
    ("length_overflows", "embedding batch 0 row 0 is not a finite non-zero vector"),
    ("length_underflows", "embedding batch 0 row 0 is not a finite non-zero vector"),
])
def test_index_refuses_misshapen_vectors_exit_3(tmp_path, monkeypatch, capsys, shape, refusal):
    def transport(url, payload, headers, timeout):
        if shape == "ragged":
            return {"embeddings": [[1.0, float(i)] + [0.5] * (i % 2) for i in range(len(payload["input"]))]}
        if shape == "zeros":
            return {"embeddings": [[0.0, 0.0] for _ in payload["input"]]}
        if shape == "length_overflows":
            return {"embeddings": [[1e200, 1e200] for _ in payload["input"]]}
        if shape == "length_underflows":
            return {"embeddings": [[1e-200, 1e-200] for _ in payload["input"]]}
        return {"embeddings": [[1.0] for _ in payload["input"]]}

    monkeypatch.setattr(qgen.wire, "http_post_json", transport)
    monkeypatch.setenv("QGEN_API_KEY", "k")
    config = write_config(tmp_path, provider={
        "mock": False,
        "chat_endpoint": "https://api.example.test/chat", "chat_model": "m",
        "embed_endpoint": "https://api.example.test/embed", "embed_model": "e",
    })
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["index", "--config", str(config)]) == 3
    assert re.search(refusal, capsys.readouterr().err)
    assert not (tmp_path / "workdir" / "indexes").exists()


class FailsOnText(MockEmbeddingProvider):
    """The mock embedder, refusing for good any request that holds ``text``."""

    def __init__(self, dim, text):
        super().__init__(dim=dim)
        self.text = text

    def embed(self, texts):
        if self.text in texts:
            raise ProviderError(400, "rejected standards text", retryable=False)
        return super().embed(texts)


def test_index_provider_failure_on_a_standards_text_writes_no_index(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path)
    workdir = tmp_path / "workdir"
    assert main(["ingest", "--config", str(config)]) == 0
    standards_text = json.loads((workdir / "chunks" / "standards.jsonl").read_text().splitlines()[-1])["text"]
    monkeypatch.setattr(qgen.cli, "build_providers",
                        lambda cfg: (MockChatProvider(), FailsOnText(cfg.provider.mock_dim, standards_text)))
    assert main(["index", "--config", str(config)]) == 3
    assert "rejected standards text" in capsys.readouterr().err
    assert not (workdir / "indexes").exists()


class AlwaysBusy(MockEmbeddingProvider):
    """Mock embedder whose every request fails with a retryable 503."""

    def __init__(self, dim):
        super().__init__(dim=dim)
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        raise ProviderError(503, "busy", retryable=True)


@pytest.mark.parametrize("backoff_base", [0.5, 1e308])
def test_every_retry_wait_is_capped_at_60_s(tmp_path, monkeypatch, capsys, backoff_base):
    """1,100 retryable failures wait at most 60 s each, never overflow, and then exit 3."""
    config = write_config(tmp_path, provider={"mock": True, "max_in_flight": 1, "max_retries": 1099,
                                              "backoff_base": backoff_base})
    workdir = tmp_path / "workdir"
    assert main(["ingest", "--config", str(config)]) == 0
    embedder = AlwaysBusy(64)
    monkeypatch.setattr(qgen.cli, "build_providers", lambda cfg: (MockChatProvider(), embedder))
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    capsys.readouterr()
    assert main(["index", "--config", str(config)]) == 3
    assert capsys.readouterr().err == "error: provider error (status 503): busy\n"
    assert embedder.calls == 1100
    assert len(sleeps) == 1099
    assert max(sleeps) == sleeps[-1] == 60.0
    assert sleeps == sorted(sleeps)
    assert not (workdir / "indexes").exists()


def test_run_all_embeds_once_per_stage_and_each_chunk_text_once(tmp_path, monkeypatch):
    config = write_config(tmp_path, provider={"mock": True, "max_in_flight": 2})
    embedder = RecordingEmbedder(64)
    calls, batches = {}, {}
    for module in (qgen.cli, qgen.generate, qgen.evaluate):
        def counting(*args, _name=module.__name__, _embed=module.embed_texts, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            first = len(embedder.batches)
            vectors = _embed(*args, **kwargs)
            batches[_name] = embedder.batches[first:]
            return vectors

        monkeypatch.setattr(module, "embed_texts", counting)
    monkeypatch.setattr(qgen.cli, "build_providers", lambda cfg: (MockChatProvider(), embedder))
    assert main(["run-all", "--config", str(config)]) == 0
    assert calls == {"qgen.cli": 1, "qgen.generate": 1, "qgen.evaluate": 1}
    chunk_texts = {
        json.loads(line)["text"]
        for name in ("knowledge_recursive", "knowledge_structure_aware", "standards")
        for line in (tmp_path / "workdir" / "chunks" / f"{name}.jsonl").read_text().splitlines()
    }
    assert sorted(t for batch in batches["qgen.cli"] for t in batch) == sorted(chunk_texts)


def test_generate_ranks_one_query_per_request_and_embeds_each_distinct_query_once(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    for cmd in ("ingest", "index"):
        assert main([cmd, "--config", str(config)]) == 0
    embedder = RecordingEmbedder(64)
    monkeypatch.setattr(qgen.cli, "build_providers", lambda cfg: (MockChatProvider(), embedder))
    assert main(["generate", "--config", str(config), "--n", "20"]) == 0

    workdir = tmp_path / "workdir"
    descriptions = [json.loads(line)["description"]
                    for line in (workdir / "chunks" / "learning_standards.jsonl").read_text().splitlines()]
    assert len(descriptions) == 6
    # One request for the stage, holding each of the 6 queries the 20 requests share once.
    assert embedder.batches == [[f"Nombor Nisbah {d}" for d in descriptions]]
    for method in ("rag_generic", "rag_structure_aware"):
        rows = [json.loads(line) for line in (workdir / "outcomes" / f"{method}.jsonl").read_text().splitlines()]
        assert len(rows) == 20
        retrieved: dict[str, set[tuple[str, ...]]] = {}
        for row in rows:
            retrieved.setdefault(row["target_standard"]["code"], set()).add(tuple(row["retrieved_chunk_ids"]))
        assert len(retrieved) == 6
        assert all(len(ids) == 1 for ids in retrieved.values())


def test_report_json_format(tmp_path, capsys):
    config = write_config(tmp_path, report_format="json")
    assert main(["run-all", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    assert {"method", "mean_sts", "std_sts", "validity_pct", "parse_failure_pct"} <= set(rows[0])


class FirstAttemptFails:
    """Mock provider whose first attempt at each distinct request raises a retryable 503."""

    def __init__(self, inner):
        self.inner = inner
        self.tag = inner.tag
        self.failed = set()
        self.lock = threading.Lock()

    def _fail_first(self, *request):
        with self.lock:
            first = request not in self.failed
            self.failed.add(request)
        if first:
            raise ProviderError(503, "busy", retryable=True)

    def embed(self, texts):
        self._fail_first(*texts)
        return self.inner.embed(texts)

    def complete(self, system, user, **kwargs):
        self._fail_first(system, user, *sorted(kwargs.items()))
        return self.inner.complete(system, user, **kwargs)

    def complete_structured(self, system, user, schema, **kwargs):
        self._fail_first(system, user, json.dumps(schema), *sorted(kwargs.items()))
        return self.inner.complete_structured(system, user, schema, **kwargs)


STAGE_OUTPUTS = {
    "index": ("indexes",),
    "generate": ("outcomes",),
    "evaluate": ("eval", "report.md", "report.json"),
}


@pytest.mark.parametrize("max_retries", [0, 1], ids=["max_retries_0", "max_retries_1"])
@pytest.mark.parametrize("stage, method", [
    ("index", None),
    ("generate", "structured"),
    ("generate", "basic"),
    ("generate", "rag_generic"),
    ("generate", "rag_structure"),
    ("evaluate", None),
], ids=["index", "generate_structured", "generate_basic", "generate_rag_generic", "generate_rag_structure",
        "evaluate"])
def test_stage_honours_configured_retry_policy(tmp_path, monkeypatch, stage, method, max_retries):
    config = write_config(tmp_path, provider={"mock": True, "max_retries": max_retries, "backoff_base": 0.0},
                          generation={"methods": [method]} if method else {})
    workdir = tmp_path / "workdir"
    assert main(["run-all", "--config", str(config)]) == 0
    clean = workdir_snapshot(workdir)
    for output in STAGE_OUTPUTS[stage]:
        path = workdir / output
        shutil.rmtree(path) if path.is_dir() else path.unlink()
    upstream = workdir_snapshot(workdir)
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    chat, embedder = FirstAttemptFails(MockChatProvider()), FirstAttemptFails(MockEmbeddingProvider(dim=64))
    monkeypatch.setattr(qgen.cli, "build_providers", lambda cfg: (chat, embedder))
    if max_retries:
        assert main([stage, "--config", str(config)]) == 0
        assert workdir_snapshot(workdir) == clean
        assert sleeps == [0.0] * (len(chat.failed) + len(embedder.failed))
        assert sleeps
    else:
        assert main([stage, "--config", str(config)]) == 3
        assert workdir_snapshot(workdir) == upstream
        assert sleeps == []


@pytest.mark.parametrize("failure", sorted(TRANSPORT_FAILURES))
def test_index_transport_error_exits_3(tmp_path, monkeypatch, capsys, failure):
    monkeypatch.setattr("urllib.request.urlopen", failing_urlopen(failure))
    monkeypatch.setenv("QGEN_API_KEY", "k")
    config = write_config(tmp_path, provider={
        "mock": False, "max_retries": 0,
        "chat_endpoint": "https://api.example.test/chat", "chat_model": "m",
        "embed_endpoint": "https://api.example.test/embed", "embed_model": "e",
    })
    assert main(["ingest", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["index", "--config", str(config)]) == 3
    assert "error: provider error (status 0): network error: " in capsys.readouterr().err
    assert not (tmp_path / "workdir" / "indexes").exists()


@pytest.mark.parametrize("edit", ["rename", "reorder"])
def test_evaluate_refuses_stale_standards_index(tmp_path, capsys, edit):
    config = write_config(tmp_path)
    workdir = tmp_path / "workdir"
    assert main(["run-all", "--config", str(config)]) == 0
    before = workdir_snapshot(workdir / "eval")
    standards = workdir / "chunks" / "learning_standards.jsonl"
    rows = [json.loads(line) for line in standards.read_text().splitlines()]
    if edit == "rename":
        rows[0]["chunk_id"] += "-stale"
    else:
        rows[0], rows[1] = rows[1], rows[0]
    standards.write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config)]) == 4
    assert "rerun the ingest and index stages" in capsys.readouterr().err
    assert workdir_snapshot(workdir / "eval") == before


class FailsAtSeed(MockChatProvider):
    """Mock chat that fails non-retryably on one generation seed and counts its calls."""

    def __init__(self, fail_seed):
        super().__init__()
        self.fail_seed = fail_seed
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, system, user, *, temperature=0.7, seed=None):
        with self.lock:
            self.calls += 1
        if seed == self.fail_seed:
            raise ProviderError(400, "rejected request", retryable=False)
        time.sleep(0.001)
        return super().complete(system, user, temperature=temperature, seed=seed)


def test_generate_stops_dispatching_after_a_failure(tmp_path, monkeypatch, capsys):
    k = 10
    config = write_config(tmp_path, provider={"mock": True, "max_in_flight": 4},
                          generation={"methods": ["basic"], "n_per_method": 60})
    assert main(["ingest", "--config", str(config)]) == 0
    chat = FailsAtSeed(k)
    monkeypatch.setattr(qgen.cli, "build_providers",
                        lambda cfg: (chat, MockEmbeddingProvider(dim=cfg.provider.mock_dim)))
    assert main(["generate", "--config", str(config)]) == 3
    assert "rejected request" in capsys.readouterr().err
    assert k + 1 <= chat.calls <= k + 4
    assert not (tmp_path / "workdir" / "outcomes" / "basic_prompt.jsonl").exists()


class FailsAtCall(MockChatProvider):
    """Mock chat that fails non-retryably on its ``fail_at``-th completion, plain or structured."""

    def __init__(self, fail_at):
        super().__init__()
        self.fail_at = fail_at
        self.calls = 0

    def _count(self):
        self.calls += 1
        if self.calls == self.fail_at:
            raise ProviderError(400, "rejected request", retryable=False)

    def complete(self, system, user, **kwargs):
        self._count()
        return super().complete(system, user, **kwargs)

    def complete_structured(self, system, user, schema, **kwargs):
        self._count()
        return super().complete_structured(system, user, schema, **kwargs)


def test_failed_generate_leaves_every_outcome_file_as_it_was(tmp_path, monkeypatch, capsys):
    """A generate that fails in its third method writes no outcome file, so evaluate never mixes two runs."""
    config = write_config(tmp_path, generation={"n_per_method": 6})
    workdir = tmp_path / "workdir"
    assert main(["run-all", "--config", str(config)]) == 0
    before = workdir_snapshot(workdir / "outcomes")
    chat = FailsAtCall(9)
    monkeypatch.setattr(qgen.cli, "build_providers",
                        lambda cfg: (chat, MockEmbeddingProvider(dim=cfg.provider.mock_dim)))
    capsys.readouterr()
    assert main(["generate", "--config", str(config), "--n", "4"]) == 3
    assert capsys.readouterr().out == ""
    assert chat.calls == 9
    assert workdir_snapshot(workdir / "outcomes") == before
    monkeypatch.undo()
    assert main(["evaluate", "--config", str(config)]) == 0
    assert [report["n"] for report in json.loads((workdir / "report.json").read_text())] == [6, 6, 6, 6]


@pytest.mark.parametrize("provider", [{"max_in_flight": 0}, {"max_in_flight": -1}])
def test_invalid_max_in_flight_exit_2(tmp_path, capsys, provider):
    config = write_config(tmp_path, provider={"mock": True, **provider})
    assert main(["ingest", "--config", str(config)]) == 2
    assert "provider.max_in_flight" in capsys.readouterr().err


@pytest.mark.parametrize("section, values, setting", [
    ("provider", {"mock_dim": 1}, "provider.mock_dim"),
    ("provider", {"mock_malformed_rate": 1.5}, "provider.mock_malformed_rate"),
    ("provider", {"mock_malformed_rate": -0.5}, "provider.mock_malformed_rate"),
    ("chunking", {"recursive_max_chars": 0}, "chunking.recursive_max_chars"),
    ("chunking", {"recursive_overlap": 300}, "chunking.recursive_overlap"),
    ("chunking", {"recursive_overlap": -1}, "chunking.recursive_overlap"),
    ("chunking", {"structure_max_chars": 0}, "chunking.structure_max_chars"),
    # Settings that only the config checks: the stage functions take them as checked.
    ("evaluation", {"sts_unit": "sentence"}, "evaluation.sts_unit"),
    ("evaluation", {"k": 0}, "evaluation.k"),
    ("report_format", "html", "report_format"),
    ("generation", {"retrieval_k": 0}, "generation.retrieval_k"),
    ("generation", {"n_per_method": 0}, "generation.n_per_method"),
    ("generation", {"topic": " "}, "generation.topic"),
])
def test_bad_mock_or_chunking_value_exit_2_before_any_stage(tmp_path, capsys, section, values, setting):
    config = write_config(tmp_path, **{section: values})
    assert main(["run-all", "--config", str(config)]) == 2
    assert setting in capsys.readouterr().err
    assert not (tmp_path / "workdir").exists()


def test_recursive_window_must_exceed_a_blank_line(tmp_path, capsys):
    """At 2 characters the blank line between two blocks is a chunk of its own; 3 is the least window."""
    config = write_config(tmp_path, chunking={"recursive_max_chars": 2, "recursive_overlap": 0})
    assert main(["ingest", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: chunking.recursive_max_chars must be >= 3, got 2\n"
    assert not (tmp_path / "workdir").exists()
    config = write_config(tmp_path, chunking={"recursive_max_chars": 3, "recursive_overlap": 0})
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["index", "--config", str(config)]) == 0
    texts = [json.loads(line)["text"] for line in
             (tmp_path / "workdir" / "chunks" / "knowledge_recursive.jsonl").read_text().splitlines()]
    assert all(text.strip() for text in texts)
    assert len(texts) > 100


def test_run_all_identical_across_max_in_flight(tmp_path):
    snapshots = []
    for max_in_flight in (1, 8):
        run_dir = tmp_path / f"in_flight_{max_in_flight}"
        run_dir.mkdir()
        config = write_config(run_dir, provider={"mock": True, "mock_malformed_rate": 0.2,
                                                 "max_in_flight": max_in_flight},
                              generation={"n_per_method": 40})
        assert main(["run-all", "--config", str(config)]) == 0
        snapshot = workdir_snapshot(run_dir / "workdir")
        del snapshot["resolved_config.json"]
        snapshots.append(snapshot)
    assert snapshots[0] == snapshots[1]
    assert b"parse_failure" in snapshots[0]["outcomes/basic_prompt.jsonl"]


def test_duplicate_methods_run_once(tmp_path, monkeypatch, capsys):
    n = 5
    config = write_config(tmp_path, provider={"mock": True, "max_in_flight": 1},
                          generation={"n_per_method": n})
    assert main(["ingest", "--config", str(config)]) == 0
    chat = CountingChat()
    monkeypatch.setattr(qgen.cli, "build_providers",
                        lambda cfg: (chat, MockEmbeddingProvider(dim=cfg.provider.mock_dim)))
    capsys.readouterr()
    assert main(["generate", "--config", str(config), "--methods", "basic,basic_prompt"]) == 0
    assert chat.calls == n
    assert capsys.readouterr().out.count("method=basic_prompt") == 1
    resolved = json.loads((tmp_path / "workdir" / "resolved_config.json").read_text())
    assert resolved["generation"]["methods"] == ["basic_prompt"]


class ForeignEmbedder(MockEmbeddingProvider):
    """The mock embedder's dimension under another model's tag."""

    def __init__(self, dim):
        super().__init__(dim=dim)
        self.tag = f"another-model:d{dim}"


@pytest.mark.parametrize("stage", ["generate", "evaluate"])
def test_stage_refuses_index_from_another_embedder(tmp_path, monkeypatch, capsys, stage):
    config = write_config(tmp_path)
    workdir = tmp_path / "workdir"
    for cmd in ("ingest", "index", "generate")[:2 if stage == "generate" else 3]:
        assert main([cmd, "--config", str(config)]) == 0
    before = workdir_snapshot(workdir)
    monkeypatch.setattr(qgen.cli, "build_providers",
                        lambda cfg: (MockChatProvider(), ForeignEmbedder(cfg.provider.mock_dim)))
    capsys.readouterr()
    assert main([stage, "--config", str(config)]) == 4
    assert "rerun `qgen index`" in capsys.readouterr().err
    assert workdir_snapshot(workdir) == before
    assert not (workdir / "eval" / "records.jsonl").exists()
    if stage == "generate":
        assert not (workdir / "outcomes").exists()


def test_run_all_refuses_bad_config_value_before_any_stage(tmp_path, capsys):
    config = write_config(tmp_path, evaluation={"sts_unit": "Full"})
    assert main(["run-all", "--config", str(config)]) == 2
    assert "evaluation.sts_unit" in capsys.readouterr().err
    assert not (tmp_path / "workdir" / "outcomes").exists()
    assert not (tmp_path / "workdir").exists()


def rewrite_row(path: Path, index: int, edit) -> None:
    """Apply ``edit`` to the ``index``-th JSON row of a JSONL file."""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    edit(rows[index])
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def test_index_damaged_chunk_row_exit_4(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["ingest", "--config", str(config)]) == 0
    chunk_file = tmp_path / "workdir" / "chunks" / "knowledge_structure_aware.jsonl"
    intact = chunk_file.read_bytes()
    for field, value in [("strategy", "bogus"), ("chunk_id", 7), ("text", ["a"]), ("char_span", "ab"),
                         ("source_blocks", "12"), ("surprise", 1)]:
        chunk_file.write_bytes(intact)
        rewrite_row(chunk_file, 1, lambda row: row.update({field: value}))
        capsys.readouterr()
        assert main(["index", "--config", str(config)]) == 4, field
        err = capsys.readouterr().err
        assert "knowledge_structure_aware.jsonl: row 2" in err and "rerun the ingest stage" in err, err
        assert not (tmp_path / "workdir" / "indexes").exists()


def test_generate_damaged_standards_row_exit_4(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["index", "--config", str(config)]) == 0
    standards = tmp_path / "workdir" / "chunks" / "learning_standards.jsonl"
    intact = standards.read_bytes()
    for field, value in [("description", 5), ("surprise", 1), ("chunk_id", 5)]:
        standards.write_bytes(intact)
        rewrite_row(standards, 0, lambda row: row.update({field: value}))
        capsys.readouterr()
        assert main(["generate", "--config", str(config)]) == 4, field
        err = capsys.readouterr().err
        assert "learning_standards.jsonl: row 1" in err and field in err and "rerun the ingest stage" in err, err
        assert not (tmp_path / "workdir" / "outcomes").exists()


def test_evaluate_damaged_index_entry_exit_4(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run-all", "--config", str(config)]) == 0
    index_file = tmp_path / "workdir" / "indexes" / "standards.index.json"
    intact = index_file.read_bytes()
    before = (tmp_path / "workdir" / "eval" / "records.jsonl").read_bytes()
    edits = [(lambda entry: entry["chunk"].update(surprise=1), "surprise"),
             (lambda entry: entry["chunk"].update(text=5), "text"),
             (lambda entry: entry["vector"].__setitem__(3, "x"), "'x'")]
    for edit, named in edits:
        payload = json.loads(intact)
        edit(payload["entries"][0])
        index_file.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config)]) == 4, named
        err = capsys.readouterr().err
        assert "standards.index.json: entry 0 is damaged" in err and named in err, err
        assert err.rstrip().endswith("rerun the index stage"), err
        assert (tmp_path / "workdir" / "eval" / "records.jsonl").read_bytes() == before


def test_evaluate_damaged_outcome_row_exit_4(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run-all", "--config", str(config)]) == 0
    outcome_file = tmp_path / "workdir" / "outcomes" / "rag_generic.jsonl"
    intact = outcome_file.read_bytes()
    before = (tmp_path / "workdir" / "eval" / "records.jsonl").read_bytes()
    edits = [(lambda row: row.pop("topic"), "'topic'"),
             (lambda row: row.update(provider_tag=["x"]), "provider_tag"),
             (lambda row: row["result"].update(explanation=5), "explanation"),
             (lambda row: row["result"].update(language_tag=None), "language_tag"),
             (lambda row: row.update(retrieved_chunk_ids="abc"), "retrieved_chunk_ids"),
             (lambda row: row.update(topic=5), "topic"),
             (lambda row: row.update(seed_hint="3"), "seed_hint"),
             (lambda row: row.update(method="basic_prompt", retrieval_k=None), "method"),
             (lambda row: row.update(outcome_id="rag_generic:0000"), "outcome_id"),
             (lambda row: row.update(target_standard={}), "LearningStandard"),
             (lambda row: row.update(target_standard=[]), "target_standard"),
             (lambda row: row["result"].update(surprise=1), "surprise"),
             (lambda row: row.update(surprise=1), "surprise")]
    # A full-text evaluation also reads the explanation.
    for unit in ("stem", "full"):
        config = write_config(tmp_path, evaluation={"sts_unit": unit})
        for edit, named in edits:
            outcome_file.write_bytes(intact)
            rewrite_row(outcome_file, 2, edit)
            capsys.readouterr()
            assert main(["evaluate", "--config", str(config)]) == 4, (unit, named)
            err = capsys.readouterr().err
            assert "rag_generic.jsonl: row 3" in err and named in err and "rerun the generate stage" in err, err
            assert (tmp_path / "workdir" / "eval" / "records.jsonl").read_bytes() == before
    # Half the replies are malformed, so the file holds parse-failure rows.
    config = write_config(tmp_path, provider={"mock_malformed_rate": 0.5})
    assert main(["run-all", "--config", str(config)]) == 0
    intact = outcome_file.read_bytes()
    before = (tmp_path / "workdir" / "eval" / "records.jsonl").read_bytes()
    failed = next(i for i, line in enumerate(intact.splitlines())
                  if json.loads(line)["result"]["kind"] == "parse_failure")
    for edit, named in [(lambda row: row["result"].update(raw_text=5), "raw_text"),
                        (lambda row: row["result"].update(message=None), "message")]:
        outcome_file.write_bytes(intact)
        rewrite_row(outcome_file, failed, edit)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config)]) == 4, named
        err = capsys.readouterr().err
        assert f"rag_generic.jsonl: row {failed + 1}" in err and named in err and "rerun the generate stage" in err
        assert (tmp_path / "workdir" / "eval" / "records.jsonl").read_bytes() == before


def test_evaluate_without_outcomes_exit_4(tmp_path, capsys):
    """Empty outcome files are refused before alignment and aggregation, which take a non-empty batch."""
    config = write_config(tmp_path)
    assert main(["run-all", "--config", str(config)]) == 0
    for path in (tmp_path / "workdir" / "outcomes").glob("*.jsonl"):
        path.write_text("")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(config)]) == 4
    assert "no outcomes found under" in capsys.readouterr().err


def test_report_damaged_entry_exit_4(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run-all", "--config", str(config)]) == 0
    report = tmp_path / "workdir" / "report.json"
    intact = report.read_text()
    for edit, named in [(lambda entry: entry.pop("n"), "'n'"),
                        (lambda entry: entry.update(mean_sts="x"), "mean_sts"),
                        (lambda entry: entry.update(mean_sts=None), "mean_sts"),
                        (lambda entry: entry.update(surprise=1), "surprise")]:
        entries = json.loads(intact)
        edit(entries[1])
        report.write_text(json.dumps(entries))
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert "report.json: row 2" in err and named in err and "rerun the evaluate stage" in err, err


def test_report_without_evaluate_exit_4(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["report", "--config", str(config)]) == 4
    assert "run the evaluate stage first" in capsys.readouterr().err


@pytest.mark.parametrize("command, producer", [("index", "ingest"), ("generate", "ingest"), ("evaluate", "index")])
def test_command_refused_for_a_missing_input_writes_nothing(tmp_path, capsys, command, producer):
    config = write_config(tmp_path)
    assert main([command, "--config", str(config)]) == 4
    assert f"run the {producer} stage first" in capsys.readouterr().err
    assert not (tmp_path / "workdir").exists()


@pytest.mark.parametrize("edit", [
    lambda doc: doc["pages"][0]["blocks"][0].update(text=doc["pages"][0]["blocks"][0]["text"] + " \ud800"),
    lambda doc: doc.update(doc_id="nota\ud800"),
], ids=["text", "doc_id"])
def test_ingest_refuses_lone_surrogate_exit_2(tmp_path, capsys, edit):
    doc = json.loads((FIXTURES / "nota_mini.blocks.json").read_text(encoding="utf-8"))
    edit(doc)
    knowledge = tmp_path / "nota.blocks.json"
    # json.dumps writes the surrogate as the escape "\ud800", which the strict reader refuses.
    knowledge.write_text(json.dumps(doc), encoding="utf-8")
    config = write_config(tmp_path, paths={"knowledge_blocks": str(knowledge)})
    assert main(["ingest", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"nota\.blocks\.json: invalid JSON: no matched low surrogate in string: line \d+ column \d+", err)
    assert not (tmp_path / "workdir" / "chunks").exists()


def _at(keys: tuple, value):
    """An edit of a Blocks-JSON document that sets the value at ``keys`` (the whole document for ``()``)."""
    def edit(doc):
        if not keys:
            return value
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return doc
    return edit


_BLOCK0 = ("pages", 0, "blocks", 0)

# One case per refusal of a knowledge blocks file: the edit, then what the
# error says after "<file>: ", JSON path first.
MALFORMED_BLOCKS = {
    "not-json": (_at((), b"{not json"), "invalid JSON"),
    "top-level-array": (_at((), []), "top level must be an object"),
    "role-unknown": (_at(("role",), "textbook"), "role must be 'knowledge' or 'standards', got 'textbook'"),
    "role-mismatch": (_at(("role",), "standards"), "expected role 'knowledge', file declares 'standards'"),
    "pages-not-list": (_at(("pages",), {"page": 1}), "pages must be a list"),
    "page-not-object": (_at(("pages", 1), "dua"), "pages[1] must be an object"),
    "blocks-not-list": (_at(("pages", 0, "blocks"), {"text": "x"}), "pages[0].blocks must be a list"),
    "block-not-object": (_at(("pages", 0, "blocks", 2), "teks"), "pages[0].blocks[2] must be an object"),
    "text-not-string": (_at(_BLOCK0 + ("text",), 7), "pages[0].blocks[0]: text must be a string, got int"),
    "text-missing": (_at(_BLOCK0 + ("text",), None), "pages[0].blocks[0]: text must be a string"),
    "text-blank": (_at(_BLOCK0 + ("text",), " \t\n"),
                   "pages[0].blocks[0]: text must contain a non-whitespace character"),
    "bbox-three-numbers": (_at(_BLOCK0 + ("bbox",), [0, 0, 10]),
                           "pages[0].blocks[0]: bbox must be four numbers [x0, y0, x1, y1], got [0, 0, 10]"),
    "bbox-bool": (_at(_BLOCK0 + ("bbox",), [0, 0, True, 10]), "pages[0].blocks[0]: bbox must be four numbers"),
    "bbox-string": (_at(_BLOCK0 + ("bbox",), "0 0 10 10"), "pages[0].blocks[0]: bbox must be four numbers"),
    "bbox-degenerate": (_at(_BLOCK0 + ("bbox",), [5, 5, 5, 9]),
                        "pages[0].blocks[0]: bbox must satisfy x0 < x1 and y0 < y1, got (5.0, 5.0, 5.0, 9.0)"),
    "font-size-bool": (_at(_BLOCK0 + ("font_size",), True),
                       "pages[0].blocks[0]: font_size must be a positive number, got True"),
    "font-size-zero": (_at(_BLOCK0 + ("font_size",), 0), "pages[0].blocks[0]: font_size must be a positive number"),
    "font-size-string": (_at(_BLOCK0 + ("font_size",), "11"),
                         "pages[0].blocks[0]: font_size must be a positive number"),
    "font-name-number": (_at(_BLOCK0 + ("font_name",), 3),
                         "pages[0].blocks[0]: font_name must be a string when present, got int"),
    # A page's number reaches each of its blocks, so the first block refuses it.
    "page-bool": (_at(("pages", 0, "page"), True), "pages[0].blocks[0]: page must be a positive integer, got True"),
    "page-float": (_at(("pages", 0, "page"), 1.0), "pages[0].blocks[0]: page must be a positive integer, got 1.0"),
    "page-zero-without-blocks": (_at(("pages", 0), {"page": 0, "blocks": []}),
                                 "pages[0]: page must be a positive integer, got 0"),
    "page-not-increasing": (_at(("pages", 1, "page"), 1), "pages[1]: page 1 does not increase (previous 1)"),
    "doc-id-blank": (_at(("doc_id",), "  "), "doc_id must be a non-blank string, got '  '"),
    "doc-id-missing": (_at(("doc_id",), None), "doc_id must be a non-blank string, got None"),
    "no-blocks": (_at(("pages",), [{"page": 1, "blocks": []}]), "document contains no blocks"),
}


@pytest.mark.parametrize("case", MALFORMED_BLOCKS)
def test_ingest_refuses_malformed_blocks_exit_2(tmp_path, capsys, case):
    edit, expected = MALFORMED_BLOCKS[case]
    doc = edit(json.loads((FIXTURES / "nota_mini.blocks.json").read_text(encoding="utf-8")))
    knowledge = tmp_path / "nota.blocks.json"
    knowledge.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    config = write_config(tmp_path, paths={"knowledge_blocks": str(knowledge)})
    assert main(["ingest", "--config", str(config)]) == 2
    assert f"error: {knowledge}: {expected}" in capsys.readouterr().err
    assert not (tmp_path / "workdir" / "chunks").exists()


def test_config_lone_surrogate_exit_2_before_any_stage(tmp_path, capsys):
    config = write_config(tmp_path, generation={"topic": "Nombor \ud800"})
    assert main(["run-all", "--config", str(config)]) == 2
    assert "config.json: invalid JSON: no matched low surrogate in string" in capsys.readouterr().err
    assert not (tmp_path / "workdir").exists()


def test_blank_topic_exit_2_before_any_stage(tmp_path, capsys):
    config = write_config(tmp_path, generation={"topic": "  "})
    assert main(["run-all", "--config", str(config)]) == 2
    assert "generation.topic must not be blank" in capsys.readouterr().err
    assert not (tmp_path / "workdir").exists()


# Each refusal is made by the strict reader: of the body ("raw"), of the
# schema-mode content, or, for a plain completion, by the MCQ parser.
LONE_SURROGATE_REFUSALS = {
    ("raw", "structured"): "provider returned undecodable body: no matched low surrogate",
    ("raw", "basic"): "provider returned undecodable body: no matched low surrogate",
    ("escaped", "structured"): "schema-constrained response is not JSON: no matched low surrogate",
    ("escaped", "basic"): None,
}


@pytest.mark.parametrize("method", ["structured", "basic"])
@pytest.mark.parametrize("surrogate", ["raw", "escaped"])
def test_generate_refuses_lone_surrogate_completion_exit_3(tmp_path, monkeypatch, capsys, surrogate, method):
    embedder = MockEmbeddingProvider(dim=64)
    mcq = {"stem": "Apakah \ud800 integer?", "answer_key": "A",
           "options": [{"label": label, "text": f"pilihan {label}"} for label in "ABCD"]}
    # "raw": the body's JSON escape puts the surrogate itself in the content;
    # "escaped": the content is the model's JSON text, which escapes it.
    content = json.dumps(mcq, ensure_ascii=surrogate == "escaped")

    def urlopen(request, timeout):
        payload = json.loads(request.data)
        if request.full_url.endswith("/embed"):
            body = {"embeddings": embedder.embed(payload["input"]).tolist()}
        else:
            body = {"choices": [{"message": {"content": content}}]}
        return io.BytesIO(json.dumps(body).encode())

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    monkeypatch.setenv("QGEN_API_KEY", "k")
    config = write_config(tmp_path, provider={
        "mock": False,
        "chat_endpoint": "https://api.example.test/chat", "chat_model": "m",
        "embed_endpoint": "https://api.example.test/embed", "embed_model": "e",
    }, generation={"methods": [method]})
    refusal = LONE_SURROGATE_REFUSALS[surrogate, method]
    outcomes = tmp_path / "workdir" / "outcomes"
    if refusal is not None:
        assert main(["run-all", "--config", str(config)]) == 3
        assert refusal in capsys.readouterr().err
        assert not outcomes.exists()
        return
    # A plain completion that is not strict JSON is a recorded parse failure, not a lost batch.
    assert main(["run-all", "--config", str(config)]) == 0
    rows = [json.loads(line) for line in (outcomes / "basic_prompt.jsonl").read_text().splitlines()]
    assert [row["result"]["category"] for row in rows] == ["NotJson"] * 5
    assert all("no matched low surrogate" in row["result"]["message"] for row in rows)
