from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

import qgen.cli
import qgen.wire
from qgen.chat import MockChatProvider
from qgen.cli import main
from qgen.embedding import MockEmbeddingProvider
from qgen.errors import ProviderError
from qgen.vectorindex import load_index
from tests.conftest import FIXTURES


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


def test_index_corrupt_chunk_line_exit_2(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["ingest", "--config", str(config)]) == 0
    chunk_file = tmp_path / "workdir" / "chunks" / "knowledge_recursive.jsonl"
    lines = chunk_file.read_text().splitlines()
    lines[1] = "{broken json"
    chunk_file.write_text("\n".join(lines) + "\n")
    assert main(["index", "--config", str(config)]) == 2
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


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["ingest", "--config", str(tmp_path / "nope.json")]) == 2


def test_resolved_config_echoes_overrides(tmp_path):
    config = write_config(tmp_path)
    assert main(["ingest", "--config", str(config), "--n", "9"]) == 0
    resolved = json.loads((tmp_path / "workdir" / "resolved_config.json").read_text())
    assert resolved["generation"]["n_per_method"] == 9


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


def test_report_json_format(tmp_path, capsys):
    config = write_config(tmp_path, report_format="json")
    assert main(["run-all", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    assert {"method", "mean_sts", "std_sts", "validity_pct", "parse_failure_pct"} <= set(rows[0])


class FirstQaCallFails:
    """Mock chat whose first completion raises a retryable provider error."""

    def __init__(self):
        self.inner = MockChatProvider()
        self.tag = self.inner.tag
        self.failed = False
        self.lock = threading.Lock()

    def complete(self, system, user, **kwargs):
        with self.lock:
            first, self.failed = not self.failed, True
        if first:
            raise ProviderError(503, "busy", retryable=True)
        return self.inner.complete(system, user, **kwargs)


@pytest.mark.parametrize("max_retries, exit_code, expected_sleeps", [(0, 3, []), (1, 0, [0.0])])
def test_evaluate_honours_configured_retry_policy(tmp_path, monkeypatch, max_retries, exit_code,
                                                  expected_sleeps):
    config = write_config(tmp_path, provider={"mock": True, "max_retries": max_retries, "backoff_base": 0.0})
    for cmd in ("ingest", "index", "generate"):
        assert main([cmd, "--config", str(config)]) == 0
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    monkeypatch.setattr(qgen.cli, "build_providers",
                        lambda cfg: (FirstQaCallFails(), MockEmbeddingProvider(dim=cfg.provider.mock_dim)))
    assert main(["evaluate", "--config", str(config)]) == exit_code
    assert sleeps == expected_sleeps


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


@pytest.mark.parametrize("provider", [{"max_in_flight": 0}, {"max_in_flight": -1}])
def test_invalid_max_in_flight_exit_2(tmp_path, capsys, provider):
    config = write_config(tmp_path, provider={"mock": True, **provider})
    assert main(["ingest", "--config", str(config)]) == 2
    assert "provider.max_in_flight" in capsys.readouterr().err


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
