"""Same behaviour across commits: pinned digests of what a fixture ``run-all`` writes.

``tests/golden.json`` holds the sha256 of every file that ``run-all`` writes
on ``fixtures/mock_config.json`` under three configurations, and the
``digest``/``tie-break`` lines that ``test_bench_run_is_correct`` reads
from its bench runs. A change that means to alter an artifact regenerates
the file in the same change, from the repository root:

    PYTHONPATH=src python -m tests.test_golden

which prints every fixture file and bench line whose digest changed before it
writes the file, and lists each changed file, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from qgen.cli import main
from tests.conftest import FIXTURES, REPO_ROOT

GOLDEN = Path(__file__).with_name("golden.json")

# The configurations compared: the fixture config as it is, and with one setting changed.
CONFIGS = {
    "as_is": {},
    "malformed_rate_0.2": {"provider": {"mock_malformed_rate": 0.2}},
    "sts_unit_full": {"evaluation": {"sts_unit": "full"}},
}

BENCH_WORKLOADS = ("remote_latency", "tau_sweep")


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def taken_with(golden: dict) -> str:
    """The failure note: float results can move with another numpy or BLAS build."""
    return (f"the golden digests were taken with numpy {golden['numpy']}; this run has numpy {np.__version__}. "
            "If the versions match, the change altered an artifact: regenerate tests/golden.json on purpose "
            "and list every changed file in CHANGES.md")


def run_all_digests(run_dir: Path, overrides: dict) -> dict[str, str]:
    """sha256 of every file a fixture ``run-all`` writes, by its path under the workdir.

    The inputs and the workdir sit in ``run_dir``, and ``resolved_config.json``
    is hashed with that directory's prefix removed from its absolute paths.
    """
    cfg = json.loads((FIXTURES / "mock_config.json").read_text(encoding="utf-8"))
    for section, values in overrides.items():
        cfg[section].update(values)
    for name in (cfg["paths"]["knowledge_blocks"], cfg["paths"]["standards_blocks"]):
        shutil.copy(FIXTURES / name, run_dir / name)
    config = run_dir / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    workdir = run_dir / "workdir"
    assert main(["run-all", "--config", str(config), "--workdir", str(workdir)]) == 0
    prefix = (str(run_dir) + os.sep).encode()
    return {
        p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes().replace(prefix, b"")).hexdigest()
        for p in sorted(workdir.rglob("*")) if p.is_file()
    }


def bench_lines(stdout: str) -> list[str]:
    """The result digest and tie-break lines of a bench run, in the order it prints them."""
    return [line for line in stdout.splitlines() if line.startswith(("digest tau=", "tie-break tau="))]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fixture_run_all_matches_golden(tmp_path, name):
    golden = load_golden()
    assert run_all_digests(tmp_path, CONFIGS[name]) == golden["fixtures"][name], taken_with(golden)


def changed(old: dict, new: dict) -> list[str]:
    """One line per fixture file and per bench line whose digest differs between two golden records."""
    lines = []
    for name in sorted(old.get("fixtures", {}).keys() | new["fixtures"].keys()):
        before, after = old.get("fixtures", {}).get(name, {}), new["fixtures"].get(name, {})
        lines += [f"fixture {name}: {path} {before.get(path, 'absent')} -> {after.get(path, 'absent')}"
                  for path in sorted(before.keys() | after.keys()) if before.get(path) != after.get(path)]
    for workload in sorted(old.get("bench", {}).keys() | new["bench"].keys()):
        pairs = zip_longest(old.get("bench", {}).get(workload, []), new["bench"].get(workload, []), fillvalue="absent")
        lines += [f"bench {workload}: {before} -> {after}" for before, after in pairs if before != after]
    return lines


def test_changed_names_each_differing_file_and_bench_line():
    old = {"fixtures": {"as_is": {"a": "1", "b": "2", "gone": "3"}}, "bench": {"w": ["x", "y"]}}
    new = {"fixtures": {"as_is": {"a": "1", "b": "9", "new": "4"}}, "bench": {"w": ["x", "z", "extra"]}}
    assert changed(old, new) == [
        "fixture as_is: b 2 -> 9",
        "fixture as_is: gone 3 -> absent",
        "fixture as_is: new absent -> 4",
        "bench w: y -> z",
        "bench w: absent -> extra",
    ]
    assert changed(new, new) == []


def _regenerate() -> None:
    fixtures = {}
    for name, overrides in CONFIGS.items():
        with tempfile.TemporaryDirectory() as run_dir, redirect_stdout(io.StringIO()):
            fixtures[name] = run_all_digests(Path(run_dir), overrides)
    bench = {}
    for workload in BENCH_WORKLOADS:
        run = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"],
                             cwd=REPO_ROOT, capture_output=True, text=True, check=True)
        bench[workload] = bench_lines(run.stdout)
    golden = {"numpy": np.__version__, "fixtures": fixtures, "bench": bench}
    old = load_golden() if GOLDEN.exists() else {}
    if old.get("numpy") != golden["numpy"]:
        print(f"numpy {old.get('numpy', 'absent')} -> {golden['numpy']}")
    print("\n".join(changed(old, golden)) or "no digest changed")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
