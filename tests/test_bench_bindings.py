"""Guards the benchmark run (``bench/run.py``, traced or not) against refactors.

The benchmark wraps layer functions at the binding their caller looks up,
so renaming or moving one of them breaks tracing without failing any
pipeline test; it also builds probe documents with the qgen constructors.
This only reads ``bench/``.
"""

from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys

import pytest

from qgen.cli import main
from tests.conftest import FIXTURES, REPO_ROOT
from tests.test_golden import bench_lines, load_golden, taken_with


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", REPO_ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    spans = _load_spans()
    for module_name, attr, _, _ in spans.BINDINGS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


def test_every_traced_binding_is_called_by_run_all(tmp_path, monkeypatch):
    called = set()
    for module_name, attr, _, _ in _load_spans().BINDINGS:
        module = importlib.import_module(module_name)

        def recording(*args, _key=(module_name, attr), _fn=getattr(module, attr), **kwargs):
            called.add(_key)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, recording)
    assert main(["run-all", "--config", str(FIXTURES / "mock_config.json"),
                 "--workdir", str(tmp_path / "workdir")]) == 0
    assert called == {(m, a) for m, a, _, _ in _load_spans().BINDINGS}


# tau_sweep is the one workload whose stage calls pass --tau.
@pytest.mark.parametrize("workload", ["remote_latency", "tau_sweep"])
def test_bench_run_is_correct(workload):
    """The benchmark's own command, once and untimed: a change that breaks or moves a bench run fails here."""
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert '"correct": true' in run.stdout
    golden = load_golden()
    assert bench_lines(run.stdout) == golden["bench"][workload], taken_with(golden)
