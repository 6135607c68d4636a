"""Run the benchmark once per seed and report each metric's median and quartile spread.

Usage, from the repository root:

    python3 bench/spread.py --workload remote_latency --seeds 1-10 --seconds 20 [--trace 1] [--out FILE]

Spread is (Q3 - Q1) / median over the runs, with quartiles from
``statistics.quantiles(values, n=4)``. Runs are sequential, one process at
a time. A run that fails its output checks is listed and left out of the
summary, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    """Seeds from a list of ranges such as ``1-10`` or ``1,3-6``."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    by_metric: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = []
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: failed (exit {proc.returncode})\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            failed.append(seed)
            continue
        for name, m in result["metrics"].items():
            by_metric.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)

    summary = {name: {"unit": units[name], **summarize(v)} for name, v in by_metric.items()}
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:36s} median {s['median']:.6g} {s['unit']:12s} q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}")
    if args.out:
        machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
                   "numpy": importlib.metadata.version("numpy"), "platform": platform.platform()}
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds, "failed_seeds": failed,
                                        "seconds": args.seconds, "trace": args.trace, "machine": machine,
                                        "metrics": summary}, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
