"""Pipeline benchmark: the real CLI stages, in process, on seeded synthetic inputs.

Usage, from the repository root:

    python3 bench/run.py --workload bulk_cpu --seed 1 --seconds 30 --trace 0

Set-up writes the inputs and config for the seed and imports qgen afresh
(for ``tau_sweep`` it also builds the workdir). It repeats at least
SETUP_REPS times and until it has measured MIN_SETUP_S; ``setup_s`` is the
``batch_median`` of its times. A workload is a list of steps, each one
stage call through ``qgen.cli.main``. The timed loop runs every step once
in pipeline order, then re-runs the step with the least measured time
until ``--seconds`` have passed.
Re-running a step is sound because every stage rewrites byte-identical
outputs from the same inputs, which the output check after each call
confirms outside the timed region. A step's time is the ``batch_median``
of its calls. ``--trace 1`` alternates untraced and traced calls of each
step and reports per-layer metrics plus the tracing overhead. The last
line of standard output is one JSON object; the exit code is 0 only when
every stage exited 0 and every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median

import corpus
import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("ingest", "index", "generate", "evaluate")
METHODS = ["structured_prompt", "basic_prompt", "rag_generic", "rag_structure_aware"]
DIM = 64
TAU = 0.35  # evaluation.tau in the config; tau_sweep overrides it per call
SETUP_REPS = 3  # at least; cheap set-ups repeat until they measured MIN_SETUP_S
MIN_SETUP_S = 2.5
BATCH_S = 1.0
# Stages whose retries follow the configured backoff. Evaluate retries with
# a hard-coded 0.5 s backoff, so a seed-dependent number of injected
# failures there would swing evaluate_s far beyond any usable bound.
FAILURE_STAGES = ("index", "generate")


@dataclass(frozen=True)
class Workload:
    shape: corpus.Shape
    n: int
    malformed_rate: float = 0.0
    profile: dict = field(default_factory=dict)
    taus: tuple[float, ...] = ()


_SMALL = corpus.Shape(pages=10, blocks_per_page=14, chapters=2, sections=4, items=5)
_REMOTE = dict(chat_s=0.004, chat_jitter_s=0.002, embed_s=0.0015, embed_per_text_s=0.00005,
               embed_jitter_s=0.001, failure_rate=0.005)
# bulk_cpu: the baseline corpus size with instant providers, so the pipeline's own CPU sets the time.
#   n is 100 rather than the baseline's 250 so that evaluate takes about 3 s, and a run holds
#   several calls of every stage spread over its length.
# remote_latency: a fixture-scale corpus behind slow, occasionally failing providers, so round-trips do.
# tau_sweep: the remote_latency set-up, timing only repeated evaluate calls over one built workdir.
WORKLOADS = {
    "bulk_cpu": Workload(corpus.Shape(pages=150, blocks_per_page=14, chapters=15, sections=10, items=6), n=100),
    "remote_latency": Workload(_SMALL, n=100, malformed_rate=0.2, profile=_REMOTE),
    "tau_sweep": Workload(_SMALL, n=100, malformed_rate=0.2, profile=_REMOTE, taus=(0.2, 0.35, 0.5, 0.65, 0.8)),
}


def config_for(w: Workload) -> dict:
    return {
        "chunking": {"recursive_max_chars": 280, "recursive_overlap": 60,
                     "structure_heading_font_delta": 3.0, "structure_max_chars": 1500},
        "provider": {"mock": True, "mock_dim": DIM, "mock_malformed_rate": w.malformed_rate,
                     "max_in_flight": 2, "max_retries": 3, "backoff_base": 0.01},
        "generation": {"methods": METHODS, "n_per_method": w.n, "temperature": 0.7,
                       "topic": "Nombor Nisbah", "retrieval_k": 3},
        "evaluation": {"tau": TAU, "k": 3, "sts_unit": "stem"},
        "report_format": "markdown",
    }


@dataclass(frozen=True)
class Step:
    stage: str
    tau: float | None = None
    timed: bool = True  # part of the pipeline that pipeline_s, the call counts and questions_per_s cover


def steps_for(w: Workload) -> list[Step]:
    if w.taus:
        # Only the sweep is timed; the build stages are still sampled for their own *_s metrics.
        return [Step(s, timed=False) for s in STAGES[:3]] + [Step("evaluate", tau) for tau in w.taus]
    return [Step(s) for s in STAGES]


@dataclass
class StageRun:
    step: int | None  # index into the workload's steps; None for set-up calls
    stage: str
    traced: bool
    counters: object
    seconds: float = 0.0
    ok: bool = False
    records: int = 0
    totals: dict = field(default_factory=dict)


def batch_median(values: list[float], seconds: list[float]) -> float:
    """Median over batches of the mean of ``values`` within each batch.

    A batch is a run of consecutive samples that together took at least
    BATCH_S; a short remainder joins the last batch. On a shared 2-vCPU
    virtual machine the CPU switched between two speeds about 1.6x apart
    for seconds at a time, so the times of short calls were bimodal;
    averaging within a batch keeps the median from jumping between modes.
    Samples of BATCH_S or longer are their own batches, so for them this
    is the plain median.
    """
    batches, current, total = [], [], 0.0
    for value, s in zip(values, seconds):
        current.append(value)
        total += s
        if total >= BATCH_S:
            batches.append(current)
            current, total = [], 0.0
    if current:
        if batches:
            batches[-1] += current
        else:
            batches.append(current)
    return median(fmean(b) for b in batches)


def _purge_qgen() -> None:
    for name in list(sys.modules):
        if name == "qgen" or name.startswith("qgen.") or name == "standins":
            del sys.modules[name]


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.w = WORKLOADS[name]
        self.steps = steps_for(self.w)
        self.base = ROOT / ".bench_work" / f"{name}-seed{seed}-pid{os.getpid()}"
        self.inputs = self.base / "inputs"
        self.workdir = self.base / "workdir"
        self.tracer = spans.Tracer()
        self.runs: list[StageRun] = []
        self.problems: list[str] = []
        self.reference: dict = {}
        self.digests: dict = {}
        self.setup_samples: list[float] = []

    # -- stage calls ---------------------------------------------------------

    def _install(self) -> None:
        standins = importlib.import_module("standins")
        profile = standins.Profile(**self.w.profile)

        def build_providers(cfg):
            run = self.current
            return standins.make_providers(cfg, profile, run.counters, run.stage in FAILURE_STAGES,
                                           self.tracer if run.traced else None)

        self.cli.build_providers = build_providers
        self.new_counters = lambda traced: standins.Counters(texts=set() if traced else None,
                                                          prompts=set() if traced else None)

    def call(self, step: Step, index: int | None, traced: bool = False) -> bool:
        """Run one stage through the CLI, time it, then check its output."""
        argv = [step.stage, "--config", str(self.inputs / "config.json"), "--workdir", str(self.workdir)]
        if step.tau is not None:
            argv += ["--tau", repr(step.tau)]
        run = self.current = StageRun(index, step.stage, traced, self.new_counters(traced))
        self.runs.append(run)
        self.tracer.run_id = len(self.runs) - 1
        first_span = len(self.tracer.spans)
        err = io.StringIO()
        gc.collect()
        with spans.instrumented(self.tracer) if traced else nullcontext(), \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            start = time.perf_counter()
            try:
                with self.tracer.span(f"cli.{step.stage}") if traced else nullcontext():
                    rc = self.cli.main(argv)
            except Exception:  # a crash is a failed stage, reported below
                rc = None
                traceback.print_exc(file=err)
            run.seconds = time.perf_counter() - start
        if traced:
            run.totals = spans.layer_totals(self.tracer.spans[first_span:])
        problems = [f"{step.stage}: exit {rc}: {err.getvalue().strip()[-400:]}"] if rc != 0 else self.check(run, step)
        run.ok = not problems
        self.problems += problems
        return run.ok

    def check(self, run: StageRun, step: Step) -> list[str]:
        """Full check the first time a step runs, then byte-identity to that output."""
        digest = oracle.artifact_digest(self.workdir, step.stage)
        key = (step.stage, step.tau)
        if key in self.reference:
            reference, run.records = self.reference[key]
            return [] if digest == reference else [f"{step.stage}: output differs from the first call"]
        if step.stage == "ingest":
            problems = oracle.check_ingest(self.workdir, self.codes)
        elif step.stage == "index":
            problems = oracle.check_index(self.workdir, DIM)
        elif step.stage == "generate":
            problems = oracle.check_generate(self.workdir, METHODS, self.w.n, self.w.malformed_rate)
        else:
            tau = TAU if step.tau is None else step.tau
            problems, rows, tie_misses = oracle.check_evaluate(self.workdir, tau, DIM)
            run.records = len(rows)
            self.digests[tau] = (oracle.rows_digest(rows), tie_misses)
        self.reference[key] = (digest, run.records)
        return problems

    # -- set-up and timed loop ----------------------------------------------

    def setup(self) -> bool:
        inputs_seen = set()
        while len(self.setup_samples) < SETUP_REPS or sum(self.setup_samples) < MIN_SETUP_S:
            _purge_qgen()
            start = time.perf_counter()
            self.codes = corpus.write_inputs(self.inputs, self.w.shape, self.seed, config_for(self.w))
            self.cli = importlib.import_module("qgen.cli")
            self._install()
            if self.w.taus:
                shutil.rmtree(self.workdir, ignore_errors=True)
                if not all(self.call(Step(s), None) for s in STAGES[:3]):
                    return False
            self.setup_samples.append(time.perf_counter() - start)
            inputs_seen.add(b"".join(p.read_bytes() for p in sorted(self.inputs.iterdir())))
        if len(inputs_seen) != 1:
            self.problems.append("set-up: the same seed gave different input files")
        return len(inputs_seen) == 1

    def run(self) -> dict:
        start = time.perf_counter()
        ok = self.setup()
        spent = [0.0] * len(self.steps)
        calls = [0] * len(self.steps)
        # Every step once in pipeline order (twice when tracing: untraced, then traced).
        order = list(range(len(self.steps))) * (2 if self.trace else 1)
        loop_start = time.perf_counter()
        while ok:
            elapsed = time.perf_counter() - loop_start
            if order:
                i = order.pop(0)
            elif elapsed >= self.seconds:
                break
            else:
                # Steps take turns, least measured time first: each step gets about an
                # equal share of the run, so a short step's many calls spread over the
                # run as the machine's speed drifts.
                i = min(range(len(self.steps)), key=spent.__getitem__)
            ok = self.call(self.steps[i], i, traced=self.trace and calls[i] % 2 == 1)
            spent[i] += self.runs[-1].seconds
            calls[i] += 1
        if self.trace:
            self.tracer.write(ROOT / ".bench_work" / "traces" / f"{self.name}-seed{self.seed}.jsonl", start)
        failed = sum(not r.ok for r in self.runs)
        correct = ok and failed == 0 and not self.problems
        metrics = {}
        if correct:
            metrics = self.layer_metrics() if self.trace else self.e2e_metrics()
        return {"correct": correct, "attempted": len(self.runs), "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    # -- metrics ---------------------------------------------------------------

    def per_step(self, fn, traced: bool = False) -> dict[int, float]:
        """Per step, ``batch_median`` of ``fn(run)`` over the step's calls with the given traced flag."""
        calls = defaultdict(list)
        for r in self.runs:
            if r.step is not None and r.traced == traced:
                calls[r.step].append(r)
        return {i: batch_median([fn(r) for r in runs], [r.seconds for r in runs]) for i, runs in calls.items()}

    def pipeline_s(self, traced: bool = False) -> float:
        seconds = self.per_step(lambda r: r.seconds, traced)
        return sum(v for i, v in seconds.items() if self.steps[i].timed)

    def e2e_metrics(self) -> dict:
        seconds = self.per_step(lambda r: r.seconds)
        timed = [i for i, s in enumerate(self.steps) if s.timed]
        pipeline = sum(seconds[i] for i in timed)
        records = self.per_step(lambda r: r.records)
        questions = sum(records[i] for i in timed if self.steps[i].stage == "evaluate")
        m = {
            "setup_s": (batch_median(self.setup_samples, self.setup_samples), "s"),
            "pipeline_s": (pipeline, "s"),
            "questions_per_s": (questions / pipeline, "questions/s"),
        }
        for stage in STAGES:
            m[f"{stage}_s"] = (sum(v for i, v in seconds.items() if self.steps[i].stage == stage), "s")
        for name in ("embed_calls", "chat_calls"):
            counts = self.per_step(lambda r: getattr(r.counters, name))
            m[name] = (sum(counts[i] for i in timed), "count")
        m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        m["ok_stage_pct"] = (100.0 * sum(r.ok for r in self.runs) / len(self.runs), "%")
        return m

    def layer_metrics(self) -> dict:
        def total(key: str, stage: str | None = None) -> float:
            values = self.per_step(lambda r: r.totals.get(key, 0), traced=True)
            return sum(v for i, v in values.items() if stage in (None, self.steps[i].stage))

        def counter(attr: str, stage: str | None = None) -> float:
            values = self.per_step(lambda r: getattr(r.counters, attr), traced=True)
            return sum(v for i, v in values.items() if stage in (None, self.steps[i].stage))

        # Distinct request contents over one traced call of every step.
        first = {}
        for r in self.runs:
            if r.traced:
                first.setdefault(r.step, r.counters)

        def distinct(attr: str, sent: str) -> float:
            return len(set().union(*(getattr(c, attr) for c in first.values()))) / sum(
                getattr(c, sent) for c in first.values())

        seconds = ("blocks.load_document.s", "chunking.chunk_recursive.s", "chunking.chunk_structure_aware.s",
                   "chunking.chunk_rpt_standards.s", "embedding.embed_texts.self_s", "prompts.build.s",
                   "vectorindex.top_k.s", "vectorindex.build_index.s", "vectorindex.save_index.s",
                   "vectorindex.load_index.s", "mcq.parse_mcq_json.s", "generate.generate_mcq.self_s",
                   "evaluate.sts_alignment.self_s", "evaluate.ragqa_validity.self_s", "evaluate.aggregate.s",
                   "jsonio.write_jsonl.s", "jsonio.read_jsonl.s")
        counts = ("embedding.embed_texts.calls", "vectorindex.top_k.calls", "vectorindex.load_index.calls",
                  "mcq.parse_mcq_json.calls", "evaluate.sts_alignment.calls", "evaluate.ragqa_validity.calls")
        m = {k: (total(k), "s") for k in seconds}
        m.update({k: (total(k), "count") for k in counts})
        m["chunking.chunks"] = (sum(total(f"chunking.{c}.chunks") for c in
                                    ("chunk_recursive", "chunk_structure_aware", "chunk_rpt_standards")), "count")
        m["vectorindex.save_index.bytes"] = (total("vectorindex.save_index.bytes"), "bytes")
        m["jsonio.write_jsonl.bytes"] = (total("jsonio.write_jsonl.bytes"), "bytes")
        m["embedding.provider.calls"] = (counter("embed_calls"), "count")
        m["embedding.provider.texts"] = (counter("embed_texts"), "count")
        m["embedding.provider.wait_s"] = (total("embedding.provider.s"), "s")
        m["embedding.retries"] = (counter("embed_retries"), "count")
        m["embedding.distinct_text_ratio"] = (distinct("texts", "embed_texts"), "ratio")
        m["chat.calls"] = (counter("chat_calls"), "count")
        m["chat.wait_s"] = (total("chat.provider.s"), "s")
        m["chat.retries"] = (counter("chat_retries"), "count")
        m["chat.distinct_prompt_ratio"] = (distinct("prompts", "chat_calls"), "ratio")
        m["mcq.parsed_ratio"] = (total("mcq.parse_mcq_json.parsed") / total("mcq.parse_mcq_json.calls"), "ratio")
        m["evaluate.qa_call_ratio"] = (counter("chat_calls", "evaluate") / total("evaluate.ragqa_validity.calls"),
                                       "ratio")
        for stage in STAGES:
            m[f"cli.{stage}.self_s"] = (total(f"cli.{stage}.self_s"), "s")
        m["trace.overhead_s"] = (self.pipeline_s(traced=True) - self.pipeline_s(), "s")
        return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qgen" / "cli.py").is_file():
        print(f"error: no qgen sources under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = bench.run()
    finally:
        shutil.rmtree(bench.base, ignore_errors=True)
    for tau, (digest, tie_misses) in sorted(bench.digests.items()):
        print(f"digest tau={tau} sorted(outcome_id, verdict, reason, best_standard) sha256={digest}")
        print(f"tie-break tau={tau}: {tie_misses} records name a tied standard other than the lowest code")
    chunking = config_for(bench.w)["chunking"]
    if oracle.whitespace_chunk_defect(chunking["recursive_max_chars"], chunking["recursive_overlap"]):
        print("known defect: chunk_recursive emits a whitespace-only chunk for a block of recursive_max_chars "
              "characters after one of recursive_max_chars - 1; corpus.py redraws such blocks")
    for i, step in enumerate(bench.steps):
        seconds = [r.seconds for r in bench.runs if r.step == i]
        label = step.stage if step.tau is None else f"{step.stage}@tau={step.tau}"
        print(f"step {label}: {len(seconds)} calls, {sum(seconds):.3f} s measured")
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
