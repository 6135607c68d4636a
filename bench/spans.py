"""In-memory spans around the pipeline's layer calls, and the per-layer metrics they give.

Modules import their collaborators with ``from .x import f``, so each
layer function is wrapped at the binding its caller looks up
(``qgen.generate.top_k``, ``qgen.evaluate.embed_texts``, ...). A span
records its name, start, end, parent span and stage-run id; self time is
its duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects spans in memory; worker-thread spans parent to the main thread's open span."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._next = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            sid = self._next
            self._next += 1
        attrs: dict = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                                   "parent": parent, "run": self.run_id, "attrs": attrs})

    def write(self, path: Path, t0: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "start": s["start"] - t0, "end": s["end"] - t0}) + "\n")


def _wrap(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if after is not None:
                result = after(attrs, result, args)
        return result
    return traced


def _count_chunks(attrs, result, args):
    attrs["chunks"] = len(result)
    return result


def _saved_bytes(attrs, result, args):
    attrs["bytes"] = os.path.getsize(args[1])
    return result


def _written_bytes(attrs, result, args):
    attrs["bytes"] = os.path.getsize(args[0])
    return result


def _drain(attrs, result, args):
    # read_jsonl returns a generator; read it inside the span so the span
    # covers the reading, then hand the caller an iterator over the rows.
    return iter(list(result))


def _parsed(attrs, result, args):
    attrs["parsed"] = int(type(result).__name__ == "Mcq")
    return result


# (module, attribute, span name, post-processing of the result)
BINDINGS = (
    ("qgen.cli", "load_document", "blocks.load_document", None),
    ("qgen.cli", "chunk_recursive", "chunking.chunk_recursive", _count_chunks),
    ("qgen.cli", "chunk_structure_aware", "chunking.chunk_structure_aware", _count_chunks),
    ("qgen.cli", "chunk_rpt_standards", "chunking.chunk_rpt_standards", _count_chunks),
    ("qgen.cli", "embed_texts", "embedding.embed_texts", None),
    ("qgen.generate", "embed_texts", "embedding.embed_texts", None),
    ("qgen.evaluate", "embed_texts", "embedding.embed_texts", None),
    ("qgen.cli", "build_index", "vectorindex.build_index", None),
    ("qgen.cli", "save_index", "vectorindex.save_index", _saved_bytes),
    ("qgen.cli", "load_index", "vectorindex.load_index", None),
    ("qgen.generate", "top_k", "vectorindex.top_k", None),
    ("qgen.evaluate", "top_k", "vectorindex.top_k", None),
    ("qgen.generate", "build_prompt_structured", "prompts.build", None),
    ("qgen.generate", "build_prompt_basic", "prompts.build", None),
    ("qgen.generate", "build_prompt_rag", "prompts.build", None),
    ("qgen.evaluate", "build_prompt_qa", "prompts.build", None),
    ("qgen.generate", "parse_mcq_json", "mcq.parse_mcq_json", _parsed),
    ("qgen.generate", "generate_mcq", "generate.generate_mcq", None),
    ("qgen.cli", "sts_alignment", "evaluate.sts_alignment", None),
    ("qgen.cli", "ragqa_validity", "evaluate.ragqa_validity", None),
    ("qgen.cli", "aggregate", "evaluate.aggregate", None),
    ("qgen.cli", "write_jsonl", "jsonio.write_jsonl", _written_bytes),
    ("qgen.cli", "read_jsonl", "jsonio.read_jsonl", _drain),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every binding in BINDINGS for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, after in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, after))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Duration minus the union of child intervals, per span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Sum calls, seconds, self seconds and attributes per span name."""
    selfs = _self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        name = s["name"]
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        totals[f"{name}.s"] = totals.get(f"{name}.s", 0.0) + (s["end"] - s["start"])
        totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + selfs[s["id"]]
        for key, value in s["attrs"].items():
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
    return totals
