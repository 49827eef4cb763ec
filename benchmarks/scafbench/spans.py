"""Layer spans for scafbench: wrappers, per-process span files, fold.

The benchmark measures layers from the outside.  :func:`install`
replaces each layer's public entry points (the call-site bindings the
service actually uses, e.g. ``repro.service.worker.run_profilers``)
with wrappers that time every call.  Nothing under ``src/`` changes.

Every process appends its finished spans to its own line-buffered
``spans-<pid>.jsonl``.  The file is opened lazily, on the first span
after a fork, so pool workers forked after :func:`install` write their
own files.  :func:`fold` reads them all back and turns them into
self time per layer: a span's duration minus the part its direct
children cover, with children found through the per-thread stack.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: (layer, module, class or None, attribute).  Module-level bindings
#: are patched where they are *called from*: the worker and the
#: scheduler import ``parse_module`` & co. by name.
ENTRY_POINTS: Tuple[Tuple[str, str, object, str], ...] = (
    ("ir.parse", "repro.service.worker", None, "parse_module"),
    ("ir.parse", "repro.service.worker", None, "verify_module"),
    ("ir.parse", "repro.service.scheduler", None, "parse_module"),
    ("ir.parse", "repro.service.scheduler", None, "verify_module"),
    ("ir.fingerprint", "repro.service.worker", None,
     "module_content_fingerprints"),
    ("ir.fingerprint", "repro.service.worker", None,
     "module_header_fingerprint"),
    ("ir.fingerprint", "repro.service.scheduler", None,
     "module_content_fingerprints"),
    ("ir.fingerprint", "repro.service.scheduler", None,
     "module_header_fingerprint"),
    # Context analyses are memoized by AnalysisContext; only the
    # constructors and compute() calls below run on a memo miss, which
    # keeps the wrappers off the hot path.
    ("analysis.context", "repro.analysis.context", None, "CallGraph"),
    ("analysis.context", "repro.analysis.context", None, "ScalarEvolution"),
    ("analysis.context", "repro.analysis.dominators", "DominatorTree",
     "compute"),
    ("analysis.context", "repro.analysis.loops", "LoopInfo", "compute"),
    ("profiling.run", "repro.service.worker", None, "run_profilers"),
    ("core.build", "repro.service.worker", None, "build_caf"),
    ("core.build", "repro.service.worker", None, "build_scaf"),
    ("core.build", "repro.service.worker", None, "build_confluence"),
    ("core.build", "repro.service.worker", None,
     "build_memory_speculation"),
    ("core.query", "repro.core.framework", "DependenceAnalysis", "query"),
    ("clients.loop", "repro.clients.pdg", "PDGClient", "analyze_loop"),
    ("service.sched", "repro.service.scheduler", "BatchScheduler",
     "run_batch"),
    ("service.cache_read", "repro.service.cache", "ResultCache", "lookup"),
    ("service.cache_read", "repro.service.cache", "ResultCache",
     "lookup_profile"),
    ("service.cache_read", "repro.service.cache", "ResultCache", "meta"),
    ("service.cache_read", "repro.service.cache", "ResultCache",
     "has_lineage"),
    ("service.cache_read", "repro.service.cache", "ResultCache",
     "lookup_footprints"),
    ("service.cache_read", "repro.service.cache", "ResultCache",
     "lookup_durations"),
    ("service.cache_read", "repro.service.cache", "ResultCache",
     "lookup_durations_many"),
    ("service.cache_read", "repro.service.cache", "ResultCache",
     "lookup_durations_exact"),
    ("service.cache_write", "repro.service.cache", "ResultCache", "store"),
    ("service.cache_write", "repro.service.cache", "ResultCache",
     "record_durations"),
)

#: Every layer a span can belong to, in ledger order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(e[0] for e in ENTRY_POINTS))


class SpanWriter:
    """Appends finished spans to ``<out>/spans-<pid>.jsonl``."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        """Start afresh: at install, and in every forked child, which
        inherits the parent's file, stacks, and maybe a held lock."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._file = None
        self._ids = itertools.count()

    def begin(self) -> Tuple[str, object, List[str]]:
        with self._lock:
            if self._file is None:
                self._file = open(
                    self.out_dir / f"spans-{os.getpid()}.jsonl", "a",
                    buffering=1)
            span_id = f"{os.getpid()}:{next(self._ids)}"
            local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, stack

    def end(self, span_id: str, parent, stack: List[str], name: str,
            layer: str, start: float, end: float) -> None:
        stack.pop()
        line = json.dumps({
            "id": span_id, "parent": parent, "name": name, "layer": layer,
            "start": start, "end": end, "pid": os.getpid(),
            "tid": threading.get_ident()}) + "\n"
        with self._lock:
            self._file.write(line)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
            self._file = None


def _traced(fn: Callable, layer: str, name: str,
            writer: SpanWriter) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id, parent, stack = writer.begin()
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            writer.end(span_id, parent, stack, name, layer, start,
                       time.monotonic())
    return wrapper


def install(out_dir: Path) -> Callable[[], None]:
    """Wrap every entry point; returns the function that unwraps them."""
    writer = SpanWriter(out_dir)
    restore = []
    for layer, module_name, cls_name, attr in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        raw = owner.__dict__[attr] if cls_name else getattr(owner, attr)
        name = f"{cls_name or module_name.rsplit('.', 1)[-1]}.{attr}"
        if isinstance(raw, classmethod):
            patched = classmethod(_traced(raw.__func__, layer, name, writer))
        else:
            patched = _traced(raw, layer, name, writer)
        setattr(owner, attr, patched)
        restore.append((owner, attr, raw))

    def uninstall() -> None:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)
        writer.close()
    return uninstall


def read_spans(out_dir: Path) -> List[dict]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def fold(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Self time, call count and longest call per layer and per name.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n},
    "max_s": {layer: s}, "self_by_pid": {pid: s}, "name_calls":
    {name: n}, "name_durations": {name: [s, ...]}}``.  Self time is
    the span's duration minus its direct children's durations, so the
    layers of nested spans add up to the outermost span exactly.
    """
    child_time: Dict[str, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    max_s: Dict[str, float] = {}
    self_by_pid: Dict[int, float] = {}
    name_calls: Dict[str, int] = {}
    name_durations: Dict[str, List[float]] = {}
    for span in spans:
        dur = span["end"] - span["start"]
        own = dur - child_time.get(span["id"], 0.0)
        layer = span["layer"]
        self_s[layer] = self_s.get(layer, 0.0) + own
        calls[layer] = calls.get(layer, 0) + 1
        max_s[layer] = max(max_s.get(layer, 0.0), dur)
        self_by_pid[span["pid"]] = self_by_pid.get(span["pid"], 0.0) + own
        name_calls[span["name"]] = name_calls.get(span["name"], 0) + 1
        name_durations.setdefault(span["name"], []).append(dur)
    return {"self_s": self_s, "calls": calls, "max_s": max_s,
            "self_by_pid": self_by_pid, "name_calls": name_calls,
            "name_durations": name_durations}
