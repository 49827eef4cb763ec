"""Worker-side evaluation of loop tasks.

A *loop task* (:func:`run_loop_task`) is the scheduler's unit: one
module and **one** hot loop (or a roster-discovery task when the
hot-loop set is unknown).  Loop granularity only pays off because of
the **worker-resident prepared-module cache**: an LRU keyed by
version key holding the parsed module, analysis context, profiles,
and the built analysis system, so K loop tasks of the same module pay
parse/verify/profile/build once per worker process instead of once
per task.  Cache hits report ``setup_s = 0`` — setup cost is billed
to the task that populated the entry, never re-billed.

Everything here must stay picklable and importable at module level
(``run_loop_task`` crosses the ``ProcessPoolExecutor`` boundary).

Per-loop timeouts run the analysis on a helper thread and abandon it
on expiry, returning the conservative fallback for that loop; the
task (and the batch) survives.  A timed-out loop also evicts its
prepared entry, so the next task of that module rebuilds a fresh
analysis system instead of sharing one an abandoned thread may still
be mutating.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis import AnalysisContext
from ..clients import PDGClient, hot_loops
from ..interp import cached_compiled_module
from ..core.framework import (
    DependenceAnalysis,
    build_caf,
    build_confluence,
    build_memory_speculation,
    build_scaf,
)
from ..ir import (
    SCOPED_FOOTPRINT_SENTINEL,
    ArrayType,
    GlobalVariable,
    PointerType,
    StructType,
    module_content_fingerprints,
    module_header_fingerprint,
    parse_module,
    verify_module,
)
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceSpec, current_tracer, set_tracer
from ..profiling import run_profilers
from .answers import LoopAnswer, fallback_answer, summarize_pdg
from .requests import AnalysisRequest, profile_digest

#: Default capacity of the worker-resident prepared-module LRU.
DEFAULT_PREPARED_CACHE_SIZE = 4


@dataclass(frozen=True)
class LoopTask:
    """The queue scheduler's unit: one module, one hot loop.

    ``loop is None`` makes this a *discovery* task: profile the module,
    report the hot-loop roster and time fractions (and warm the
    prepared-module cache), but analyze nothing.
    """

    request: AnalysisRequest
    loop: Optional[str] = None
    loop_timeout_s: Optional[float] = None
    #: The scheduler's LPT estimate (profiled time fraction); carried
    #: for observability only.
    time_fraction: float = 0.0
    #: When set, the worker traces this task (its own TraceContext,
    #: serialized back in :attr:`LoopTaskResult.spans`).
    trace: Optional[TraceSpec] = None
    prepared_cache_size: int = DEFAULT_PREPARED_CACHE_SIZE


@dataclass
class LoopTaskResult:
    """What a worker streams back for one loop task."""

    version_key: str
    workload: str
    system: str
    entry: str
    loop: Optional[str]                 # None for discovery tasks
    answer: Optional[LoopAnswer] = None
    hot_loops: Tuple[str, ...] = ()
    hot_fractions: Dict[str, float] = field(default_factory=dict)
    #: Total dynamic instructions of the training run; scales the
    #: fractions into cross-module-comparable LPT weights.
    total_instructions: int = 0
    profile_digest: str = ""
    #: Per-function content hashes of the analyzed module, plus the
    #: globals/structs header hash — what the scheduler stores next to
    #: each answer so later edited modules can revalidate footprints.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    header_fingerprint: str = ""
    #: Every function whose content could have influenced the training
    #: run (executed definitions, the entry, all declarations); edits
    #: provably outside this set reuse the profile without
    #: re-interpretation.
    executed_functions: Tuple[str, ...] = ()
    #: Names of the entities the loop's analysis consulted (see
    #: :func:`loop_footprint`).
    footprint: Tuple[str, ...] = ()
    module_evals: int = 0
    orchestrator_queries: int = 0
    #: Task wall time.  Includes setup only when this task populated
    #: the prepared-module cache (``prepared_hit`` False).
    busy_s: float = 0.0
    #: Parse+verify+profile+build seconds paid by THIS task (0 on a
    #: prepared-cache hit: setup is billed once, to the populating
    #: task).
    setup_s: float = 0.0
    #: Steady-state task wall: ``busy_s`` minus the one-time setup,
    #: i.e. what a warm fleet pays to re-run this loop.  Persisted
    #: into the result cache's ``durations`` table.
    analysis_wall_s: float = 0.0
    prepared_hit: bool = False
    #: Prepared-module entries this task's insertion evicted.
    prepared_evictions: int = 0
    #: Finished trace spans (plain dicts) when the task was traced;
    #: the engine adopts them under its dispatch span.
    spans: List[dict] = field(default_factory=list)
    #: Worker-side labeled metrics (a MetricsRegistry snapshot):
    #: per-module evaluation counts, per-workload loop latencies.
    metrics: Dict = field(default_factory=dict)


def prepare_request(request: AnalysisRequest):
    """Parse, verify, and profile a request's module.

    Shared by the prepared-module cache and the scheduler's
    incremental cache probe — the probe needs the real hot-loop
    roster and fingerprints of an *edited* module before deciding
    what still has to run.  Returns ``(module, context, profiles)``.
    """
    tracer = current_tracer()
    with tracer.span("prepare", cat="prepare", workload=request.name,
                     entry=request.entry):
        with tracer.span("parse", cat="prepare"):
            module = parse_module(request.source, name=request.name)
            verify_module(module)
        context = AnalysisContext(module)
        profiles = run_profilers(module, context, entry=request.entry)
    return module, context, profiles


def loop_footprint(system: DependenceAnalysis, loop) -> Tuple[str, ...]:
    """The dependence footprint of the loop just analyzed on
    ``system``: every entity whose content the answer may depend on.

    Functions come from callgraph reachability plus the orchestrator's
    consulted-function trace plus scan-trace anchors (separation-site
    enumeration touches functions outside the reachable set).  On top
    of those the footprint names the header entities the analysis
    actually used — ``global:``/``globalusers:``/``struct:`` entries
    plus the ``meta:scoped`` sentinel — so the footprint digest
    (:func:`repro.service.requests.loop_footprint_digest`) no longer
    has to fold in the whole-module header hash: edits to *unrelated*
    globals or structs leave every one of these entries unchanged.
    """
    context = system.context
    module = context.module
    reachable = context.callgraph.reachable_from(loop.function)
    names = {fn.name for fn in reachable}
    consulted = getattr(system.coordinator, "consulted_functions", None)
    if consulted:
        names.update(set(consulted))
    scanned_globals = set()
    for kind, name in context.scan_trace():
        if kind == "function":
            names.add(name)
        elif kind == "global":
            scanned_globals.add(name)
    # Globals any footprint function references: their declaration
    # (type, constness, initializer) feeds points-to and interval
    # reasoning even without a users scan.
    referenced = set()
    for fname in names:
        fn = module.functions.get(fname)
        if fn is None or fn.is_declaration:
            continue
        for inst in fn.instructions():
            for op in inst.operands:
                if isinstance(op, GlobalVariable):
                    referenced.add(op.name)
    entries = set(names)
    entries.update(f"global:{g}" for g in referenced | scanned_globals)
    # Whole-module sweeps over a global's users additionally depend on
    # *which functions* mention it, anywhere in the module.
    entries.update(f"globalusers:{g}" for g in scanned_globals)
    entries.update(
        f"struct:{s}" for s in _reachable_structs(
            module, names, referenced | scanned_globals))
    entries.add(SCOPED_FOOTPRINT_SENTINEL)
    return tuple(sorted(entries))


def _reachable_structs(module, function_names, global_names):
    """Names of struct types transitively reachable from the types the
    given functions and globals use (field-sensitive reasoning reads
    struct layouts, so they join the footprint)."""
    work = []
    for name in function_names:
        fn = module.functions.get(name)
        if fn is None:
            continue
        work.extend(arg.type for arg in fn.args)
        if not fn.is_declaration:
            for inst in fn.instructions():
                work.append(inst.type)
                work.extend(op.type for op in inst.operands)
    for gname in global_names:
        gv = module.globals.get(gname)
        if gv is not None:
            work.append(gv.value_type)
    seen = set()
    while work:
        ty = work.pop()
        if isinstance(ty, PointerType):
            work.append(ty.pointee)
        elif isinstance(ty, ArrayType):
            work.append(ty.element)
        elif isinstance(ty, StructType):
            if ty.name in seen:
                continue
            seen.add(ty.name)
            # Resolve through the module's registry so recursive types
            # (fields compared by name) still close over their fields.
            st = module.structs.get(ty.name, ty)
            work.extend(st.fields)
    return seen


def executed_function_scope(module, profiles, entry: str
                            ) -> Tuple[str, ...]:
    """Every entity whose content could influence the training run.

    Functions: the entry, every defined function with at least one
    executed block, and every declaration (builtin calls emit no block
    counts, and a declaration gaining a body must invalidate the
    profile).  On top of those, the scope names the header entities
    deterministic interpretation actually reads — ``global:`` entries
    for globals the executed functions reference (their initializers
    seed memory) and ``struct:`` entries for layouts reachable from
    executed types — plus the ``meta:scoped`` sentinel, so the scope
    digest (:func:`repro.service.requests.loop_footprint_digest`) no
    longer folds in the whole-module header hash.  An edit adding an
    *unrelated* global or struct leaves every entry byte-identical:
    the prior profile's hot-loop roster and time fractions reuse with
    zero re-interpretation.  A brand-new function cannot affect the
    run (nothing executed references it), and a declaration gaining a
    body changes its own fingerprint — both stay sound without the
    header.
    """
    names = {entry}
    for fn in module.functions.values():
        if fn.is_declaration:
            names.add(fn.name)
        elif any(profiles.edge.block_count(bb) for bb in fn.blocks):
            names.add(fn.name)
    referenced = set()
    for fname in names:
        fn = module.functions.get(fname)
        if fn is None or fn.is_declaration:
            continue
        for inst in fn.instructions():
            for op in inst.operands:
                if isinstance(op, GlobalVariable):
                    referenced.add(op.name)
    entries = set(names)
    entries.update(f"global:{g}" for g in referenced)
    entries.update(f"struct:{s}"
                   for s in _reachable_structs(module, names, referenced))
    entries.add(SCOPED_FOOTPRINT_SENTINEL)
    return tuple(sorted(entries))


def build_system(name: str, module, context, profiles,
                 config=None) -> DependenceAnalysis:
    """Construct any of the four §5 systems with an explicit config."""
    if name == "caf":
        return build_caf(module, context, profiles, config)
    if name == "confluence":
        return build_confluence(module, profiles, context, config)
    if name == "scaf":
        return build_scaf(module, profiles, context, config)
    if name == "memory-speculation":
        return build_memory_speculation(module, profiles, context, config)
    raise ValueError(f"unknown analysis system: {name!r}")


# -- worker-resident prepared-module cache -----------------------------------

class PreparedModule:
    """Everything setup produces for one version key, built once."""

    __slots__ = ("version_key", "module", "context", "profiles", "hot",
                 "hot_by_name", "system", "client", "fingerprints",
                 "header_fingerprint", "profile_digest",
                 "executed_functions", "compiled", "setup_s", "lock")

    def __init__(self, request: AnalysisRequest):
        started = time.perf_counter()
        module, context, profiles = prepare_request(request)
        self.version_key = request.version_key()
        self.module = module
        self.context = context
        self.profiles = profiles
        # The closure-compiled execution artifact the training run
        # left on the context (None when compilation was off or fell
        # back).  Pinned here so it stays warm with the entry: later
        # re-profiles of this prepared module (e.g. speculative
        # re-validation) reuse the compiled functions across batches.
        self.compiled = cached_compiled_module(context)
        self.hot = hot_loops(profiles)
        self.hot_by_name = {h.name: h for h in self.hot}
        self.system = build_system(request.system, module, context,
                                   profiles, request.config)
        self.client = PDGClient(self.system)
        self.fingerprints = module_content_fingerprints(module)
        self.header_fingerprint = module_header_fingerprint(module)
        self.profile_digest = profile_digest(profiles)
        self.executed_functions = executed_function_scope(
            module, profiles, request.entry)
        self.setup_s = time.perf_counter() - started
        # Serializes analyses that share this entry (thread executor):
        # the orchestrator and its memo cache are not thread-safe.
        self.lock = threading.Lock()


_PREPARED_LOCK = threading.Lock()
_PREPARED: "OrderedDict[str, PreparedModule]" = OrderedDict()


def reset_prepared_cache() -> None:
    """Drop every prepared module (tests, memory pressure)."""
    with _PREPARED_LOCK:
        _PREPARED.clear()


def prepared_cache_keys() -> List[str]:
    with _PREPARED_LOCK:
        return list(_PREPARED)


def _evict_prepared(version_key: str) -> None:
    with _PREPARED_LOCK:
        _PREPARED.pop(version_key, None)


def _prepared_module(request: AnalysisRequest, capacity: int
                     ) -> Tuple[PreparedModule, bool, int]:
    """Get-or-build the prepared entry; returns (entry, hit,
    evictions)."""
    key = request.version_key()
    with _PREPARED_LOCK:
        entry = _PREPARED.get(key)
        if entry is not None:
            _PREPARED.move_to_end(key)
            return entry, True, 0
    # Build outside the lock: setup is the expensive part.  Two
    # threads racing on the same key build twice and keep one — wasted
    # work, never wrong answers.
    entry = PreparedModule(request)
    evictions = 0
    with _PREPARED_LOCK:
        if key in _PREPARED:
            entry = _PREPARED[key]
            _PREPARED.move_to_end(key)
            return entry, True, 0
        _PREPARED[key] = entry
        while len(_PREPARED) > max(1, capacity):
            _PREPARED.popitem(last=False)
            evictions += 1
    return entry, False, evictions


# -- per-loop analysis helpers ------------------------------------------------

def _analyze_with_timeout(client: PDGClient, loop,
                          timeout_s: Optional[float]):
    """Run one loop analysis, abandoning it past ``timeout_s``.

    Returns the LoopPDG or ``None`` on timeout.  The abandoned thread
    is a daemon and dies with the worker process; its partial work is
    discarded.
    """
    if timeout_s is None:
        return client.analyze_loop(loop)
    box: list = []

    def _run():
        try:
            box.append(client.analyze_loop(loop))
        except Exception:
            pass  # surfaces as a timeout/fallback below

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    thread.join(timeout_s)
    return box[0] if box else None


# -- loop-task evaluation ----------------------------------------------------

def run_loop_task(task: LoopTask) -> LoopTaskResult:
    """Evaluate one loop task (runs in a pool worker).

    When :attr:`LoopTask.trace` is set, the worker runs under its own
    :class:`~repro.obs.trace.TraceContext` (installed for the task's
    duration, restored after) and serializes the finished spans plus
    its labeled metrics into the result, so the scheduler can merge
    every worker's timeline into one trace.
    """
    if task.trace is None:
        return _run_loop_task(task)
    tracer = task.trace.build()
    previous = set_tracer(tracer)
    try:
        with tracer.span("loop_task", cat="task",
                         workload=task.request.name,
                         system=task.request.system,
                         loop=task.loop or "*") as span:
            result = _run_loop_task(task)
            span.set(prepared="hit" if result.prepared_hit else "miss",
                     discovery=task.loop is None)
    finally:
        set_tracer(previous)
    result.spans = tracer.export()
    return result


def _run_loop_task(task: LoopTask) -> LoopTaskResult:
    request = task.request
    started = time.perf_counter()
    registry = MetricsRegistry()
    tracer = current_tracer()

    entry, hit, evictions = _prepared_module(request,
                                             task.prepared_cache_size)
    result = LoopTaskResult(
        version_key=entry.version_key,
        workload=request.name,
        system=request.system,
        entry=request.entry,
        loop=task.loop,
        hot_loops=tuple(h.name for h in entry.hot),
        hot_fractions={h.name: h.time_fraction for h in entry.hot},
        total_instructions=entry.profiles.total_instructions,
        profile_digest=entry.profile_digest,
        prepared_hit=hit,
        prepared_evictions=evictions,
        setup_s=0.0 if hit else entry.setup_s,
    )
    if not hit or task.loop is None:
        # Fingerprints/scope travel once per populated entry (and on
        # every discovery task, which feeds the scheduler's store
        # path); plain-loop hits skip them to keep pickling light.
        result.fingerprints = entry.fingerprints
        result.header_fingerprint = entry.header_fingerprint
        result.executed_functions = entry.executed_functions

    if task.loop is None:                     # discovery: roster only
        result.busy_s = time.perf_counter() - started
        result.metrics = registry.snapshot()
        return result

    h = entry.hot_by_name.get(task.loop)
    if h is None:
        # Requested loop is not in the profile's hot roster (explicit
        # loop subsets may name cold loops): answer=None leaves it out
        # of the request's answers.
        result.busy_s = time.perf_counter() - started
        result.metrics = registry.snapshot()
        return result

    system = entry.system
    with entry.lock:
        reset_consulted = getattr(system.coordinator, "reset_consulted",
                                  lambda: None)
        reset_consulted()
        entry.context.reset_scan_trace()
        evals_before = dict(system.stats.module_evals)
        total_before = system.stats.total_module_evals
        queries_before = system.stats.queries
        loop_started = time.perf_counter()
        with tracer.span("loop", cat="loop", loop=h.name,
                         workload=request.name,
                         system=request.system) as loop_span:
            pdg = _analyze_with_timeout(entry.client, h.loop,
                                        task.loop_timeout_s)
            latency = time.perf_counter() - loop_started
            loop_span.set(timed_out=pdg is None)
        for module_name, evals in sorted(
                system.stats.module_evals.items()):
            delta = evals - evals_before.get(module_name, 0)
            if delta:
                registry.counter("module_evals", module=module_name,
                                 workload=request.name).inc(delta)
        result.module_evals = system.stats.total_module_evals - total_before
        result.orchestrator_queries = system.stats.queries - queries_before
    registry.histogram("loop_latency_s", workload=request.name,
                       system=request.system).record(latency)
    if pdg is None:
        result.answer = fallback_answer(request.name, request.system,
                                        h.name, h.time_fraction)
        # An abandoned analysis thread may still be mutating this
        # system; drop the entry so the next task rebuilds cleanly.
        _evict_prepared(entry.version_key)
    else:
        result.answer = summarize_pdg(request.name, request.system, pdg,
                                      h.time_fraction, latency)
        result.footprint = loop_footprint(system, h.loop)
    result.busy_s = time.perf_counter() - started
    result.analysis_wall_s = max(0.0, result.busy_s - result.setup_s)
    result.metrics = registry.snapshot()
    return result
