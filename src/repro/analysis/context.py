"""AnalysisContext: cached static analyses over one module.

Every analysis module (memory or speculation) receives the same
context, so dominator trees, loop info, SCEV, and the call graph are
computed once per module and shared.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..ir import BasicBlock, Function, Module
from .callgraph import CallGraph
from .dominators import DominatorTree
from .loops import LoopInfo
from .scev import ScalarEvolution


class AnalysisContext:
    """Lazily-computed, memoized static analyses for a module."""

    def __init__(self, module: Module):
        self.module = module
        self._callgraph: Optional[CallGraph] = None
        self._dom: Dict[Tuple[int, FrozenSet[BasicBlock], bool],
                        DominatorTree] = {}
        self._loops: Dict[int, LoopInfo] = {}
        self._scev: Dict[int, ScalarEvolution] = {}
        self._scan_trace: Set[Tuple[str, str]] = set()

    # -- scan tracing ------------------------------------------------------
    #
    # Whole-module sweeps (a global's user scan, separation-site
    # enumeration) consult state outside the caller's reachable
    # functions, and the orchestrator notes every function a query it
    # evaluates names.  Both land here, one trace per loop, so the
    # service layer can put exactly those entities — not the entire
    # module header — into a cached answer's dependence footprint.

    def note_scan(self, kind: str, name: str) -> None:
        """Record that the current analysis swept ``kind``/``name``
        (e.g. ``("global", "counter")`` for a users-of-global scan or
        ``("function", "helper")`` for a profile-site anchor)."""
        self._scan_trace.add((kind, name))

    def reset_scan_trace(self) -> None:
        """Clear the trace before analysing a new loop (see
        :meth:`repro.core.framework.DependenceAnalysis.clear_cache`)."""
        self._scan_trace = set()

    def scan_trace(self) -> FrozenSet[Tuple[str, str]]:
        """Everything swept since the last :meth:`reset_scan_trace`."""
        return frozenset(self._scan_trace)

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = CallGraph(self.module)
        return self._callgraph

    def dominator_tree(self, fn: Function,
                       ignore: FrozenSet[BasicBlock] = frozenset(),
                       post: bool = False) -> DominatorTree:
        key = (id(fn), ignore, post)
        if key not in self._dom:
            self._dom[key] = DominatorTree.compute(fn, ignore=ignore, post=post)
        return self._dom[key]

    def post_dominator_tree(self, fn: Function,
                            ignore: FrozenSet[BasicBlock] = frozenset()
                            ) -> DominatorTree:
        return self.dominator_tree(fn, ignore=ignore, post=True)

    def loop_info(self, fn: Function) -> LoopInfo:
        key = id(fn)
        if key not in self._loops:
            self._loops[key] = LoopInfo.compute(fn)
        return self._loops[key]

    def scalar_evolution(self, fn: Function) -> ScalarEvolution:
        key = id(fn)
        if key not in self._scev:
            self._scev[key] = ScalarEvolution(self.loop_info(fn))
        return self._scev[key]

    def users_of(self, value) -> list:
        """All instructions in the module using ``value`` as an operand.

        Phi incoming values are included.  The index is built once and
        reused; analyses must not mutate the module afterwards.
        """
        if not hasattr(self, "_users"):
            users: Dict[int, list] = {}
            for fn in self.module.defined_functions:
                for inst in fn.instructions():
                    for op in inst.operands:
                        users.setdefault(id(op), []).append(inst)
            self._users = users
        return self._users.get(id(value), [])
