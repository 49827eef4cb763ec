"""Reference implementations of the memory-dependence and points-to
profilers, kept only as test oracles.

These are the straightforward versions the production profilers in
``repro.profiling`` replaced: a byte-granular shadow that keeps every
reader since the last write and records each dynamic dependence once
per byte, and a points-to profiler that rebuilds the allocation site
and bumps every active loop's counters on each access.  They are slow
but obviously right, so the differential tests in
``test_profiler_oracles.py`` swap them into ``run_profilers`` and
demand identical profile facts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.interp.hooks import ExecutionListener
from repro.profiling.memdep import MemDepProfile, loop_representative
from repro.profiling.points_to import PointsToProfile, SiteAccessCounts
from repro.profiling.sites import site_of


class _Access:
    """One dynamic access: instruction, calling context, loop context."""

    __slots__ = ("inst", "context", "loop_ctx")

    def __init__(self, inst, context, loop_ctx):
        self.inst = inst
        self.context = context
        self.loop_ctx = loop_ctx


class _ByteState:
    """Last writer and readers-since-write of one byte."""

    __slots__ = ("writer", "readers")

    def __init__(self):
        self.writer: Optional[_Access] = None
        self.readers: List[_Access] = []


class MemDepProfiler(ExecutionListener):
    """Collects a :class:`MemDepProfile` via byte-granular shadow memory."""

    def __init__(self):
        self.profile = MemDepProfile()
        self._shadow: Dict[int, _ByteState] = {}

    # -- event handling ----------------------------------------------------

    def on_load(self, inst, address, size, value, obj, loops, context) -> None:
        loop_ctx = tuple((r.loop, r.invocation, r.iteration) for r in loops)
        access = _Access(inst, context, loop_ctx)
        shadow = self._shadow
        for b in range(address, address + size):
            state = shadow.get(b)
            if state is None:
                state = shadow[b] = _ByteState()
            if state.writer is not None:
                self._record(state.writer, access)
            state.readers.append(access)

    def on_store(self, inst, address, size, value, obj, loops, context) -> None:
        loop_ctx = tuple((r.loop, r.invocation, r.iteration) for r in loops)
        access = _Access(inst, context, loop_ctx)
        shadow = self._shadow
        for b in range(address, address + size):
            state = shadow.get(b)
            if state is None:
                state = shadow[b] = _ByteState()
            else:
                if state.writer is not None:
                    self._record(state.writer, access)
                for reader in state.readers:
                    self._record(reader, access)
            state.writer = access
            state.readers = []

    # -- classification ------------------------------------------------------

    def _record(self, src: _Access, dst: _Access) -> None:
        """Attribute one dynamic dependence to every loop active in both
        accesses within the same invocation."""
        dst_by_loop = {loop: (inv, it) for loop, inv, it in dst.loop_ctx}
        for loop, src_inv, src_it in src.loop_ctx:
            entry = dst_by_loop.get(loop)
            if entry is None:
                continue
            dst_inv, dst_it = entry
            if src_inv != dst_inv:
                continue
            src_inst = loop_representative(src.inst, src.context, loop)
            dst_inst = loop_representative(dst.inst, dst.context, loop)
            if src_inst is None or dst_inst is None:
                continue
            self.profile.observed.setdefault(loop, set()).add(
                (src_inst, dst_inst, src_it != dst_it))


class PointsToProfiler(ExecutionListener):
    """Collects a :class:`PointsToProfile` during interpretation."""

    def __init__(self):
        self.profile = PointsToProfile()

    def on_load(self, inst, address, size, value, obj, loops, context) -> None:
        self._record(inst.pointer, obj, False, loops)

    def on_store(self, inst, address, size, value, obj, loops, context) -> None:
        self._record(inst.pointer, obj, True, loops)

    def _record(self, pointer, obj, is_write, loops) -> None:
        profile = self.profile
        if obj is None:
            profile.escaped[pointer] = True
            return
        site = site_of(obj)
        profile.points_to.setdefault(pointer, set()).add(site)
        for rec in loops:
            per_loop = profile.loop_site_access.setdefault(rec.loop, {})
            counts = per_loop.setdefault(site, SiteAccessCounts())
            if is_write:
                counts.writes += 1
            else:
                counts.reads += 1
