"""Loop-sensitive memory dependence profiler.

The profiler behind the memory-speculation baseline (§5): for every
loop, it records which (source, destination) pairs of static memory
instructions exhibited a flow, anti, or output dependence at runtime,
split into intra-iteration and cross-iteration (loop-carried) cases.
Memory speculation then asserts the absence of every *non-observed*
dependence, at high validation cost.

Accesses performed inside callees are attributed to the callsite
visible in the profiled loop's function, so dependence pairs match
the static instructions a loop-level client queries about.

The shadow memory is access-granular (DESIGN.md §13): a cell holds
one access's byte range, its last writer and the readers since that
write, grouped so that per-location state does not grow with the
number of reads.  It records exactly the dependences a byte-by-byte
shadow that kept every reader would.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis import Loop
from ..interp.hooks import ExecutionListener
from ..interp.memory import MemoryObject
from ..ir import CallInst, Instruction


# (source inst, destination inst, is_cross_iteration)
DepKey = Tuple[Instruction, Instruction, bool]

#: Served for loops with no observed dependence.
_NO_PAIRS: FrozenSet[DepKey] = frozenset()


class MemDepProfile:
    """Observed memory dependences, per loop."""

    def __init__(self):
        self.observed: Dict[Loop, Set[DepKey]] = {}

    def is_observed(self, loop: Loop, src: Instruction, dst: Instruction,
                    cross: bool) -> bool:
        return (src, dst, cross) in self.observed.get(loop, _NO_PAIRS)

    def observed_pairs(self, loop: Loop) -> FrozenSet[DepKey]:
        """A snapshot of the pairs observed in ``loop``."""
        pairs = self.observed.get(loop)
        return _NO_PAIRS if pairs is None else frozenset(pairs)


def loop_representative(inst: Instruction,
                        context: Tuple[CallInst, ...],
                        loop: Loop) -> Optional[Instruction]:
    """The instruction a loop-level client sees for this access: the
    access itself if it lives in the loop's function, else the
    shallowest callsite in the loop's function."""
    fn = loop.function
    if inst.function is fn:
        return inst
    for call in context:
        if call.function is fn:
            return call
    return None


class _Group:
    """An instruction in one calling context under one tuple of active
    ``LoopRecord``s.  Its accesses differ only in iteration numbers."""

    __slots__ = ("context", "records", "reps", "frames")

    def __init__(self, inst, context, records):
        self.context = context
        self.records = records
        loops = [r.loop for r in records]
        # An active loop's function is on the call stack, so every
        # position has a representative.
        self.reps = [loop_representative(inst, context, loop)
                     for loop in loops]
        #: (position, loop, representative) for the positions a
        #: dependence into this group is attributed to: the last
        #: occurrence of each loop, which recursion can repeat.
        self.frames = [(k, loop, self.reps[k])
                       for k, loop in enumerate(loops)
                       if loop not in loops[k + 1:]]


class _Access:
    """One dynamic access context: a group plus the iteration number
    of each of its loops when the access ran."""

    __slots__ = ("group", "iters")

    def __init__(self, group: _Group, iters: List[int]):
        self.group = group
        self.iters = iters


class _Cell:
    """Shadow state shared by every byte of ``[start, end)``: the last
    writer and, per group, the first and latest reader since then."""

    __slots__ = ("start", "end", "writer", "readers")

    def __init__(self, start: int, end: int, writer: Optional[_Access],
                 readers: Dict[_Group, Tuple[_Access, _Access]]):
        self.start = start
        self.end = end
        self.writer = writer
        self.readers = readers


class MemDepProfiler(ExecutionListener):
    """Collects a :class:`MemDepProfile` via access-granular shadow
    memory."""

    def __init__(self):
        self.profile = MemDepProfile()
        # live memory object -> byte address -> the cell holding it
        self._shadow: Dict[MemoryObject, Dict[int, _Cell]] = {}
        # instruction -> its latest access record
        self._last: Dict[Instruction, _Access] = {}

    # -- event handling ----------------------------------------------------

    def on_load(self, inst, address, size, value, obj, loops, context) -> None:
        access = self._access(inst, loops, context)
        shadow = self._shadow.get(obj)
        if shadow is None:
            shadow = self._shadow[obj] = {}
        cell = shadow.get(address)
        if cell is None or cell.start != address \
                or cell.end != address + size:
            self._load_cells(shadow, address, address + size, access)
            return
        if cell.writer is not None:
            self._record(cell.writer, access)
        _add_reader(cell, access)

    def on_store(self, inst, address, size, value, obj, loops, context) -> None:
        access = self._access(inst, loops, context)
        shadow = self._shadow.get(obj)
        if shadow is None:
            shadow = self._shadow[obj] = {}
        cell = shadow.get(address)
        if cell is None or cell.start != address \
                or cell.end != address + size:
            self._store_cells(shadow, address, address + size, access)
            return
        record = self._record
        if cell.writer is not None:
            record(cell.writer, access)
        for first, latest in cell.readers.values():
            record(first, access)
            if latest is not first:
                record(latest, access)
        cell.writer = access
        cell.readers = {}

    def on_free(self, obj, loops) -> None:
        # Addresses are never reused and dead objects cannot be
        # accessed, so their bytes can carry no further dependence.
        self._shadow.pop(obj, None)

    # -- access records ------------------------------------------------------

    def _access(self, inst, loops, context) -> _Access:
        """The record for this dynamic access, reused while the
        instruction's context, loops and iteration numbers stay put."""
        iters = [r.iteration for r in loops]
        last = self._last.get(inst)
        if last is not None:
            group = last.group
            if group.records == loops and group.context == context:
                if last.iters == iters:
                    return last
                access = self._last[inst] = _Access(group, iters)
                return access
        access = self._last[inst] = _Access(_Group(inst, context, loops),
                                            iters)
        return access

    # -- partial overlaps ----------------------------------------------------

    def _load_cells(self, shadow, start: int, end: int,
                    access: _Access) -> None:
        writers: Dict[_Access, None] = {}
        address = start
        while address < end:
            cell = shadow.get(address)
            if cell is None:
                stop = address + 1
                while stop < end and stop not in shadow:
                    stop += 1
                cell = _install(shadow, _Cell(address, stop, None, {}))
            else:
                _trim(shadow, cell, start, end)
                if cell.writer is not None:
                    writers[cell.writer] = None
            _add_reader(cell, access)
            address = cell.end
        for writer in writers:
            self._record(writer, access)

    def _store_cells(self, shadow, start: int, end: int,
                     access: _Access) -> None:
        sources: Dict[_Access, None] = {}
        address = start
        while address < end:
            cell = shadow.get(address)
            if cell is None:
                address += 1
                continue
            _trim(shadow, cell, start, end)
            if cell.writer is not None:
                sources[cell.writer] = None
            for first, latest in cell.readers.values():
                sources[first] = None
                sources[latest] = None
            address = cell.end
        for source in sources:
            self._record(source, access)
        _install(shadow, _Cell(start, end, access, {}))

    # -- classification ------------------------------------------------------

    def _record(self, src: _Access, dst: _Access) -> None:
        """Attribute one dynamic dependence to every loop active in both
        accesses within the same invocation."""
        sgroup, dgroup = src.group, dst.group
        srecs, drecs = sgroup.records, dgroup.records
        # LoopRecords are unique per invocation and a loop stack, so the
        # loops both accesses ran in are a common prefix of the tuples.
        if srecs == drecs:
            shared = len(drecs)
        else:
            shared = 0
            for a, b in zip(srecs, drecs):
                if a is not b:
                    break
                shared += 1
        sreps = sgroup.reps
        siters, diters = src.iters, dst.iters
        observed = self.profile.observed
        for k, loop, drep in dgroup.frames:
            if k >= shared:
                break
            pairs = observed.get(loop)
            if pairs is None:
                pairs = observed[loop] = set()
            pairs.add((sreps[k], drep, siters[k] != diters[k]))


def _add_reader(cell: _Cell, access: _Access) -> None:
    """Keep a group's first and latest reader.  Within one invocation
    iteration numbers only grow, so for any later store these two give
    the group's smallest and largest iteration per loop, which decide
    every cross/intra fact the whole group would."""
    readers = cell.readers
    group = access.group
    seen = readers.get(group)
    if seen is None:
        readers[group] = (access, access)
    elif seen[1] is not access:
        readers[group] = (seen[0], access)


def _install(shadow: Dict[int, _Cell], cell: _Cell) -> _Cell:
    for address in range(cell.start, cell.end):
        shadow[address] = cell
    return cell


def _trim(shadow: Dict[int, _Cell], cell: _Cell, start: int,
          end: int) -> None:
    """Shrink ``cell`` to ``[start, end)``; the bytes it straddles
    outside keep a copy of its state in cells of their own."""
    if cell.start < start:
        _install(shadow, _Cell(cell.start, start, cell.writer,
                               dict(cell.readers)))
        cell.start = start
    if cell.end > end:
        _install(shadow, _Cell(end, cell.end, cell.writer,
                               dict(cell.readers)))
        cell.end = end
