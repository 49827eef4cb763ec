"""Pointer-to-object profiler.

Produces the points-to map of separation speculation (§4.2.2-iii):
for every memory instruction, the set of allocation sites its pointer
resolved to at runtime; plus, per loop, per-site read/write counts
(the raw material of the read-only module, §4.2.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis import Loop
from ..interp.hooks import ExecutionListener
from ..interp.memory import MemoryObject
from ..ir import Value
from .sites import AllocationSite, site_of


class SiteAccessCounts:
    """Read/write counters for one allocation site within one loop."""

    __slots__ = ("reads", "writes")

    def __init__(self):
        self.reads = 0
        self.writes = 0


class PointsToProfile:
    """Observed points-to sets and per-loop object access behaviour."""

    def __init__(self):
        # pointer SSA value -> set of allocation sites it resolved to
        self.points_to: Dict[Value, Set[AllocationSite]] = {}
        # pointer SSA value -> True once it missed every known object
        self.escaped: Dict[Value, bool] = {}
        # loop -> site -> counters
        self.loop_site_access: Dict[Loop, Dict[AllocationSite,
                                               SiteAccessCounts]] = {}

    # -- queries ------------------------------------------------------------

    def sites_of(self, pointer: Value) -> Optional[Set[AllocationSite]]:
        """The observed site set, or None if unprofiled/unreliable."""
        if self.escaped.get(pointer):
            return None
        return self.points_to.get(pointer)

    def read_only_sites(self, loop: Loop) -> Set[AllocationSite]:
        """Sites accessed in ``loop`` whose objects were never written there."""
        per_loop = self.loop_site_access.get(loop, {})
        return {site for site, counts in per_loop.items()
                if counts.writes == 0 and counts.reads > 0}

    def accessed_sites(self, loop: Loop) -> Set[AllocationSite]:
        return set(self.loop_site_access.get(loop, {}))


class _SiteTally:
    """Per allocation site: the pointers already known to reach it and
    read/write counts per static loop nest, expanded by ``finish``."""

    __slots__ = ("site", "pointers", "counts")

    def __init__(self, site: AllocationSite):
        self.site = site
        self.pointers: Set[Value] = set()
        self.counts: Dict[Tuple[Loop, ...], List[int]] = {}


class PointsToProfiler(ExecutionListener):
    """Collects a :class:`PointsToProfile` during interpretation."""

    def __init__(self):
        self.profile = PointsToProfile()
        self._tallies: Dict[AllocationSite, _SiteTally] = {}
        # live memory object -> the tally of its allocation site
        self._objects: Dict[MemoryObject, _SiteTally] = {}
        # (loop nest, site, [reads, writes]) in first-access order
        self._counts: List[Tuple[Tuple[Loop, ...], AllocationSite,
                                 List[int]]] = []
        # the last LoopRecord tuple seen and its static loop nest
        self._records: tuple = ()
        self._nest: Tuple[Loop, ...] = ()

    def on_load(self, inst, address, size, value, obj, loops, context) -> None:
        self._access(inst.pointer, obj, loops, 0)

    def on_store(self, inst, address, size, value, obj, loops, context) -> None:
        self._access(inst.pointer, obj, loops, 1)

    def on_free(self, obj, loops) -> None:
        self._objects.pop(obj, None)

    def _access(self, pointer: Value, obj: Optional[MemoryObject], loops,
                column: int) -> None:
        if obj is None:
            self.profile.escaped[pointer] = True
            return
        tally = self._objects.get(obj)
        if tally is None:
            site = site_of(obj)
            tally = self._tallies.get(site)
            if tally is None:
                tally = self._tallies[site] = _SiteTally(site)
            self._objects[obj] = tally
        if pointer not in tally.pointers:
            tally.pointers.add(pointer)
            sites = self.profile.points_to.get(pointer)
            if sites is None:
                sites = self.profile.points_to[pointer] = set()
            sites.add(tally.site)
        if not loops:
            return
        if loops != self._records:
            self._records = loops
            self._nest = tuple([r.loop for r in loops])
        counts = tally.counts.get(self._nest)
        if counts is None:
            counts = tally.counts[self._nest] = [0, 0]
            self._counts.append((self._nest, tally.site, counts))
        counts[column] += 1

    def finish(self) -> None:
        """Add the per-nest counts to every loop of each nest, in the
        order the loops and sites were first accessed."""
        loop_site_access = self.profile.loop_site_access
        for nest, site, (reads, writes) in self._counts:
            for loop in nest:
                counts = loop_site_access.setdefault(loop, {}).setdefault(
                    site, SiteAccessCounts())
                counts.reads += reads
                counts.writes += writes
        self._counts = []
        for tally in self._tallies.values():
            tally.counts = {}
