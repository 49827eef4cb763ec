"""CallsiteSummaryAA: interprocedural mod/ref via callee summaries.

Summarizes the memory footprint of defined callees bottom-up
(globals, argument-reachable memory, modeled library state) and
compares it against the other query subject with premise alias
queries — a *factored* module in CAF's semi-local/depth-combinator
spirit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...core.module import AnalysisModule, Resolver
from ...ir import (
    AllocaInst,
    Argument,
    CallInst,
    Function,
    GlobalVariable,
    Instruction,
    LoadInst,
    StoreInst,
    Value,
)
from ...query import (
    AliasQuery,
    AliasResult,
    MemoryLocation,
    ModRefQuery,
    ModRefResult,
    OptionSet,
    QueryResponse,
)
from .common import strip_pointer
from .stdlib import STDLIB_MODELS

#: A defined function with a chain of this many calls to defined
#: functions below it is summarized as unbounded.
MAX_SUMMARY_DEPTH = 3


@dataclass(frozen=True)
class FootprintItem:
    """One summarized access: a root, an access mode, and a size.

    ``root_kind`` is "global" (root: GlobalVariable), "arg" (root:
    parameter index), or "state" (root: hidden library state name).
    ``size`` 0 means unknown extent within the rooted object.
    """

    root_kind: str
    root: object
    mode: str  # "mod" | "ref"
    size: int = 0


#: ``(items, height)``; ``items`` is None when unbounded.
Summary = Tuple[Optional[List[FootprintItem]], int]


class CallsiteSummaryAA(AnalysisModule):
    """Disproves the *update* condition of §2.1 across calls."""

    name = "callsite-summary-aa"

    def __init__(self, context, profiles=None):
        super().__init__(context, profiles)
        #: By function.  A summary depends on its function alone, so
        #: the memo is kept across loops.
        self._summaries: Dict[int, Summary] = {}

    # -- summaries ------------------------------------------------------------

    def summarize(self, fn: Function) -> Optional[List[FootprintItem]]:
        """The function's footprint items, or None if unbounded."""
        return self._summary(fn)[0]

    def _summary(self, fn: Function) -> Summary:
        """``(items, height)``, where the height is the length of the
        longest chain of calls to defined functions below ``fn``
        (declarations do not count)."""
        key = id(fn)
        summary = self._summaries.get(key)
        if summary is None:
            self._summaries[key] = (None, 0)  # cut recursion conservatively
            summary = self._summaries[key] = self._summarize(fn)
        return summary

    def _summarize(self, fn: Function) -> Summary:
        if fn.is_declaration:
            model = STDLIB_MODELS.get(fn.name)
            if model is None:
                return None, 0
            items = [FootprintItem("state", model.state, "mod")] \
                if model.state else []
            for access in model.accesses:
                items.append(FootprintItem("arg", access.arg_index,
                                           access.mode))
            return items, 0

        items: List[FootprintItem] = []
        height = 0
        for inst in fn.instructions():
            if isinstance(inst, (LoadInst, StoreInst)):
                pointer = inst.pointer
                mode = "mod" if isinstance(inst, StoreInst) else "ref"
                item = self._root_item(fn, pointer, mode, inst.access_size)
                if item is None:
                    return None, 0
                if item is not _SKIP:
                    items.append(item)
            elif isinstance(inst, CallInst):
                sub, sub_height = self._summary(inst.callee)
                if sub is None:
                    return None, 0
                if not inst.callee.is_declaration:
                    height = max(height, sub_height + 1)
                    if height >= MAX_SUMMARY_DEPTH:
                        return None, 0
                for item in sub:
                    mapped = self._map_through_call(fn, inst, item)
                    if mapped is None:
                        return None, 0
                    if mapped is not _SKIP:
                        items.append(mapped)
        return items, height

    def _root_item(self, fn: Function, pointer: Value, mode: str,
                   size: int):
        base, offset = strip_pointer(pointer)
        if isinstance(base, GlobalVariable):
            return FootprintItem("global", base, mode,
                                 size if offset is not None else 0)
        if isinstance(base, Argument) and base.function is fn:
            return FootprintItem("arg", base.index, mode)
        if isinstance(base, AllocaInst):
            return _SKIP  # callee-local storage, invisible to the caller
        return None  # loaded pointers, phis, fresh heap: give up

    def _map_through_call(self, fn: Function, call: CallInst,
                          item: FootprintItem):
        """Translate a callee footprint item into the caller's terms."""
        if item.root_kind in ("global", "state"):
            return item
        actual = call.args[item.root]
        base, _ = strip_pointer(actual)
        if isinstance(base, GlobalVariable):
            return FootprintItem("global", base, item.mode)
        if isinstance(base, Argument) and base.function is fn:
            return FootprintItem("arg", base.index, item.mode)
        if isinstance(base, AllocaInst):
            # Caller-local storage handed to the callee: root it at the
            # alloca via a query-time location (kept as a global-like
            # item holding the Value itself).
            return FootprintItem("value", base, item.mode)
        return None

    # -- queries ---------------------------------------------------------------

    def modref(self, query: ModRefQuery, resolver: Resolver) -> QueryResponse:
        i1 = query.inst
        i2 = query.target

        call = i1 if isinstance(i1, CallInst) else None
        if call is None and isinstance(i2, CallInst):
            call = i2
        if call is None:
            return QueryResponse.mod_ref()

        items = self._call_items(call)
        if items is None:
            return QueryResponse.free(self.intrinsic_capability(i1))

        if call is i1:
            other_items = self._subject_items(i2)
        else:
            other_items = self._subject_items(i1)
        if other_items is None:
            return QueryResponse.free(self.intrinsic_capability(i1))

        if call is i1:
            return self._compare(items, other_items, query, resolver,
                                 subject_is_call=True)
        return self._compare(other_items, items, query, resolver,
                             subject_is_call=False)

    def _call_items(self, call: CallInst
                    ) -> Optional[List[Tuple[FootprintItem, MemoryLocation]]]:
        summary = self.summarize(call.callee)
        if summary is None:
            return None
        resolved = []
        for item in summary:
            if item.root_kind == "state":
                resolved.append((item, None))
            elif item.root_kind == "global":
                resolved.append(
                    (item, MemoryLocation(item.root, item.size)))
            elif item.root_kind == "value":
                resolved.append((item, MemoryLocation(item.root, 0)))
            else:  # "arg": map through this callsite
                actual = call.args[item.root]
                if not actual.type.is_pointer:
                    continue
                resolved.append((item, MemoryLocation(actual, 0)))
        return resolved

    def _subject_items(self, subject
                       ) -> Optional[List[Tuple[FootprintItem,
                                                Optional[MemoryLocation]]]]:
        if isinstance(subject, MemoryLocation):
            return [(FootprintItem("value", subject.pointer, "modref"),
                     subject)]
        if isinstance(subject, CallInst):
            return self._call_items(subject)
        if isinstance(subject, Instruction):
            loc = self.footprint(subject)
            if loc is None:
                return None
            mode = "mod" if subject.writes_memory else "ref"
            return [(FootprintItem("value", loc.pointer, mode, loc.size),
                     loc)]
        return None

    def _compare(self, items1, items2, query: ModRefQuery,
                 resolver: Resolver, subject_is_call: bool) -> QueryResponse:
        """Join the pairwise interactions of two footprint lists.

        The result describes what the *first* subject (query.inst) may
        do to the second subject's memory.
        """
        mod = False
        ref = False
        options = OptionSet.free()
        for item1, loc1 in items1:
            for item2, loc2 in items2:
                interacts, opts = self._interact(item1, loc1, item2, loc2,
                                                 query, resolver)
                # Options from speculative no-interaction proofs must
                # be carried even when the pair is discounted.
                options = options * opts
                if options.is_empty:
                    return QueryResponse.mod_ref()
                if not interacts:
                    continue
                if item1.mode in ("mod", "modref"):
                    mod = True
                if item1.mode in ("ref", "modref"):
                    ref = True
        if not mod and not ref:
            return QueryResponse(ModRefResult.NO_MOD_REF, options)
        if mod and ref:
            return QueryResponse.mod_ref()
        return QueryResponse(ModRefResult.MOD if mod else ModRefResult.REF,
                             options)

    def _interact(self, item1: FootprintItem, loc1: Optional[MemoryLocation],
                  item2: FootprintItem, loc2: Optional[MemoryLocation],
                  query: ModRefQuery, resolver: Resolver
                  ) -> Tuple[bool, OptionSet]:
        """(may-interact, assertions backing a no-interaction proof)."""
        # Two reads never produce a dependence.
        if item1.mode == "ref" and item2.mode == "ref":
            return False, OptionSet.free()
        if item1.root_kind == "state" or item2.root_kind == "state":
            if item1.root_kind == "state" and item2.root_kind == "state":
                return item1.root == item2.root, OptionSet.free()
            return False, OptionSet.free()  # library state is private
        if loc1 is None or loc2 is None:
            return True, OptionSet.free()
        premise = AliasQuery(loc1, query.relation, loc2, query.loop,
                             query.context, query.cfg,
                             desired=AliasResult.NO_ALIAS)
        answer = resolver.premise(premise)
        if answer.result is AliasResult.NO_ALIAS:
            return False, answer.options
        return True, OptionSet.free()


_SKIP = object()
