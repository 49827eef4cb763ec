"""Function-at-a-time compilation of verified IR to Python closures.

The tree-walking :class:`~repro.interp.interpreter.Interpreter` pays,
on every dynamic instruction, a type dispatch, an ``id()``-keyed
register dict lookup per operand, and an O(active-loop-depth)
accounting walk.  This module removes all three by compiling each
function once into *threaded code*:

- every instruction becomes one pre-bound closure ``step(st, regs)``
  with its operands resolved at compile time to dense register slots
  (``regs`` is a plain list) and constants folded into the closure;
- every CFG edge becomes a precomputed :class:`EdgePlan` — how many
  loops to pop, whether the edge is the innermost loop's back edge,
  which loops it enters (outermost first), the phi parallel copy as
  one closure, and the target block index — derived once by
  symbolically simulating the tree-walker's ``_update_loops`` over
  the static loop nest;
- per-loop dynamic instruction counts become *depth deltas*: a loop
  records ``steps`` at entry and adds ``steps - mark`` at exit,
  instead of every instruction touching every active loop;
- hook emission snapshots, per event, the listeners that actually
  override the event method, so unobserved events cost one falsy
  check.

The compiled engine (:class:`CompiledInterpreter`) is a drop-in
subclass of ``Interpreter``: same memory model, same builtins, same
event stream, bit-identical profile facts.  The tree-walker remains
the differential-testing oracle.  Modules whose CFG breaks the
static loop-transition invariant (or that use a construct this
compiler does not model) raise :class:`CompileError`; callers fall
back to the tree-walker.
"""

from __future__ import annotations

import operator
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis import AnalysisContext, Loop, LoopInfo
from ..ir import (
    AllocaInst,
    ArrayType,
    BasicBlock,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    Constant,
    FCmpInst,
    FloatType,
    Function,
    GEPInst,
    GlobalVariable,
    ICmpInst,
    IntType,
    LoadInst,
    Module,
    NullPointer,
    PhiInst,
    PointerType,
    ReturnInst,
    SelectInst,
    StoreInst,
    StructType,
    SwitchInst,
    UndefValue,
    UnreachableInst,
)
from ..ir.values import _wrap_int
from .hooks import ExecutionListener, LoopRecord
from .interpreter import (
    _CMP_OPS,
    _FLOAT_OPS,
    _INT_OPS,
    Interpreter,
    InterpreterError,
    LoopStats,
    _Exit,
)


class CompileError(Exception):
    """The module uses a construct the closure compiler cannot model;
    callers must fall back to the tree-walking interpreter."""


# -- compiled artifacts -------------------------------------------------------

class EdgePlan:
    """Everything one CFG edge does, resolved at compile time."""

    __slots__ = ("from_bb", "to_bb", "pops", "backedge", "enters",
                 "phis", "target")

    def __init__(self, from_bb: BasicBlock, to_bb: BasicBlock, pops: int,
                 backedge: bool, enters: Tuple[Loop, ...],
                 phis: Optional[Callable], target: int):
        self.from_bb = from_bb
        self.to_bb = to_bb
        self.pops = pops            # loops exited on this edge
        self.backedge = backedge    # iterates the innermost active loop
        self.enters = enters        # loops entered, outermost first
        self.phis = phis            # parallel-copy closure or None
        self.target = target        # block index in CompiledFunction.blocks


class _CBlock:
    """One compiled basic block: straight-line closures + terminator."""

    __slots__ = ("steps", "term", "step_count")

    def __init__(self, steps: Tuple[Callable, ...], term: Callable,
                 step_count: int):
        self.steps = steps
        self.term = term
        self.step_count = step_count   # non-phi instructions, prepaid


class CompiledFunction:
    __slots__ = ("function", "blocks", "entry_index", "n_slots",
                 "arg_slots", "entry_enters")

    def __init__(self, function: Function, blocks: List[_CBlock],
                 entry_index: int, n_slots: int,
                 arg_slots: Tuple[int, ...],
                 entry_enters: Tuple[Loop, ...]):
        self.function = function
        self.blocks = blocks
        self.entry_index = entry_index
        self.n_slots = n_slots
        self.arg_slots = arg_slots
        self.entry_enters = entry_enters


class CompiledModule:
    """All defined functions of one module, compiled against one
    analysis context (loop identity must match the context used for
    ``loop_stats`` keys)."""

    __slots__ = ("module", "analysis", "functions", "global_names")

    def __init__(self, module: Module, analysis: AnalysisContext,
                 functions: Dict[str, CompiledFunction],
                 global_names: Tuple[str, ...]):
        self.module = module
        self.analysis = analysis
        self.functions = functions
        self.global_names = global_names


def compile_module(module: Module,
                   analysis: AnalysisContext) -> CompiledModule:
    """Compile every defined function, memoized on the context.

    The artifact is cached on the :class:`AnalysisContext` (one
    context per prepared module), so daemon/queue workers keep
    compiled functions warm across batches for the lifetime of the
    prepared-module cache entry.
    """
    cached = getattr(analysis, "_compiled_module", None)
    if cached is not None and cached.module is module:
        return cached
    compiled = _compile_module(module, analysis)
    analysis._compiled_module = compiled
    return compiled


def cached_compiled_module(analysis: AnalysisContext
                           ) -> Optional[CompiledModule]:
    """The artifact a previous :func:`compile_module` left on this
    context, if any (observability / cache-warmth assertions)."""
    return getattr(analysis, "_compiled_module", None)


def _compile_module(module: Module,
                    analysis: AnalysisContext) -> CompiledModule:
    global_names = tuple(module.globals)
    global_slots = {name: i for i, name in enumerate(global_names)}
    functions: Dict[str, CompiledFunction] = {}
    # Call closures resolve their target CompiledFunction through a
    # one-element cell patched after every function has compiled, so
    # mutual recursion needs no runtime dict lookups.
    link_cells: List[Tuple[List, Function]] = []
    for fn in module.functions.values():
        if fn.is_declaration:
            continue
        functions[fn.name] = _FunctionCompiler(
            fn, analysis.loop_info(fn), global_slots, link_cells).compile()
    for cell, callee in link_cells:
        target = functions.get(callee.name)
        if target is None:
            raise CompileError(
                f"call to uncompiled function @{callee.name}")
        cell[0] = target
    return CompiledModule(module, analysis, functions, global_names)


# -- per-function compilation -------------------------------------------------

_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


class _FunctionCompiler:
    def __init__(self, fn: Function, info: LoopInfo,
                 global_slots: Dict[str, int],
                 link_cells: List[Tuple[List, Function]]):
        self.fn = fn
        self.info = info
        self.global_slots = global_slots
        self.link_cells = link_cells
        self.slots: Dict[int, int] = {}       # id(value) -> dense slot
        self.n_slots = 0

    # -- slots and operands ----------------------------------------------

    def _slot(self, value) -> int:
        key = id(value)
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = self.n_slots
            self.n_slots += 1
        return slot

    def _resolve(self, value) -> Tuple[str, object]:
        """Operand -> ("c", constant) | ("s", slot) | ("g", gslot)."""
        if isinstance(value, Constant):
            return "c", value.value
        if isinstance(value, (NullPointer, UndefValue)):
            return "c", 0
        if isinstance(value, GlobalVariable):
            try:
                return "g", self.global_slots[value.name]
            except KeyError:
                raise CompileError(f"unknown global @{value.name}")
        return "s", self._slot(value)

    def _getter(self, value) -> Callable:
        kind, payload = self._resolve(value)
        if kind == "s":
            slot = payload
            def get(st, regs):
                return regs[slot]
        elif kind == "c":
            const = payload
            def get(st, regs):
                return const
        else:
            gslot = payload
            def get(st, regs):
                return st._gvals[gslot]
        return get

    # -- driver -----------------------------------------------------------

    def compile(self) -> CompiledFunction:
        fn = self.fn
        blocks = fn.blocks
        index_of = {id(bb): i for i, bb in enumerate(blocks)}
        # Deterministic slot order: arguments first, then every value-
        # producing instruction in program order.
        arg_slots = tuple(self._slot(arg) for arg in fn.args)
        for bb in blocks:
            for inst in bb.instructions:
                if not inst.type.is_void and not inst.is_terminator:
                    self._slot(inst)

        compiled_blocks: List[_CBlock] = []
        entry = fn.entry
        if entry.phis:
            raise CompileError(f"phi in entry block of @{fn.name}")
        for bb in blocks:
            compiled_blocks.append(self._compile_block(bb, index_of))
        entry_enters = tuple(self._chain(entry))
        return CompiledFunction(fn, compiled_blocks, index_of[id(entry)],
                                self.n_slots, arg_slots, entry_enters)

    def _compile_block(self, bb: BasicBlock, index_of) -> _CBlock:
        insts = bb.instructions
        term = bb.terminator
        if term is None:
            raise CompileError(
                f"no terminator in %{bb.name} of @{self.fn.name}")
        phis = bb.phis
        # The tree-walker resumes at index len(phis): phis must be a
        # contiguous leading prefix for the step count to be exact.
        for inst in insts[len(phis):]:
            if isinstance(inst, PhiInst):
                raise CompileError(
                    f"phi after non-phi in %{bb.name} of @{self.fn.name}")
        steps = tuple(self._compile_inst(inst)
                      for inst in insts[len(phis):-1])
        term_fn = self._compile_terminator(bb, term, index_of)
        return _CBlock(steps, term_fn, len(insts) - len(phis))

    # -- loop transitions -------------------------------------------------

    def _chain(self, bb: BasicBlock) -> List[Loop]:
        """Loops containing ``bb``, outermost first."""
        chain: List[Loop] = []
        loop = self.info.innermost_loop_of(bb)
        while loop is not None:
            chain.append(loop)
            loop = loop.parent
        chain.reverse()
        return chain

    def _edge_plan(self, from_bb: BasicBlock, to_bb: BasicBlock,
                   index_of) -> EdgePlan:
        """Symbolically simulate ``Interpreter._update_loops`` on the
        invariant "frame-local active loops == loop chain of the
        current block", and verify the invariant is re-established.
        If it is not (pathological loop structure), the whole module
        falls back to the tree-walker."""
        sim = self._chain(from_bb)
        pops = 0
        while sim and to_bb not in sim[-1].blocks:
            sim.pop()
            pops += 1
        backedge = bool(sim) and sim[-1].header is to_bb \
            and from_bb in sim[-1].blocks
        enters: Tuple[Loop, ...] = ()
        if not backedge:
            active = set(sim)
            pending: List[Loop] = []
            loop = self.info.innermost_loop_of(to_bb)
            while loop is not None and loop not in active:
                pending.append(loop)
                loop = loop.parent
            enters = tuple(reversed(pending))
        if sim + list(enters) != self._chain(to_bb):
            raise CompileError(
                f"loop-transition invariant broken on "
                f"%{from_bb.name} -> %{to_bb.name} in @{self.fn.name}")
        return EdgePlan(from_bb, to_bb, pops, backedge, enters,
                        self._compile_phis(from_bb, to_bb),
                        index_of[id(to_bb)])

    def _compile_phis(self, from_bb: BasicBlock,
                      to_bb: BasicBlock) -> Optional[Callable]:
        phis = to_bb.phis
        if not phis:
            return None
        pairs = [(self._getter(phi.incoming_for(from_bb)), self._slot(phi))
                 for phi in phis]
        if len(pairs) == 1:
            get, dst = pairs[0]
            def copy(st, regs):
                regs[dst] = get(st, regs)
            return copy
        getters = tuple(p[0] for p in pairs)
        dsts = tuple(p[1] for p in pairs)
        def copy(st, regs):
            values = [get(st, regs) for get in getters]
            for dst, value in zip(dsts, values):
                regs[dst] = value
        return copy

    # -- terminators ------------------------------------------------------

    def _compile_terminator(self, bb: BasicBlock, term, index_of):
        if isinstance(term, ReturnInst):
            if term.value is None:
                def ret(st, regs):
                    st._ret = None
                    return None
                return ret
            kind, payload = self._resolve(term.value)
            if kind == "s":
                slot = payload
                def ret(st, regs):
                    st._ret = regs[slot]
                    return None
                return ret
            get = self._getter(term.value)
            def ret(st, regs):
                st._ret = get(st, regs)
                return None
            return ret
        if isinstance(term, BranchInst):
            plan = self._edge_plan(bb, term.target, index_of)
            def br(st, regs):
                return plan
            return br
        if isinstance(term, CondBranchInst):
            tplan = self._edge_plan(bb, term.true_target, index_of)
            fplan = self._edge_plan(bb, term.false_target, index_of)
            kind, payload = self._resolve(term.condition)
            if kind == "s":
                slot = payload
                def condbr(st, regs):
                    return tplan if regs[slot] else fplan
                return condbr
            get = self._getter(term.condition)
            def condbr(st, regs):
                return tplan if get(st, regs) else fplan
            return condbr
        if isinstance(term, SwitchInst):
            # The tree-walker scans cases in order; first match wins,
            # so earlier duplicates shadow later ones in the table.
            table: Dict[int, EdgePlan] = {}
            for case_value, target in term.cases:
                if case_value not in table:
                    table[case_value] = self._edge_plan(bb, target,
                                                        index_of)
            default = self._edge_plan(bb, term.default_target, index_of)
            get = self._getter(term.value)
            table_get = table.get
            def switch(st, regs):
                return table_get(int(get(st, regs)), default)
            return switch
        if isinstance(term, UnreachableInst):
            message = f"reached 'unreachable' in @{self.fn.name}"
            def unreachable(st, regs):
                raise InterpreterError(message)
            return unreachable
        raise CompileError(f"cannot compile terminator {term.opcode}")

    # -- straight-line instructions ---------------------------------------

    def _compile_inst(self, inst) -> Callable:
        if isinstance(inst, BinaryInst):
            return self._compile_binary(inst)
        if isinstance(inst, LoadInst):
            return self._compile_load(inst)
        if isinstance(inst, StoreInst):
            return self._compile_store(inst)
        if isinstance(inst, GEPInst):
            return self._compile_gep(inst)
        if isinstance(inst, ICmpInst):
            return self._compile_icmp(inst)
        if isinstance(inst, FCmpInst):
            return self._compile_fcmp(inst)
        if isinstance(inst, CastInst):
            return self._compile_cast(inst)
        if isinstance(inst, CallInst):
            return self._compile_call(inst)
        if isinstance(inst, AllocaInst):
            return self._compile_alloca(inst)
        if isinstance(inst, SelectInst):
            return self._compile_select(inst)
        raise CompileError(f"cannot compile {inst.opcode}")

    def _compile_binary(self, inst: BinaryInst) -> Callable:
        op = inst.op
        dst = self._slot(inst)
        if op.startswith("f"):
            try:
                fop = _FLOAT_OPS[op]
            except KeyError:
                raise CompileError(f"unknown float op {op}")
            ga = self._getter(inst.lhs)
            gb = self._getter(inst.rhs)
            def step(st, regs):
                regs[dst] = fop(ga(st, regs), gb(st, regs))
            return step
        is_int = isinstance(inst.type, IntType)
        bits = inst.type.bits if is_int else 64
        ka, va = self._resolve(inst.lhs)
        kb, vb = self._resolve(inst.rhs)
        if is_int and op in _ARITH:
            # The hot three get fully inlined wrap-to-width closures.
            fop = _ARITH[op]
            mask = (1 << bits) - 1
            sign = (1 << (bits - 1)) if bits > 1 else 0
            span = 1 << bits
            if ka == "s" and kb == "s":
                def step(st, regs):
                    v = fop(regs[va], regs[vb]) & mask
                    regs[dst] = v - span if v & sign else v
                return step
            if ka == "s" and kb == "c":
                def step(st, regs):
                    v = fop(regs[va], vb) & mask
                    regs[dst] = v - span if v & sign else v
                return step
            if ka == "c" and kb == "s":
                def step(st, regs):
                    v = fop(va, regs[vb]) & mask
                    regs[dst] = v - span if v & sign else v
                return step
        try:
            iop = _INT_OPS[op]
        except KeyError:
            raise CompileError(f"unknown int op {op}")
        ga = self._getter(inst.lhs)
        gb = self._getter(inst.rhs)
        if is_int:
            def step(st, regs):
                regs[dst] = _wrap_int(
                    iop(int(ga(st, regs)), int(gb(st, regs)), bits), bits)
        else:
            def step(st, regs):
                regs[dst] = iop(int(ga(st, regs)), int(gb(st, regs)), bits)
        return step

    def _compile_icmp(self, inst: ICmpInst) -> Callable:
        pred = inst.predicate
        try:
            cmp = _CMP_OPS[pred]
        except KeyError:
            raise CompileError(f"unknown icmp predicate {pred}")
        dst = self._slot(inst)
        ka, va = self._resolve(inst.lhs)
        kb, vb = self._resolve(inst.rhs)
        if pred.startswith("u"):
            bits = inst.lhs.type.bits \
                if isinstance(inst.lhs.type, IntType) else 64
            mask = (1 << bits) - 1
            if ka == "s" and kb == "s":
                def step(st, regs):
                    regs[dst] = 1 if cmp(regs[va] & mask,
                                         regs[vb] & mask) else 0
                return step
            ga = self._getter(inst.lhs)
            gb = self._getter(inst.rhs)
            def step(st, regs):
                regs[dst] = 1 if cmp(int(ga(st, regs)) & mask,
                                     int(gb(st, regs)) & mask) else 0
            return step
        if ka == "s" and kb == "s":
            def step(st, regs):
                regs[dst] = 1 if cmp(regs[va], regs[vb]) else 0
            return step
        if ka == "s" and kb == "c":
            const = int(vb)
            def step(st, regs):
                regs[dst] = 1 if cmp(regs[va], const) else 0
            return step
        if ka == "c" and kb == "s":
            const = int(va)
            def step(st, regs):
                regs[dst] = 1 if cmp(const, regs[vb]) else 0
            return step
        ga = self._getter(inst.lhs)
        gb = self._getter(inst.rhs)
        def step(st, regs):
            regs[dst] = 1 if cmp(int(ga(st, regs)), int(gb(st, regs))) else 0
        return step

    def _compile_fcmp(self, inst: FCmpInst) -> Callable:
        try:
            cmp = _CMP_OPS[inst.predicate]
        except KeyError:
            raise CompileError(
                f"unknown fcmp predicate {inst.predicate}")
        dst = self._slot(inst)
        ga = self._getter(inst.lhs)
        gb = self._getter(inst.rhs)
        def step(st, regs):
            regs[dst] = 1 if cmp(float(ga(st, regs)),
                                 float(gb(st, regs))) else 0
        return step

    def _compile_cast(self, inst: CastInst) -> Callable:
        op = inst.op
        dst = self._slot(inst)
        get = self._getter(inst.value)
        if op in ("bitcast", "ptrtoint", "inttoptr", "sext"):
            def step(st, regs):
                regs[dst] = int(get(st, regs))
            return step
        if op == "zext":
            smask = (1 << inst.value.type.bits) - 1
            def step(st, regs):
                regs[dst] = int(get(st, regs)) & smask
            return step
        if op in ("trunc", "fptosi"):
            bits = inst.type.bits
            mask = (1 << bits) - 1
            sign = (1 << (bits - 1)) if bits > 1 else 0
            span = 1 << bits
            def step(st, regs):
                v = int(get(st, regs)) & mask
                regs[dst] = v - span if v & sign else v
            return step
        if op == "sitofp":
            def step(st, regs):
                regs[dst] = float(int(get(st, regs)))
            return step
        if op in ("fpext", "fptrunc"):
            def step(st, regs):
                regs[dst] = float(get(st, regs))
            return step
        raise CompileError(f"cannot compile cast {op}")

    def _compile_select(self, inst: SelectInst) -> Callable:
        dst = self._slot(inst)
        gc = self._getter(inst.condition)
        gt = self._getter(inst.true_value)
        gf = self._getter(inst.false_value)
        def step(st, regs):
            regs[dst] = gt(st, regs) if gc(st, regs) else gf(st, regs)
        return step

    def _compile_gep(self, inst: GEPInst) -> Callable:
        dst = self._slot(inst)
        ty = inst.pointer.type
        const_off = 0
        terms: List[Tuple[str, object, int]] = []
        for i, idx in enumerate(inst.indices):
            if i == 0:
                scale = ty.pointee.size
                ty = ty.pointee
            elif isinstance(ty, ArrayType):
                scale = ty.element.size
                ty = ty.element
            elif isinstance(ty, StructType):
                kind, payload = self._resolve(idx)
                if kind != "c":
                    raise CompileError(
                        f"non-constant struct index in {inst.ref}")
                field = int(payload)
                const_off += ty.field_offset(field)
                ty = ty.fields[field]
                continue
            else:
                raise CompileError(f"bad gep through {ty!r}")
            kind, payload = self._resolve(idx)
            if kind == "c":
                const_off += int(payload) * scale
            else:
                terms.append((kind, payload, scale))
        kb, vb = self._resolve(inst.pointer)
        if not terms:
            get_base = self._getter(inst.pointer)
            off = const_off
            def step(st, regs):
                regs[dst] = get_base(st, regs) + off
            return step
        if len(terms) == 1 and terms[0][0] == "s" and kb == "s":
            _, islot, scale = terms[0]
            base = vb
            off = const_off
            def step(st, regs):
                regs[dst] = regs[base] + regs[islot] * scale + off
            return step
        get_base = self._getter(inst.pointer)
        getters = tuple((self._getter_raw(kind, payload), scale)
                        for kind, payload, scale in terms)
        off = const_off
        def step(st, regs):
            addr = get_base(st, regs) + off
            for get, scale in getters:
                addr += int(get(st, regs)) * scale
            regs[dst] = addr
        return step

    def _getter_raw(self, kind: str, payload) -> Callable:
        if kind == "s":
            slot = payload
            def get(st, regs):
                return regs[slot]
        elif kind == "c":
            const = payload
            def get(st, regs):
                return const
        else:
            gslot = payload
            def get(st, regs):
                return st._gvals[gslot]
        return get

    def _compile_load(self, inst: LoadInst) -> Callable:
        dst = self._slot(inst)
        get_ptr = self._getter(inst.pointer)
        ty = inst.type
        size = ty.size
        if isinstance(ty, IntType):
            bits = ty.bits
            mask = (1 << bits) - 1
            sign = (1 << (bits - 1)) if bits > 1 else 0
            span = 1 << bits
            from_bytes = int.from_bytes
            def step(st, regs):
                addr = get_ptr(st, regs)
                obj = st.memory.check(addr, size)
                off = addr - obj.base
                v = from_bytes(obj.data[off:off + size], "little") & mask
                if v & sign:
                    v -= span
                regs[dst] = v
                hs = st._on_load
                if hs:
                    lt, ct = st._ltuple, st._ctx_tuple
                    for h in hs:
                        h(inst, addr, size, v, obj, lt, ct)
            return step
        if isinstance(ty, FloatType):
            fmt = "<f" if ty.bits == 32 else "<d"
            unpack_from = struct.unpack_from
            def step(st, regs):
                addr = get_ptr(st, regs)
                obj = st.memory.check(addr, size)
                v = unpack_from(fmt, obj.data, addr - obj.base)[0]
                regs[dst] = v
                hs = st._on_load
                if hs:
                    lt, ct = st._ltuple, st._ctx_tuple
                    for h in hs:
                        h(inst, addr, size, v, obj, lt, ct)
            return step
        if isinstance(ty, PointerType):
            from_bytes = int.from_bytes
            def step(st, regs):
                addr = get_ptr(st, regs)
                obj = st.memory.check(addr, size)
                off = addr - obj.base
                v = from_bytes(obj.data[off:off + size], "little")
                regs[dst] = v
                hs = st._on_load
                if hs:
                    lt, ct = st._ltuple, st._ctx_tuple
                    for h in hs:
                        h(inst, addr, size, v, obj, lt, ct)
            return step
        raise CompileError(f"cannot compile load of {ty!r}")

    def _compile_store(self, inst: StoreInst) -> Callable:
        get_ptr = self._getter(inst.pointer)
        get_val = self._getter(inst.value)
        ty = inst.value.type
        size = ty.size
        if isinstance(ty, IntType):
            nbytes = max(1, ty.bits // 8)
            mask = (1 << ty.bits) - 1
            def step(st, regs):
                addr = get_ptr(st, regs)
                v = get_val(st, regs)
                obj = st.memory.check(addr, nbytes)
                off = addr - obj.base
                obj.data[off:off + nbytes] = \
                    (v & mask).to_bytes(nbytes, "little")
                hs = st._on_store
                if hs:
                    lt, ct = st._ltuple, st._ctx_tuple
                    for h in hs:
                        h(inst, addr, size, v, obj, lt, ct)
            return step
        if isinstance(ty, FloatType):
            fmt = "<f" if ty.bits == 32 else "<d"
            pack_into = struct.pack_into
            def step(st, regs):
                addr = get_ptr(st, regs)
                v = get_val(st, regs)
                obj = st.memory.check(addr, size)
                pack_into(fmt, obj.data, addr - obj.base, float(v))
                hs = st._on_store
                if hs:
                    lt, ct = st._ltuple, st._ctx_tuple
                    for h in hs:
                        h(inst, addr, size, v, obj, lt, ct)
            return step
        if isinstance(ty, PointerType):
            def step(st, regs):
                addr = get_ptr(st, regs)
                v = get_val(st, regs)
                obj = st.memory.check(addr, 8)
                off = addr - obj.base
                obj.data[off:off + 8] = int(v).to_bytes(8, "little")
                hs = st._on_store
                if hs:
                    lt, ct = st._ltuple, st._ctx_tuple
                    for h in hs:
                        h(inst, addr, size, v, obj, lt, ct)
            return step
        raise CompileError(f"cannot compile store of {ty!r}")

    def _compile_alloca(self, inst: AllocaInst) -> Callable:
        dst = self._slot(inst)
        size = inst.allocated_type.size
        def step(st, regs):
            obj = st.memory.allocate(size, "stack", site=inst,
                                     context=st._ctx_tuple)
            st._frame_objs.append(obj)
            regs[dst] = obj.base
            hs = st._on_alloc
            if hs:
                lt = st._ltuple
                for h in hs:
                    h(obj, lt)
        return step

    def _compile_call(self, inst: CallInst) -> Callable:
        callee = inst.callee
        if not isinstance(callee, Function):
            raise CompileError(f"indirect call in {inst.ref}")
        getters = tuple(self._getter(a) for a in inst.args)
        void = inst.type.is_void
        dst = None if void else self._slot(inst)
        if callee.is_declaration:
            def step(st, regs):
                args = [get(st, regs) for get in getters]
                result = st._call_builtin(callee, args, inst)
                if dst is not None:
                    regs[dst] = result
            return step
        cell: List = [None]
        self.link_cells.append((cell, callee))
        def step(st, regs):
            args = [get(st, regs) for get in getters]
            result = st._call_compiled(cell[0], callee, args, inst)
            if dst is not None:
                regs[dst] = result
        return step


# -- the compiled engine ------------------------------------------------------

#: Events the engine snapshots override-lists for at run() time.
_EVENTS = ("on_edge", "on_load", "on_store", "on_alloc", "on_free",
           "on_loop_enter", "on_loop_iterate", "on_loop_exit",
           "on_call", "on_return")


class CompiledInterpreter(Interpreter):
    """Executes compiled closures; observably identical to the
    tree-walker (events, profile facts, errors, exit codes)."""

    def __init__(self, module: Module,
                 analysis: Optional[AnalysisContext] = None,
                 max_steps: int = 50_000_000,
                 compiled: Optional[CompiledModule] = None):
        super().__init__(module, analysis, max_steps)
        if compiled is not None and compiled.analysis is not self.analysis:
            raise CompileError("compiled module built for a different "
                               "analysis context")
        self.compiled = compiled or compile_module(module, self.analysis)
        self._gvals: List[int] = []
        self._ctx_list: List[CallInst] = []
        self._ctx_tuple: Tuple[CallInst, ...] = ()
        self._ltuple: Tuple[LoopRecord, ...] = ()
        self._stats_stack: List[LoopStats] = []
        self._marks: List[int] = []
        self._frame_objs: List = []
        self._depth = 0
        self._ret = None
        for event in _EVENTS:
            setattr(self, "_" + event, ())

    # -- public API -------------------------------------------------------

    def run(self, entry: str = "main",
            args: Sequence[Union[int, float]] = ()) -> Union[int, float, None]:
        if entry not in self.module.functions:
            raise InterpreterError(f"no function @{entry}")
        fn = self.module.functions[entry]
        if fn.is_declaration:
            raise InterpreterError(f"@{entry} is a declaration")
        self._initialize_globals()
        self._gvals = [self._global_addrs[name]
                       for name in self.compiled.global_names]
        self._snapshot_listeners()
        try:
            cfn = self.compiled.functions[fn.name]
            result = self._call_compiled(cfn, fn, list(args), None)
        except _Exit as e:
            self.exit_code = e.code
            return e.code
        return result

    def calling_context(self) -> Tuple[CallInst, ...]:
        return self._ctx_tuple

    def loop_context(self) -> Tuple[LoopRecord, ...]:
        return self._ltuple

    # -- listener snapshot ------------------------------------------------

    def _snapshot_listeners(self) -> None:
        """Per event, the bound methods of listeners that actually
        override it — base-class methods are no-ops, so skipping them
        is observably identical and makes unobserved events one falsy
        check."""
        for event in _EVENTS:
            base = getattr(ExecutionListener, event)
            bound = tuple(getattr(l, event) for l in self.hooks.listeners
                          if getattr(type(l), event, None) is not base)
            setattr(self, "_" + event, bound)

    # -- calls ------------------------------------------------------------

    def _call_compiled(self, cfn: CompiledFunction, fn: Function,
                       args: List, call_inst: Optional[CallInst]):
        if self._depth > 200:
            raise InterpreterError("call stack overflow")
        regs = [0] * cfn.n_slots
        for slot, value in zip(cfn.arg_slots, args):
            regs[slot] = value
        if call_inst is not None:
            self._ctx_list.append(call_inst)
            self._ctx_tuple = tuple(self._ctx_list)
        loop_base = len(self._active_loops)
        prev_objs = self._frame_objs
        objs = self._frame_objs = []
        self._depth += 1
        hs = self._on_call
        if hs:
            for h in hs:
                h(call_inst, fn)
        if cfn.entry_enters:
            self._push_loops(cfn.entry_enters)
        try:
            result = self._run_blocks(cfn, regs)
        finally:
            active = self._active_loops
            if len(active) > loop_base:
                self._pop_loops(len(active) - loop_base)
            if objs:
                release = self.memory.release
                fh = self._on_free
                lt = self._ltuple
                for obj in objs:
                    release(obj)
                    if fh:
                        for h in fh:
                            h(obj, lt)
            self._frame_objs = prev_objs
            self._depth -= 1
            if call_inst is not None:
                self._ctx_list.pop()
                self._ctx_tuple = tuple(self._ctx_list)
        hs = self._on_return
        if hs:
            for h in hs:
                h(fn)
        return result

    # -- the dispatch loop ------------------------------------------------

    def _run_blocks(self, cfn: CompiledFunction, regs: List):
        blocks = cfn.blocks
        max_steps = self.max_steps
        index = cfn.entry_index
        while True:
            block = blocks[index]
            # Prepay the whole block: enter/exit marks always fall on
            # block boundaries, so depth-delta accounting stays exact.
            self.steps = steps = self.steps + block.step_count
            if steps > max_steps:
                raise InterpreterError(
                    f"step limit exceeded ({max_steps})")
            for step in block.steps:
                step(self, regs)
            plan = block.term(self, regs)
            if plan is None:
                return self._ret
            hs = self._on_edge
            if hs:
                for h in hs:
                    h(plan.from_bb, plan.to_bb)
            if plan.pops:
                self._pop_loops(plan.pops)
            if plan.backedge:
                rec = self._active_loops[-1]
                rec.iteration += 1
                self._stats_stack[-1].iterations += 1
                hs = self._on_loop_iterate
                if hs:
                    for h in hs:
                        h(rec)
            elif plan.enters:
                self._push_loops(plan.enters)
            copy = plan.phis
            if copy is not None:
                copy(self, regs)
            index = plan.target

    # -- loop bookkeeping -------------------------------------------------

    def _push_loops(self, loops: Tuple[Loop, ...]) -> None:
        active = self._active_loops
        stats_stack = self._stats_stack
        marks = self._marks
        loop_stats = self.loop_stats
        hs = self._on_loop_enter
        for loop in loops:
            stats = loop_stats.get(loop)
            if stats is None:
                stats = loop_stats[loop] = LoopStats()
            stats.invocations += 1
            stats.iterations += 1  # the first iteration
            rec = LoopRecord(loop, stats.invocations)
            active.append(rec)
            stats_stack.append(stats)
            marks.append(self.steps)
            if hs:
                for h in hs:
                    h(rec)
        self._ltuple = tuple(active)

    def _pop_loops(self, count: int) -> None:
        active = self._active_loops
        stats_stack = self._stats_stack
        marks = self._marks
        steps = self.steps
        hs = self._on_loop_exit
        for _ in range(count):
            rec = active.pop()
            stats_stack.pop().dynamic_insts += steps - marks.pop()
            if hs:
                for h in hs:
                    h(rec)
        self._ltuple = tuple(active)


# -- construction helper ------------------------------------------------------

def make_interpreter(module: Module,
                     analysis: Optional[AnalysisContext] = None,
                     max_steps: int = 50_000_000,
                     compile: bool = True) -> Interpreter:
    """The execution engine for one run.

    ``compile=False`` selects the tree-walking interpreter, the oracle
    the compiled engine is tested against; an uncompilable module
    silently falls back to it (the two are observably identical,
    compilation is purely a speed choice)."""
    if compile:
        analysis = analysis or AnalysisContext(module)
        try:
            return CompiledInterpreter(module, analysis,
                                       max_steps=max_steps)
        except CompileError:
            pass
    return Interpreter(module, analysis, max_steps=max_steps)
