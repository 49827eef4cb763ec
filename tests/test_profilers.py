"""Tests for the five profilers (§4.2.2) and the profile bundle."""

import gc

import pytest

from repro.analysis import AnalysisContext
from repro.interp import make_interpreter
from repro.interp.memory import MemoryObject
from repro.ir import parse_module
from repro.profiling import MemDepProfiler, PointsToProfiler, run_profilers


def profile(text, **kwargs):
    m = parse_module(text)
    ctx = AnalysisContext(m)
    return m, ctx, run_profilers(m, ctx, **kwargs)


BIASED = """
global @flag : i32 = 0
global @x : i32 = 0
global @hits : i32 = 0

func @main() -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %latch]
  %f = load i32* @flag
  %c = icmp ne i32 %f, 0
  condbr i1 %c, %rare, %common
rare:
  store i32 1, i32* @hits
  br %latch
common:
  store i32 %i, i32* @x
  br %latch
latch:
  %i2 = add i32 %i, 1
  %lc = icmp slt i32 %i2, 20
  condbr i1 %lc, %loop, %exit
exit:
  ret i32 0
}
"""


class TestEdgeProfiler:
    def test_block_counts(self):
        m, ctx, p = profile(BIASED)
        fn = m.get_function("main")
        assert p.edge.block_count(fn.get_block("loop")) == 20
        assert p.edge.block_count(fn.get_block("common")) == 20
        assert p.edge.block_count(fn.get_block("rare")) == 0
        assert p.edge.block_count(fn.get_block("exit")) == 1

    def test_dead_blocks(self):
        m, ctx, p = profile(BIASED)
        fn = m.get_function("main")
        dead = p.edge.dead_blocks(fn)
        assert [b.name for b in dead] == ["rare"]

    def test_biased_branches(self):
        m, ctx, p = profile(BIASED)
        fn = m.get_function("main")
        biased = p.edge.biased_branches(fn)
        pairs = {(s.name, d.name) for s, d in biased}
        assert ("loop", "rare") in pairs

    def test_edge_counts(self):
        m, ctx, p = profile(BIASED)
        fn = m.get_function("main")
        assert p.edge.edge_count(fn.get_block("latch"),
                                 fn.get_block("loop")) == 19
        assert p.edge.edge_count(fn.get_block("loop"),
                                 fn.get_block("rare")) == 0

    def test_unexecuted_function_reports_no_dead_blocks(self):
        m, ctx, p = profile("""
func @never() -> i32 {
entry:
  ret i32 1
}
func @main() -> i32 {
entry:
  ret i32 0
}
""")
        assert p.edge.dead_blocks(m.get_function("never")) == []


class TestValueProfiler:
    def test_constant_load_predictable(self):
        m, ctx, p = profile("""
global @cfg : i32 = 11
global @var : i32 = 0
func @main() -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %c = load i32* @cfg
  %v = load i32* @var
  %v2 = add i32 %v, %c
  store i32 %v2, i32* @var
  %i2 = add i32 %i, 1
  %cond = icmp slt i32 %i2, 10
  condbr i1 %cond, %loop, %exit
exit:
  ret i32 0
}
""")
        fn = m.get_function("main")
        loads = [i for i in fn.instructions() if i.opcode == "load"]
        cfg_load = next(l for l in loads if l.name == "c")
        var_load = next(l for l in loads if l.name == "v")
        assert p.value.is_predictable(cfg_load)
        assert p.value.predicted_value(cfg_load) == 11
        assert not p.value.is_predictable(var_load)

    def test_single_execution_not_predictable(self):
        m, ctx, p = profile("""
global @x : i32 = 5
func @main() -> i32 {
entry:
  %v = load i32* @x
  ret i32 %v
}
""")
        load = next(i for i in m.get_function("main").instructions()
                    if i.opcode == "load")
        assert not p.value.is_predictable(load)  # below min_count


class TestPointsToProfiler:
    SOURCE = """
global @a_ptr : i32* = zeroinit
global @b_ptr : i32* = zeroinit
declare @malloc(i64) -> i8*
func @main() -> i32 {
entry:
  %a.raw = call @malloc(i64 64)
  %a = bitcast i8* %a.raw to i32*
  store i32* %a, i32** @a_ptr
  %b.raw = call @malloc(i64 64)
  %b = bitcast i8* %b.raw to i32*
  store i32* %b, i32** @b_ptr
  br %loop
loop:
  %i = phi i64 [0, %entry], [%i2, %loop]
  %ap = load i32** @a_ptr
  %a.slot = gep i32* %ap, i64 %i
  %av = load i32* %a.slot
  %bp = load i32** @b_ptr
  %b.slot = gep i32* %bp, i64 %i
  store i32 %av, i32* %b.slot
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, 8
  condbr i1 %c, %loop, %exit
exit:
  ret i32 0
}
"""

    def test_disjoint_site_sets(self):
        m, ctx, p = profile(self.SOURCE)
        fn = m.get_function("main")
        av = next(i for i in fn.instructions() if i.name == "av")
        store = [i for i in fn.instructions() if i.opcode == "store"][-1]
        s1 = p.points_to.sites_of(av.pointer)
        s2 = p.points_to.sites_of(store.pointer)
        assert s1 and s2
        anchors1 = {s.anchor for s in s1}
        anchors2 = {s.anchor for s in s2}
        assert not (anchors1 & anchors2)

    def test_read_only_sites(self):
        m, ctx, p = profile(self.SOURCE)
        fn = m.get_function("main")
        loop = ctx.loop_info(fn).loops[0]
        ro = p.points_to.read_only_sites(loop)
        a_raw = next(i for i in fn.instructions() if i.name == "a.raw")
        b_raw = next(i for i in fn.instructions() if i.name == "b.raw")
        ro_anchors = {s.anchor for s in ro}
        assert a_raw in ro_anchors       # only read inside the loop
        assert b_raw not in ro_anchors   # written inside the loop


class TestResidueProfiler:
    def test_disjoint_residues(self):
        m, ctx, p = profile("""
declare @malloc(i64) -> i8*
func @main() -> i32 {
entry:
  %raw = call @malloc(i64 128)
  %base = bitcast i8* %raw to f64*
  br %loop
loop:
  %i = phi i64 [0, %entry], [%i2, %loop]
  %even.i = mul i64 %i, 2
  %odd.i = add i64 %even.i, 1
  %e.slot = gep f64* %base, i64 %even.i
  %ev = load f64* %e.slot
  %o.slot = gep f64* %base, i64 %odd.i
  store f64 %ev, f64* %o.slot
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, 8
  condbr i1 %c, %loop, %exit
exit:
  ret i32 0
}
""")
        fn = m.get_function("main")
        ev = next(i for i in fn.instructions() if i.name == "ev")
        st = [i for i in fn.instructions() if i.opcode == "store"][-1]
        # 16-byte stride keeps even slots at residue 0, odd at 8.
        assert p.residue.residue_set(ev.pointer) == {0}
        assert p.residue.residue_set(st.pointer) == {8}
        assert p.residue.disjoint(ev.pointer, 8, st.pointer, 8)
        assert not p.residue.disjoint(ev.pointer, 8, st.pointer, 9)

    def test_unprofiled_is_not_disjoint(self):
        m, ctx, p = profile("""
func @main() -> i32 {
entry:
  ret i32 0
}
""")
        from repro.ir import GlobalVariable, I32
        g = GlobalVariable("x", I32)
        assert not p.residue.disjoint(g, 4, g, 4)


class TestLifetimeProfiler:
    def test_short_lived_site(self):
        m, ctx, p = profile("""
declare @malloc(i64) -> i8*
declare @free(i8*) -> void
func @main() -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %raw = call @malloc(i64 16)
  %ptr = bitcast i8* %raw to i32*
  store i32 %i, i32* %ptr
  call @free(i8* %raw)
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 10
  condbr i1 %c, %loop, %exit
exit:
  ret i32 0
}
""")
        fn = m.get_function("main")
        loop = ctx.loop_info(fn).loops[0]
        sl = p.lifetime.short_lived_sites(loop)
        raw = next(i for i in fn.instructions() if i.name == "raw")
        assert raw in {s.anchor for s in sl}

    def test_surviving_object_disqualified(self):
        m, ctx, p = profile("""
declare @malloc(i64) -> i8*
declare @free(i8*) -> void
global @keep : i8* = zeroinit
func @main() -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %raw = call @malloc(i64 16)
  store i8* %raw, i8** @keep
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 10
  condbr i1 %c, %loop, %exit
exit:
  %last = load i8** @keep
  call @free(i8* %last)
  ret i32 0
}
""")
        fn = m.get_function("main")
        loop = ctx.loop_info(fn).loops[0]
        assert p.lifetime.short_lived_sites(loop) == set()


class TestMemDepProfiler:
    ACCUMULATE = """
global @acc : i32 = 0
func @main() -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %v = load i32* @acc
  %v2 = add i32 %v, %i
  store i32 %v2, i32* @acc
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 5
  condbr i1 %c, %loop, %exit
exit:
  ret i32 0
}
"""

    def test_cross_iteration_dependence_observed(self):
        m, ctx, p = profile(self.ACCUMULATE)
        fn = m.get_function("main")
        loop = ctx.loop_info(fn).loops[0]
        load = next(i for i in fn.instructions() if i.name == "v")
        store = next(i for i in fn.instructions() if i.opcode == "store")
        # store in iteration k feeds the load in iteration k+1.
        assert p.memdep.is_observed(loop, store, load, cross=True)
        # load before store in the same iteration: anti dependence.
        assert p.memdep.is_observed(loop, load, store, cross=False)
        # no intra-iteration flow (load precedes store).
        assert not p.memdep.is_observed(loop, store, load, cross=False)

    def test_observed_pairs_cannot_change_the_profile(self):
        m, ctx, p = profile(self.ACCUMULATE)
        fn = m.get_function("main")
        loop = ctx.loop_info(fn).loops[0]
        load = next(i for i in fn.instructions() if i.name == "v")
        store = next(i for i in fn.instructions() if i.opcode == "store")
        pairs = p.memdep.observed_pairs(loop)
        assert isinstance(pairs, frozenset)
        assert (store, load, True) in pairs
        with pytest.raises(AttributeError):
            pairs.add((store, load, False))
        pairs |= {(store, load, False)}
        assert not p.memdep.is_observed(loop, store, load, cross=False)
        assert (store, load, False) not in p.memdep.observed_pairs(loop)
        # Loops without dependences share one empty snapshot.
        assert p.memdep.observed_pairs(None) == frozenset()
        assert p.memdep.observed_pairs(None) is \
            p.memdep.observed_pairs(object())

    def test_disjoint_accesses_not_observed(self):
        m, ctx, p = profile("""
global @a : [8 x i32] = zeroinit
global @b : [8 x i32] = zeroinit
func @main() -> i32 {
entry:
  br %loop
loop:
  %i = phi i64 [0, %entry], [%i2, %loop]
  %pa = gep [8 x i32]* @a, i64 0, i64 %i
  %v = load i32* %pa
  %pb = gep [8 x i32]* @b, i64 0, i64 %i
  store i32 %v, i32* %pb
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, 8
  condbr i1 %c, %loop, %exit
exit:
  ret i32 0
}
""")
        fn = m.get_function("main")
        loop = ctx.loop_info(fn).loops[0]
        load = next(i for i in fn.instructions() if i.name == "v")
        store = next(i for i in fn.instructions() if i.opcode == "store")
        assert not p.memdep.is_observed(loop, load, store, cross=False)
        assert not p.memdep.is_observed(loop, store, load, cross=True)

    def test_callee_access_attributed_to_callsite(self):
        m, ctx, p = profile("""
global @g : i32 = 0
func @bump() -> void {
entry:
  %v = load i32* @g
  %v2 = add i32 %v, 1
  store i32 %v2, i32* @g
  ret
}
func @main() -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  call @bump()
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 5
  condbr i1 %c, %loop, %exit
exit:
  ret i32 0
}
""")
        fn = m.get_function("main")
        loop = ctx.loop_info(fn).loops[0]
        call = next(i for i in fn.instructions() if i.opcode == "call")
        # The callee's store->load chain appears as a call->call
        # self-dependence at loop level.
        assert p.memdep.is_observed(loop, call, call, cross=True)


def _run_listeners(text, compile_, *listeners):
    module = parse_module(text)
    interp = make_interpreter(module, AnalysisContext(module),
                              compile=compile_)
    for listener in listeners:
        interp.add_listener(listener)
    interp.run("main")
    return listeners


_CONTAINERS = (dict, list, tuple, set, frozenset)


def _owned(profiler):
    """The containers and profiler-defined objects reachable from
    ``profiler``, and the memory objects they reference.  IR and
    interpreter objects are not followed."""
    owned, memory = {}, {}
    stack = [profiler]
    while stack:
        obj = stack.pop()
        if id(obj) in owned:
            continue
        owned[id(obj)] = obj
        for ref in gc.get_referents(obj):
            if isinstance(ref, MemoryObject):
                memory[id(ref)] = ref
            elif isinstance(ref, _CONTAINERS) or \
                    type(ref).__module__.startswith("repro.profiling"):
                stack.append(ref)
    return list(owned.values()), list(memory.values())


class TestBoundedProfilerState:
    """Profiler state is bounded by the program's static structure, not
    by how often an access runs or how many objects die."""

    READS = """
global @g : i64 = 7
func @main() -> i64 {{
entry:
  br %loop
loop:
  %i = phi i64 [0, %entry], [%i2, %loop]
  %v = load i64* @g
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, {trips}
  condbr i1 %c, %loop, %exit
exit:
  ret i64 %v
}}
"""

    CHURN = """
declare @malloc(i64) -> i8*
declare @free(i8*) -> void
func @spill(i64 %k) -> i64 {{
entry:
  %s = alloca [4 x i64]
  %p = gep [4 x i64]* %s, i64 0, i64 1
  store i64 %k, i64* %p
  %v = load i64* %p
  ret i64 %v
}}
func @main() -> i64 {{
entry:
  br %heap
heap:
  %i = phi i64 [0, %entry], [%i2, %heap]
  %raw = call @malloc(i64 32)
  %h = bitcast i8* %raw to i64*
  store i64 %i, i64* %h
  %hv = load i64* %h
  call @free(i8* %raw)
  %i2 = add i64 %i, 1
  %ic = icmp slt i64 %i2, {trips}
  condbr i1 %ic, %heap, %stack.pre
stack.pre:
  br %stack
stack:
  %j = phi i64 [0, %stack.pre], [%j2, %stack]
  %sv = call @spill(i64 %j)
  %j2 = add i64 %j, 1
  %jc = icmp slt i64 %j2, {trips}
  condbr i1 %jc, %stack, %exit
exit:
  ret i64 0
}}
"""

    @pytest.mark.parametrize("compile_", [False, True],
                             ids=["tree", "compiled"])
    def test_repeated_reads_keep_two_readers(self, compile_):
        sizes = []
        for trips in (10, 10_000):
            (memdep,) = _run_listeners(self.READS.format(trips=trips),
                                       compile_, MemDepProfiler())
            owned, _ = _owned(memdep)
            # The read group's first and latest access, nothing more.
            accesses = [o for o in owned if type(o).__name__ == "_Access"]
            assert len(accesses) <= 2
            sizes.append(len(owned))
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("compile_", [False, True],
                             ids=["tree", "compiled"])
    def test_released_objects_leave_no_state(self, compile_):
        sizes = []
        for trips in (10, 10_000):
            profilers = _run_listeners(self.CHURN.format(trips=trips),
                                       compile_, MemDepProfiler(),
                                       PointsToProfiler())
            counts = []
            for profiler in profilers:
                owned, memory = _owned(profiler)
                assert memory == []
                counts.append(len(owned))
            sizes.append(counts)
        assert sizes[0] == sizes[1]


class TestBundle:
    def test_bundle_fields(self):
        m, ctx, p = profile(BIASED)
        assert p.total_instructions > 0
        assert p.exit_value == 0
        assert p.loop_stats
