"""Tests for the 13 memory-analysis modules on crafted IR."""

import pytest

from repro.analysis import AnalysisContext
from repro.core import NullResolver, Orchestrator, OrchestratorConfig
from repro.ir import parse_module
from repro.modules.memory import (
    BasicAA,
    CallsiteSummaryAA,
    FieldMallocAA,
    GlobalMallocAA,
    InductionVariableAA,
    KillFlowAA,
    NoCaptureGlobalAA,
    NoCaptureSourceAA,
    ReachabilityAA,
    ScalarEvolutionAA,
    StdLibAA,
    TypeBasedFieldAA,
    UniqueAccessPathsAA,
    default_memory_modules,
)
from repro.modules.memory.callsite import FootprintItem
from repro.query import (
    AliasQuery,
    AliasResult,
    CFGView,
    MemoryLocation,
    ModRefQuery,
    ModRefResult,
    TemporalRelation,
)

NULL = NullResolver()


def setup(text):
    m = parse_module(text)
    ctx = AnalysisContext(m)
    fn = m.defined_functions[0]
    values = {}
    for f in m.defined_functions:
        for i in f.instructions():
            if i.name:
                values[i.name] = i
    return m, ctx, fn, values


def aq(loc1, loc2, loop=None, relation=TemporalRelation.SAME, cfg=None,
       desired=None):
    return AliasQuery(loc1, relation, loc2, loop, (), cfg, desired)


def loc(v, size=4):
    return MemoryLocation(v, size)


class TestBasicAA:
    SOURCE = """
global @a : i32 = 0
global @b : i32 = 0
global @arr : [10 x i32] = zeroinit
declare @malloc(i64) -> i8*
func @f(i32* %unknown) -> i32 {
entry:
  %s = alloca i32
  %s2 = alloca i32
  %p0 = gep [10 x i32]* @arr, i64 0, i64 0
  %p1 = gep [10 x i32]* @arr, i64 0, i64 1
  %h = call @malloc(i64 16)
  ret i32 0
}
"""

    def test_distinct_globals(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = BasicAA(ctx)
        r = aa.alias(aq(loc(m.get_global("a")), loc(m.get_global("b"))), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_same_global(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = BasicAA(ctx)
        g = m.get_global("a")
        r = aa.alias(aq(loc(g), loc(g)), NULL)
        assert r.result is AliasResult.MUST_ALIAS

    def test_distinct_allocas(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = BasicAA(ctx)
        r = aa.alias(aq(loc(v["s"]), loc(v["s2"])), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_global_vs_alloca_vs_heap(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = BasicAA(ctx)
        g = loc(m.get_global("a"))
        assert aa.alias(aq(g, loc(v["s"])), NULL).result \
            is AliasResult.NO_ALIAS
        assert aa.alias(aq(g, loc(v["h"])), NULL).result \
            is AliasResult.NO_ALIAS
        assert aa.alias(aq(loc(v["s"]), loc(v["h"])), NULL).result \
            is AliasResult.NO_ALIAS

    def test_disjoint_constant_offsets(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = BasicAA(ctx)
        r = aa.alias(aq(loc(v["p0"]), loc(v["p1"])), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_overlapping_offsets(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = BasicAA(ctx)
        r = aa.alias(aq(loc(v["p0"], 8), loc(v["p1"], 8)), NULL)
        assert r.result is AliasResult.PARTIAL_ALIAS

    def test_contained_interval_is_subalias(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = BasicAA(ctx)
        r = aa.alias(aq(loc(v["p0"], 8), loc(v["p1"], 4)), NULL)
        assert r.result is AliasResult.SUB_ALIAS

    def test_contained_offsets_subalias(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = BasicAA(ctx)
        r = aa.alias(aq(loc(v["p1"], 4), loc(v["p0"], 12)), NULL)
        assert r.result is AliasResult.SUB_ALIAS

    def test_unknown_pointer_conservative(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = BasicAA(ctx)
        unknown = fn.args[0]
        r = aa.alias(aq(loc(unknown), loc(m.get_global("a"))), NULL)
        assert r.result is AliasResult.MAY_ALIAS


class TestTypeBasedFieldAA:
    SOURCE = """
struct %node { i32, f64, i32 }
func @f(%node* %p, %node* %q) -> i32 {
entry:
  %f0 = gep %node* %p, i64 0, i64 0
  %f1 = gep %node* %q, i64 0, i64 1
  %f2 = gep %node* %q, i64 0, i64 0
  ret i32 0
}
"""

    def test_distinct_fields_no_alias(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = TypeBasedFieldAA(ctx)
        r = aa.alias(aq(loc(v["f0"], 4), loc(v["f1"], 8)), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_same_field_may_alias(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = TypeBasedFieldAA(ctx)
        r = aa.alias(aq(loc(v["f0"], 4), loc(v["f2"], 4)), NULL)
        assert r.result is AliasResult.MAY_ALIAS

    def test_oversized_access_conservative(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = TypeBasedFieldAA(ctx)
        # 8-byte access through a 4-byte field spills into neighbours.
        r = aa.alias(aq(loc(v["f0"], 8), loc(v["f1"], 8)), NULL)
        assert r.result is AliasResult.MAY_ALIAS


class TestFieldMallocAA:
    SOURCE = """
declare @malloc(i64) -> i8*
func @f() -> i32 {
entry:
  %h1 = call @malloc(i64 32)
  %h2 = call @malloc(i64 32)
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  %fresh = call @malloc(i64 8)
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, 4
  condbr i1 %c, %loop, %out
out:
  ret i32 0
}
"""

    def test_distinct_callsites(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = FieldMallocAA(ctx)
        r = aa.alias(aq(loc(v["h1"]), loc(v["h2"])), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_same_callsite_cross_iteration_fresh(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = FieldMallocAA(ctx)
        loop = ctx.loop_info(fn).loops[0]
        r = aa.alias(aq(loc(v["fresh"]), loc(v["fresh"]), loop=loop,
                        relation=TemporalRelation.BEFORE), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_same_callsite_same_iteration_may(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = FieldMallocAA(ctx)
        loop = ctx.loop_info(fn).loops[0]
        r = aa.alias(aq(loc(v["fresh"]), loc(v["fresh"]), loop=loop), NULL)
        assert r.result is AliasResult.MAY_ALIAS


STRIDED = """
global @arr : [100 x i32] = zeroinit
func @f() -> i32 {
entry:
  br %loop
loop:
  %i = phi i64 [0, %entry], [%i.next, %loop]
  %two.i = mul i64 %i, 2
  %two.i1 = add i64 %two.i, 1
  %even = gep [100 x i32]* @arr, i64 0, i64 %two.i
  %ev = load i32* %even
  %odd = gep [100 x i32]* @arr, i64 0, i64 %two.i1
  store i32 %ev, i32* %odd
  %same = gep [100 x i32]* @arr, i64 0, i64 %i
  %sv = load i32* %same
  store i32 %sv, i32* %same
  %i.next = add i64 %i, 1
  %c = icmp slt i64 %i.next, 40
  condbr i1 %c, %loop, %out
out:
  ret i32 0
}
"""


class TestScalarEvolutionAA:
    def test_interleaved_strides_no_alias_same_iteration(self):
        m, ctx, fn, v = setup(STRIDED)
        aa = ScalarEvolutionAA(ctx)
        loop = ctx.loop_info(fn).loops[0]
        r = aa.alias(aq(loc(v["even"]), loc(v["odd"]), loop=loop), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_interleaved_strides_no_alias_cross_iteration(self):
        m, ctx, fn, v = setup(STRIDED)
        aa = ScalarEvolutionAA(ctx)
        loop = ctx.loop_info(fn).loops[0]
        r = aa.alias(aq(loc(v["even"]), loc(v["odd"]), loop=loop,
                        relation=TemporalRelation.BEFORE), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_same_affine_function_must_alias(self):
        m, ctx, fn, v = setup(STRIDED)
        aa = ScalarEvolutionAA(ctx)
        loop = ctx.loop_info(fn).loops[0]
        r = aa.alias(aq(loc(v["same"]), loc(v["same"]), loop=loop), NULL)
        assert r.result is AliasResult.MUST_ALIAS

    def test_unit_stride_cross_iteration_overlap(self):
        """a[2i] in iteration k vs a[2i+1] in a later iteration can
        collide (2k+1 == 2j for no integers, but 2k vs 2j+1 ... the
        odd/even split holds across iterations; use the self pair)."""
        m, ctx, fn, v = setup(STRIDED)
        aa = ScalarEvolutionAA(ctx)
        loop = ctx.loop_info(fn).loops[0]
        # same slot, unit stride: iteration k and k+1 do not collide
        r = aa.alias(aq(loc(v["same"]), loc(v["same"]), loop=loop,
                        relation=TemporalRelation.BEFORE), NULL)
        assert r.result is AliasResult.NO_ALIAS


class TestInductionVariableAA:
    def test_same_pointer_cross_iteration(self):
        m, ctx, fn, v = setup(STRIDED)
        aa = InductionVariableAA(ctx)
        loop = ctx.loop_info(fn).loops[0]
        r = aa.alias(aq(loc(v["even"]), loc(v["even"]), loop=loop,
                        relation=TemporalRelation.BEFORE), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_same_iteration_not_handled(self):
        m, ctx, fn, v = setup(STRIDED)
        aa = InductionVariableAA(ctx)
        loop = ctx.loop_info(fn).loops[0]
        r = aa.alias(aq(loc(v["even"]), loc(v["even"]), loop=loop), NULL)
        assert r.result is AliasResult.MAY_ALIAS


class TestKillFlowAA:
    SOURCE = """
global @a : i32 = 0
global @b : i32 = 0
func @f() -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %loop]
  store i32 %i, i32* @a
  %v = load i32* @a
  store i32 %v, i32* @b
  %i2 = add i32 %i, 1
  store i32 %i2, i32* @a
  %c = icmp slt i32 %i2, 9
  condbr i1 %c, %loop, %out
out:
  ret i32 0
}
"""

    def _setup(self):
        m, ctx, fn, v = setup(self.SOURCE)
        loop = ctx.loop_info(fn).loops[0]
        cfg = CFGView.static(ctx, fn)
        stores = [i for i in fn.instructions() if i.opcode == "store"]
        kill, load = stores[0], v["v"]
        last_store = stores[2]
        # Collaboration: must-alias premises answered by BasicAA.
        orch = Orchestrator([BasicAA(ctx), KillFlowAA(ctx)],
                            OrchestratorConfig(use_cache=False))
        return m, ctx, fn, loop, cfg, kill, load, last_store, orch

    def test_cross_iteration_flow_killed(self):
        m, ctx, fn, loop, cfg, kill, load, last_store, orch = self._setup()
        q = ModRefQuery(last_store, TemporalRelation.BEFORE, load, loop,
                        (), cfg)
        r = orch.handle(q)
        assert r.result is ModRefResult.NO_MOD_REF

    def test_intra_iteration_flow_not_killed(self):
        m, ctx, fn, loop, cfg, kill, load, last_store, orch = self._setup()
        # kill store -> load in the same iteration: direct flow, no
        # intervening store.
        q = ModRefQuery(kill, TemporalRelation.SAME, load, loop, (), cfg)
        r = orch.handle(q)
        assert r.result is not ModRefResult.NO_MOD_REF

    def test_different_location_not_killed(self):
        m, ctx, fn, loop, cfg, kill, load, last_store, orch = self._setup()
        b_store = [i for i in fn.instructions() if i.opcode == "store"][1]
        # store @b in iter k vs store @b in iter k+1: output dep, the
        # @a kills are irrelevant.
        q = ModRefQuery(b_store, TemporalRelation.BEFORE, b_store, loop,
                        (), cfg)
        r = orch.handle(q)
        assert r.result is not ModRefResult.NO_MOD_REF

    def test_intra_iteration_killed_on_all_paths(self):
        m, ctx, fn, v = setup("""
global @a : i32 = 0
func @g() -> i32 {
entry:
  store i32 1, i32* @a
  store i32 2, i32* @a
  %v = load i32* @a
  ret i32 %v
}
""")
        cfg = CFGView.static(ctx, fn)
        stores = [i for i in fn.instructions() if i.opcode == "store"]
        orch = Orchestrator([BasicAA(ctx), KillFlowAA(ctx)],
                            OrchestratorConfig(use_cache=False))
        q = ModRefQuery(stores[0], TemporalRelation.SAME, v["v"], None,
                        (), cfg)
        assert orch.handle(q).result is ModRefResult.NO_MOD_REF


class TestReachabilityAA:
    SOURCE = """
global @a : i32 = 0
global @b : i32 = 0
func @f(i1 %c) -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %join]
  condbr i1 %c, %left, %right
left:
  store i32 1, i32* @a
  br %join
right:
  %v = load i32* @a
  br %join
join:
  %i2 = add i32 %i, 1
  %lc = icmp slt i32 %i2, 5
  condbr i1 %lc, %loop, %out
out:
  ret i32 0
}
"""

    def test_no_intra_iteration_path_between_branch_arms(self):
        m, ctx, fn, v = setup(self.SOURCE)
        loop = ctx.loop_info(fn).loops[0]
        cfg = CFGView.static(ctx, fn)
        aa = ReachabilityAA(ctx)
        store = next(i for i in fn.instructions() if i.opcode == "store")
        load = v["v"]
        r = aa.modref(ModRefQuery(store, TemporalRelation.SAME, load,
                                  loop, (), cfg), NULL)
        assert r.result is ModRefResult.NO_MOD_REF

    def test_cross_iteration_path_exists(self):
        m, ctx, fn, v = setup(self.SOURCE)
        loop = ctx.loop_info(fn).loops[0]
        cfg = CFGView.static(ctx, fn)
        aa = ReachabilityAA(ctx)
        store = next(i for i in fn.instructions() if i.opcode == "store")
        r = aa.modref(ModRefQuery(store, TemporalRelation.BEFORE, v["v"],
                                  loop, (), cfg), NULL)
        assert r.result is ModRefResult.MOD_REF  # path via back edge

    def test_sequential_order_no_backwards_path(self):
        m, ctx, fn, v = setup("""
global @a : i32 = 0
func @g() -> i32 {
entry:
  %v = load i32* @a
  store i32 1, i32* @a
  ret i32 %v
}
""")
        cfg = CFGView.static(ctx, fn)
        aa = ReachabilityAA(ctx)
        store = next(i for i in fn.instructions() if i.opcode == "store")
        # Dependence store -> load needs a path; the store is after.
        r = aa.modref(ModRefQuery(store, TemporalRelation.SAME, v["v"],
                                  None, (), cfg), NULL)
        assert r.result is ModRefResult.NO_MOD_REF


class TestCaptureModules:
    SOURCE = """
global @priv : i32 = 0
global @leaked : i32 = 0
global @sink : i32* = zeroinit
declare @malloc(i64) -> i8*
func @f(i32* %unknown) -> i32 {
entry:
  store i32 1, i32* @priv
  store i32* @leaked, i32** @sink
  %h = call @malloc(i64 8)
  %hp = bitcast i8* %h to i32*
  store i32 2, i32* %hp
  %u = load i32* %unknown
  ret i32 %u
}
"""

    def test_non_captured_global_vs_unknown(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = NoCaptureGlobalAA(ctx)
        unknown = fn.args[0]
        r = aa.alias(aq(loc(m.get_global("priv")), loc(unknown)), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_captured_global_conservative(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = NoCaptureGlobalAA(ctx)
        unknown = fn.args[0]
        r = aa.alias(aq(loc(m.get_global("leaked")), loc(unknown)), NULL)
        assert r.result is AliasResult.MAY_ALIAS

    def test_non_captured_heap_vs_unknown(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = NoCaptureSourceAA(ctx)
        unknown = fn.args[0]
        r = aa.alias(aq(loc(v["h"]), loc(unknown)), NULL)
        assert r.result is AliasResult.NO_ALIAS


class TestGlobalMallocAA:
    SOURCE = """
global @pool : i32* = zeroinit
global @other : i32 = 0
declare @malloc(i64) -> i8*
func @f() -> i32 {
entry:
  %h = call @malloc(i64 64)
  %hp = bitcast i8* %h to i32*
  store i32* %hp, i32** @pool
  %p = load i32** @pool
  %v = load i32* %p
  ret i32 %v
}
"""

    def test_loaded_pool_pointer_vs_other_global(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = GlobalMallocAA(ctx)
        r = aa.alias(aq(loc(v["p"]), loc(m.get_global("other"))), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_loaded_pool_pointer_vs_its_own_site(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = GlobalMallocAA(ctx)
        r = aa.alias(aq(loc(v["p"]), loc(v["h"])), NULL)
        assert r.result is AliasResult.MAY_ALIAS


class TestUniqueAccessPathsAA:
    SOURCE = """
global @buf : f64* = zeroinit
declare @malloc(i64) -> i8*
func @f() -> i32 {
entry:
  %h = call @malloc(i64 1024)
  %hf = bitcast i8* %h to f64*
  store f64* %hf, f64** @buf
  br %loop
loop:
  %i = phi i64 [0, %entry], [%i2, %loop]
  %b1 = load f64** @buf
  %lo = gep f64* %b1, i64 %i
  %lv = load f64* %lo
  %b2 = load f64** @buf
  %hi.i = add i64 %i, 64
  %hi = gep f64* %b2, i64 %hi.i
  store f64 %lv, f64* %hi
  %lo2 = gep f64* %b2, i64 %i
  %lv2 = load f64* %lo2
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, 32
  condbr i1 %c, %loop, %out
out:
  ret i32 0
}
"""

    def test_disjoint_regions_through_reloaded_pointer(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = UniqueAccessPathsAA(ctx)
        loop = ctx.loop_info(fn).loops[0]
        r = aa.alias(aq(loc(v["lo"], 8), loc(v["hi"], 8), loop=loop), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_cross_iteration_also_disjoint(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = UniqueAccessPathsAA(ctx)
        loop = ctx.loop_info(fn).loops[0]
        r = aa.alias(aq(loc(v["lo"], 8), loc(v["hi"], 8), loop=loop,
                        relation=TemporalRelation.BEFORE), NULL)
        assert r.result is AliasResult.NO_ALIAS

    def test_must_alias_same_offset_through_two_loads(self):
        m, ctx, fn, v = setup(self.SOURCE)
        aa = UniqueAccessPathsAA(ctx)
        loop = ctx.loop_info(fn).loops[0]
        # lo via %b1 and the same affine offset via %b2:
        r = aa.alias(AliasQuery(MemoryLocation(v["lo"], 8),
                                TemporalRelation.SAME,
                                MemoryLocation(v["lo2"], 8), loop), NULL)
        assert r.result is AliasResult.MUST_ALIAS


class TestStdLibAA:
    SOURCE = """
global @a : [8 x i8] = zeroinit
global @b : [8 x i8] = zeroinit
declare @memcpy(i8*, i8*, i64) -> i8*
declare @sqrt(f64) -> f64 [pure]
declare @rand() -> i32
func @f() -> i32 {
entry:
  %pa = gep [8 x i8]* @a, i64 0, i64 0
  %pb = gep [8 x i8]* @b, i64 0, i64 0
  %r = call @memcpy(i8* %pa, i8* %pb, i64 8)
  %s = call @sqrt(f64 4.0)
  %r1 = call @rand()
  %r2 = call @rand()
  %v = load i8* %pa
  ret i32 0
}
"""

    def _orch(self, ctx):
        return Orchestrator([BasicAA(ctx), StdLibAA(ctx)],
                            OrchestratorConfig(use_cache=False))

    def test_pure_call_no_modref(self):
        m, ctx, fn, v = setup(self.SOURCE)
        q = ModRefQuery(v["s"], TemporalRelation.SAME, v["v"], None)
        assert self._orch(ctx).handle(q).result is ModRefResult.NO_MOD_REF

    def test_memcpy_mods_dst(self):
        m, ctx, fn, v = setup(self.SOURCE)
        q = ModRefQuery(v["r"], TemporalRelation.SAME, v["v"], None)
        r = self._orch(ctx).handle(q)
        assert r.result is ModRefResult.MOD  # writes @a, which %v reads

    def test_memcpy_vs_unrelated(self):
        m, ctx, fn, v = setup("""
global @a : [8 x i8] = zeroinit
global @b : [8 x i8] = zeroinit
global @c : i8 = 0
declare @memcpy(i8*, i8*, i64) -> i8*
func @f() -> i32 {
entry:
  %pa = gep [8 x i8]* @a, i64 0, i64 0
  %pb = gep [8 x i8]* @b, i64 0, i64 0
  %r = call @memcpy(i8* %pa, i8* %pb, i64 8)
  %v = load i8* @c
  ret i32 0
}
""")
        q = ModRefQuery(v["r"], TemporalRelation.SAME, v["v"], None)
        assert self._orch(ctx).handle(q).result is ModRefResult.NO_MOD_REF

    def test_rand_pair_shares_state(self):
        m, ctx, fn, v = setup(self.SOURCE)
        q = ModRefQuery(v["r1"], TemporalRelation.SAME, v["r2"], None)
        r = StdLibAA(ctx).modref(q, NULL)
        assert r.result is ModRefResult.MOD_REF

    def test_rand_vs_load_no_modref(self):
        m, ctx, fn, v = setup(self.SOURCE)
        q = ModRefQuery(v["r1"], TemporalRelation.SAME, v["v"], None)
        r = StdLibAA(ctx).modref(q, NULL)
        assert r.result is ModRefResult.NO_MOD_REF


class TestCallsiteSummaryAA:
    SOURCE = """
global @g : i32 = 0
global @other : i32 = 0
func @bump() -> void {
entry:
  %v = load i32* @g
  %v2 = add i32 %v, 1
  store i32 %v2, i32* @g
  ret
}
func @pure_helper(i32 %x) -> i32 {
entry:
  %y = mul i32 %x, 2
  ret i32 %y
}
func @main() -> i32 {
entry:
  call @bump()
  %w = load i32* @other
  %g.v = load i32* @g
  %h = call @pure_helper(i32 1)
  ret i32 %w
}
"""

    def _orch(self, ctx):
        return Orchestrator([BasicAA(ctx), CallsiteSummaryAA(ctx)],
                            OrchestratorConfig(use_cache=False))

    def test_call_vs_unrelated_global(self):
        m, ctx, fn, v = setup(self.SOURCE)
        main = m.get_function("main")
        call = next(i for i in main.instructions() if i.opcode == "call")
        q = ModRefQuery(call, TemporalRelation.SAME, v["w"], None)
        assert self._orch(ctx).handle(q).result is ModRefResult.NO_MOD_REF

    def test_call_vs_touched_global(self):
        m, ctx, fn, v = setup(self.SOURCE)
        main = m.get_function("main")
        call = next(i for i in main.instructions() if i.opcode == "call")
        q = ModRefQuery(call, TemporalRelation.SAME, v["g.v"], None)
        r = self._orch(ctx).handle(q)
        assert r.result is not ModRefResult.NO_MOD_REF

    def test_computation_only_callee(self):
        m, ctx, fn, v = setup(self.SOURCE)
        main = m.get_function("main")
        calls = [i for i in main.instructions() if i.opcode == "call"]
        q = ModRefQuery(calls[1], TemporalRelation.SAME, v["w"], None)
        assert self._orch(ctx).handle(q).result is ModRefResult.NO_MOD_REF

    CHAIN = """
global @g : i32 = 0
func @f4() -> void {
entry:
  store i32 1, i32* @g
  ret
}
func @f3() -> void {
entry:
  call @f4()
  ret
}
func @f2() -> void {
entry:
  call @f3()
  ret
}
func @f1() -> void {
entry:
  call @f2()
  ret
}
func @main() -> i32 {
entry:
  call @f1()
  ret i32 0
}
"""

    def test_summary_does_not_depend_on_the_depth_first_reached(self):
        """``@f2`` is two defined calls above ``@f4``: bounded, whether
        or not ``@main`` (four above) was summarized first."""
        m = parse_module(self.CHAIN)
        ctx = AnalysisContext(m)
        f2 = m.get_function("f2")
        alone = CallsiteSummaryAA(ctx).summarize(f2)
        assert alone == [FootprintItem("global", m.globals["g"], "mod", 4)]
        aa = CallsiteSummaryAA(ctx)
        assert aa.summarize(m.get_function("main")) is None
        assert aa.summarize(m.get_function("f1")) is None
        assert aa.summarize(f2) == alone


class TestDefaultModuleList:
    def test_thirteen_modules(self):
        m = parse_module("func @main() -> i32 {\nentry:\n  ret i32 0\n}\n")
        modules = default_memory_modules(AnalysisContext(m))
        assert len(modules) == 13
        assert not any(mod.is_speculative for mod in modules)
        assert len({mod.name for mod in modules}) == 13
