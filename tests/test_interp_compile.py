"""Differential tests for the closure-compiled execution engine.

The tree-walking ``Interpreter`` is the oracle: every test here runs
both engines and demands identical observable behavior — return
values, step counts, loop statistics, and every profiler fact.  The
width-semantics regressions (udiv/urem/lshr) and float corners
(frem by zero, 0/0) are pinned in both engines.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisContext
from repro.interp import (
    CompiledInterpreter,
    CompiledModule,
    CompileError,
    Interpreter,
    cached_compiled_module,
    compile_module,
    make_interpreter,
)
from repro.ir import parse_module
from repro.profiling import bundle_facts, run_profilers
from repro.workloads import ALL_WORKLOADS, WORKLOADS


def _run_tree(text, entry="main", args=()):
    interp = Interpreter(parse_module(text))
    return interp.run(entry, args), interp


def _run_compiled(text, entry="main", args=()):
    module = parse_module(text)
    analysis = AnalysisContext(module)
    interp = CompiledInterpreter(module, analysis)
    return interp.run(entry, args), interp


ENGINES = pytest.mark.parametrize(
    "run", [_run_tree, _run_compiled], ids=["tree", "compiled"])


# ---------------------------------------------------------------------------
# Satellite: unsigned integer semantics at the operand type's width.
# ---------------------------------------------------------------------------

def _binop(op, ty, a, b):
    return f"""
func @main() -> {ty} {{
entry:
  %r = {op} {ty} {a}, {b}
  ret {ty} %r
}}
"""


class TestUnsignedWidthSemantics:
    """udiv/urem reinterpret both operands at the type's width (the
    old ``abs()`` was wrong for every negative value); lshr zero-
    extends at the type's width (the old 64-bit mask shifted bogus
    one bits into narrower types)."""

    @ENGINES
    @pytest.mark.parametrize("ty,a,b,expected", [
        # -6 as u8 is 250; 250 // 2 = 125.  abs() gave 3.
        ("i8", -6, 2, 125),
        # -2 as u32 is 2**32 - 2; halved = 2**31 - 1.
        ("i32", -2, 2, 2**31 - 1),
        ("i64", -2, 2, 2**63 - 1),
    ])
    def test_udiv(self, run, ty, a, b, expected):
        result, _ = run(_binop("udiv", ty, a, b))
        assert result == expected

    @ENGINES
    @pytest.mark.parametrize("ty,a,b,expected", [
        # -1 as u8 is 255; 255 % 16 = 15.  abs() gave 1.
        ("i8", -1, 16, 15),
        ("i32", -1, 10, (2**32 - 1) % 10),
        ("i64", -1, 10, (2**64 - 1) % 10),
    ])
    def test_urem(self, run, ty, a, b, expected):
        result, _ = run(_binop("urem", ty, a, b))
        assert result == expected

    @ENGINES
    @pytest.mark.parametrize("ty,a,b,expected", [
        # -1 as u8 is 255; >> 1 = 127.  The 64-bit mask gave -1.
        ("i8", -1, 1, 127),
        ("i32", -1, 1, 2**31 - 1),
        ("i64", -1, 1, 2**63 - 1),
        # Shift amounts mask at the type's width, not 64 bits.
        ("i8", 1, 8, 1),
        ("i32", 7, 32, 7),
    ])
    def test_lshr(self, run, ty, a, b, expected):
        result, _ = run(_binop("lshr", ty, a, b))
        assert result == expected

    @ENGINES
    @pytest.mark.parametrize("op", ["udiv", "urem"])
    def test_zero_divisor_yields_zero(self, run, op):
        result, _ = run(_binop(op, "i32", 7, 0))
        assert result == 0


# ---------------------------------------------------------------------------
# Satellite: float corners — deterministic NaN, never an exception.
# ---------------------------------------------------------------------------

class TestFloatCorners:
    @ENGINES
    def test_frem_zero_divisor_is_nan(self, run):
        result, _ = run(_binop("frem", "f64", 1.5, 0.0))
        assert math.isnan(result)

    @ENGINES
    def test_fdiv_zero_over_zero_is_nan(self, run):
        result, _ = run(_binop("fdiv", "f64", 0.0, 0.0))
        assert math.isnan(result)

    @ENGINES
    def test_fdiv_nonzero_over_zero_is_signed_inf(self, run):
        pos, _ = run(_binop("fdiv", "f64", 2.0, 0.0))
        neg, _ = run(_binop("fdiv", "f64", -2.0, 0.0))
        assert pos == math.inf and neg == -math.inf


# ---------------------------------------------------------------------------
# Engine selection plumbing.
# ---------------------------------------------------------------------------

_TRIVIAL = """
func @main() -> i32 {
entry:
  ret i32 42
}
"""


class TestEngineSelection:
    def test_make_interpreter_explicit_choice(self):
        module = parse_module(_TRIVIAL)
        assert isinstance(make_interpreter(module), CompiledInterpreter)
        assert isinstance(make_interpreter(module, compile=True),
                          CompiledInterpreter)
        tree = make_interpreter(module, compile=False)
        assert not isinstance(tree, CompiledInterpreter)

    def test_compile_error_falls_back_to_tree(self, monkeypatch):
        import repro.interp.compile as compile_mod

        def boom(module, analysis=None):
            raise CompileError("forced")

        monkeypatch.setattr(compile_mod, "compile_module", boom)
        interp = compile_mod.make_interpreter(parse_module(_TRIVIAL),
                                              compile=True)
        assert not isinstance(interp, CompiledInterpreter)
        assert interp.run("main") == 42

    def test_compiled_module_cached_on_analysis(self):
        module = parse_module(_TRIVIAL)
        analysis = AnalysisContext(module)
        first = compile_module(module, analysis)
        assert isinstance(first, CompiledModule)
        assert compile_module(module, analysis) is first
        assert cached_compiled_module(analysis) is first

    def test_prepared_module_pins_compiled_artifact(self):
        from repro.ir import format_module
        from repro.service.requests import AnalysisRequest
        from repro.service.worker import PreparedModule

        workload = ALL_WORKLOADS[0]
        request = AnalysisRequest(workload.name,
                                  format_module(workload.build()))
        prepared = PreparedModule(request)
        compiled = cached_compiled_module(prepared.context)
        assert isinstance(compiled, CompiledModule)
        assert compile_module(prepared.module, prepared.context) \
            is compiled


# ---------------------------------------------------------------------------
# Differential fuzz: compiled == tree on randomized programs.
# ---------------------------------------------------------------------------

_INT_OP_NAMES = ["add", "sub", "mul", "udiv", "urem", "and", "or",
                 "xor", "lshr", "ashr", "sdiv", "srem"]
_WIDTHS = ["i8", "i16", "i32", "i64"]
_CONST = st.integers(min_value=-40, max_value=40)


def _fuzz_program(ops, consts, width, trips, branch_const):
    """A counted loop whose body applies a randomized chain of binary
    ops, with a data-dependent diamond to exercise branch plans."""
    body = []
    prev = "%acc"
    for i, (op, c) in enumerate(zip(ops, consts)):
        # Divisors of 0 are legal (defined as 0 for unsigned, but
        # sdiv/srem raise), so keep signed divisors away from zero.
        if op in ("sdiv", "srem") and c == 0:
            c = 3
        body.append(f"  %t{i} = {op} {width} {prev}, {c}")
        prev = f"%t{i}"
    body_text = "\n".join(body)
    return f"""
func @main() -> {width} {{
entry:
  br %header
header:
  %i = phi i64 [0, %entry], [%i2, %latch]
  %acc = phi {width} [1, %entry], [%accn, %latch]
{body_text}
  %parity = and i64 %i, 1
  %odd = icmp eq i64 %parity, 1
  condbr i1 %odd, %odd_bb, %even_bb
odd_bb:
  %vo = add {width} {prev}, {branch_const}
  br %latch
even_bb:
  %ve = xor {width} {prev}, {branch_const}
  br %latch
latch:
  %accn = phi {width} [%vo, %odd_bb], [%ve, %even_bb]
  %i2 = add i64 %i, 1
  %c = icmp slt i64 %i2, {trips}
  condbr i1 %c, %header, %exit
exit:
  ret {width} %accn
}}
"""


class TestDifferentialFuzz:
    @given(ops=st.lists(st.sampled_from(_INT_OP_NAMES),
                        min_size=1, max_size=6),
           consts=st.lists(_CONST, min_size=6, max_size=6),
           width=st.sampled_from(_WIDTHS),
           trips=st.integers(min_value=1, max_value=12),
           branch_const=_CONST)
    @settings(max_examples=60, deadline=None)
    def test_engines_agree(self, ops, consts, width, trips,
                           branch_const):
        text = _fuzz_program(ops, consts, width, trips, branch_const)
        module_t = parse_module(text)
        module_c = parse_module(text)

        tree = Interpreter(module_t)
        tree_err = None
        try:
            tree_ret = tree.run("main")
        except Exception as exc:  # division by zero is legal output
            tree_err = type(exc).__name__
            tree_ret = None

        comp = CompiledInterpreter(module_c)
        comp_err = None
        try:
            comp_ret = comp.run("main")
        except Exception as exc:
            comp_err = type(exc).__name__
            comp_ret = None

        assert comp_err == tree_err
        assert _same_scalar(comp_ret, tree_ret)
        if tree_err is None:
            assert comp.total_instructions() == \
                tree.total_instructions()
            assert _norm_loop_stats(comp) == _norm_loop_stats(tree)

    @given(ops=st.lists(st.sampled_from(_INT_OP_NAMES),
                        min_size=1, max_size=4),
           consts=st.lists(_CONST, min_size=4, max_size=4),
           width=st.sampled_from(_WIDTHS),
           trips=st.integers(min_value=1, max_value=8),
           branch_const=_CONST)
    @settings(max_examples=25, deadline=None)
    def test_profile_facts_agree(self, ops, consts, width, trips,
                                 branch_const):
        text = _fuzz_program(ops, consts, width, trips, branch_const)
        facts = []
        for compile_ in (False, True):
            module = parse_module(text)
            context = AnalysisContext(module)
            try:
                bundle = run_profilers(module, context,
                                       compile=compile_)
            except Exception as exc:
                facts.append(("error", type(exc).__name__))
                continue
            facts.append(bundle_facts(bundle))
        assert facts[0] == facts[1]


def _same_scalar(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return (a == b) or (a != a and b != b)
    return a == b


def _norm_loop_stats(interp):
    return {loop.header.name: (s.invocations, s.iterations,
                               s.dynamic_insts)
            for loop, s in interp.loop_stats.items()}


# ---------------------------------------------------------------------------
# Full-workload equality sweep: every profiler fact, all 16 programs.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", [w.name for w in ALL_WORKLOADS])
def test_workload_profile_facts_identical(name):
    module_t = WORKLOADS[name].build()
    module_c = WORKLOADS[name].build()
    tree = run_profilers(module_t, AnalysisContext(module_t),
                         compile=False)
    comp = run_profilers(module_c, AnalysisContext(module_c),
                         compile=True)
    assert tree.engine == "tree"
    assert comp.engine == "compiled"
    assert bundle_facts(comp) == bundle_facts(tree)
