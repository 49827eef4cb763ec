"""Differential tests: the production memory-dependence and points-to
profilers against the reference oracles in ``profiler_oracles.py``.

The oracles are swapped into ``run_profilers`` in place of the
production classes; every fact of the resulting bundle must be
identical, on all 16 workloads and on generated programs, under both
execution engines.  The generated programs are built to reach every
path of the access-granular shadow: mixed-width accesses to one byte
buffer at constant, induction-variable and wrapped offsets (exact
cells, straddling stores, loads spanning several cells, one address
at two widths), callee accesses attributed to callsites, a callee
``alloca`` and a heap object released every iteration, an inner loop
entered many times, a location read for many iterations with no store,
a recursive loop (one loop twice in the loop stack) and an irreducible
cycle (one instruction re-run with unchanged loop state).

:func:`multi_loop_programs` generates a second shape, with two or
three hot loops in ``@main`` and a chain of calls longer than
``MAX_SUMMARY_DEPTH``: the first loop enters the chain at its top and
the second at its tail.  Its facts are checked here too, and
``tests/test_loop_order.py`` analyzes its loops in every order.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisContext
from repro.ir import parse_module
from repro.modules.memory.callsite import MAX_SUMMARY_DEPTH
from repro.profiling import bundle as bundle_module
from repro.profiling import bundle_facts, run_profilers
from repro.workloads import ALL_WORKLOADS, WORKLOADS

from tests import profiler_oracles

ENGINES = pytest.mark.parametrize("compile_", [False, True],
                                  ids=["tree", "compiled"])


def _facts(module, compile_, oracle):
    context = AnalysisContext(module)
    if not oracle:
        return bundle_facts(run_profilers(module, context,
                                          compile=compile_))
    with mock.patch.multiple(
            bundle_module,
            MemDepProfiler=profiler_oracles.MemDepProfiler,
            PointsToProfiler=profiler_oracles.PointsToProfiler):
        return bundle_facts(run_profilers(module, context,
                                          compile=compile_))


# ---------------------------------------------------------------------------
# (a) The 16 workloads.
# ---------------------------------------------------------------------------

@ENGINES
@pytest.mark.parametrize("name", [w.name for w in ALL_WORKLOADS])
def test_workload_facts_match_oracles(name, compile_):
    workload = WORKLOADS[name]
    new = _facts(workload.build(), compile_, oracle=False)
    assert new == _facts(workload.build(), compile_, oracle=True)


# ---------------------------------------------------------------------------
# (b) Generated programs.
# ---------------------------------------------------------------------------

_SIZES = {"i8": 1, "i16": 2, "i32": 4, "i64": 8, "f64": 8}

#: (kind, type, offset mode, constant, stride): the access touches
#: ``size`` bytes of the 64-byte buffer at ``constant`` or at
#: ``(iv * step + constant) urem (65 - size)``, where ``step`` is the
#: access size ("iv") or ``stride`` ("wrap").
_ACCESS = st.tuples(st.sampled_from(["load", "store"]),
                    st.sampled_from(sorted(_SIZES)),
                    st.sampled_from(["const", "iv", "wrap"]),
                    st.integers(min_value=0, max_value=63),
                    st.integers(min_value=0, max_value=9))


def _accesses(tag, accesses, base, iv):
    """IR lines for ``accesses`` through byte pointer ``base``."""
    lines = []
    for n, (kind, ty, mode, const, stride) in enumerate(accesses):
        name = f"{tag}{n}"
        limit = 65 - _SIZES[ty]
        if mode == "const":
            offset = str(const % limit)
        else:
            step = _SIZES[ty] if mode == "iv" else stride
            lines += [f"  %m.{name} = mul i64 {iv}, {step}",
                      f"  %a.{name} = add i64 %m.{name}, {const}",
                      f"  %o.{name} = urem i64 %a.{name}, {limit}"]
            offset = f"%o.{name}"
        lines += [f"  %b.{name} = gep i8* {base}, i64 {offset}",
                  f"  %p.{name} = bitcast i8* %b.{name} to {ty}*"]
        if kind == "load":
            lines.append(f"  %v.{name} = load {ty}* %p.{name}")
            continue
        if ty == "f64":
            lines.append(f"  %x.{name} = sitofp i64 {iv} to f64")
            value = f"%x.{name}"
        elif ty == "i64":
            value = iv
        else:
            lines.append(f"  %x.{name} = trunc i64 {iv} to {ty}")
            value = f"%x.{name}"
        lines.append(f"  store {ty} {value}, {ty}* %p.{name}")
    return "\n".join(lines)


def _program(outer, inner, callee, recursive, outer_trips, inner_trips,
             depth, second_call, heap):
    heap_lines = """
  %h = call @malloc(i64 16)
  %h.p = bitcast i8* %h to i64*
  store i64 %k, i64* %h.p
  %h.v = load i64* %h.p
  call @free(i8* %h)""" if heap else ""
    second = "\n  call @touch(i8* %base, i64 %i.sq)" if second_call else ""
    return f"""
global @buf : [64 x i8] = zeroinit
global @g : i64 = 7

declare @malloc(i64) -> i8*
declare @free(i8*) -> void

func @touch(i8* %p, i64 %k) -> void {{
entry:
  %s = alloca [16 x i8]
  %s.b = gep [16 x i8]* %s, i64 0, i64 4
  %s.p = bitcast i8* %s.b to i32*
  %s.k = trunc i64 %k to i32
  store i32 %s.k, i32* %s.p
  %s.v = load i32* %s.p
{_accesses("c", callee, "%p", "%k")}{heap_lines}
  ret
}}

func @rec(i8* %p, i64 %d) -> void {{
entry:
  br %loop
loop:
  %r = phi i64 [0, %entry], [%r2, %latch]
  %rd = add i64 %r, %d
{_accesses("r", recursive, "%p", "%rd")}
  %deeper = icmp slt i64 %d, {depth}
  condbr i1 %deeper, %recurse, %latch
recurse:
  %d1 = add i64 %d, 1
  call @rec(i8* %p, i64 %d1)
  br %latch
latch:
  %r2 = add i64 %r, 1
  %rc = icmp slt i64 %r2, 2
  condbr i1 %rc, %loop, %exit
exit:
  ret
}}

func @main() -> i64 {{
entry:
  %base = gep [64 x i8]* @buf, i64 0, i64 0
  %g0 = load i64* @g
  %big = icmp sgt i64 %g0, 100
  condbr i1 %big, %irr.a, %irr.b
irr.a:
  %na = phi i64 [0, %entry], [%nb2, %irr.b]
  %irr.v = load i64* @g
  br %irr.b
irr.b:
  %nb = phi i64 [0, %entry], [%na, %irr.a]
  %nb2 = add i64 %nb, 1
  %again = icmp slt i64 %nb2, 3
  condbr i1 %again, %irr.a, %outer
outer:
  %i = phi i64 [0, %irr.b], [%i2, %outer.latch]
{_accesses("o", outer, "%base", "%i")}
  call @touch(i8* %base, i64 %i)
  %i.sq = mul i64 %i, %i{second}
  br %inner
inner:
  %j = phi i64 [0, %outer], [%j2, %inner]
  %ij = add i64 %i, %j
  %gv = load i64* @g
{_accesses("n", inner, "%base", "%ij")}
  %j2 = add i64 %j, 1
  %jc = icmp slt i64 %j2, {inner_trips}
  condbr i1 %jc, %inner, %outer.latch
outer.latch:
  call @rec(i8* %base, i64 0)
  %i2 = add i64 %i, 1
  %ic = icmp slt i64 %i2, {outer_trips}
  condbr i1 %ic, %outer, %exit
exit:
  %res = load i64* @g
  ret i64 %res
}}
"""


#: A load or store of one of the multi-loop programs' i32 globals.
_GLOBAL_ACCESS = st.tuples(st.sampled_from(["load", "store"]),
                           st.sampled_from(["g", "h0", "h1"]))


def _global_accesses(tag, accesses):
    """IR lines for ``accesses``, each a (kind, global) pair."""
    lines = []
    for n, (kind, name) in enumerate(accesses):
        if kind == "load":
            lines.append(f"  %{tag}{n} = load i32* @{name}")
        else:
            lines.append(f"  store i32 {n}, i32* @{name}")
    return "\n".join(lines)


#: Arithmetic padding per loop iteration.  It keeps every loop of a
#: multi-loop program above the 10% hotness threshold: the lightest
#: iteration (6 + pad instructions, 50 trips) against two of the
#: heaviest (46 + pad, 70 trips) needs a pad of at least 13.
_PAD = 16


def _multi_loop_program(chain, entries, bodies, trips):
    """``@main`` runs one loop per entry, one after the other.  Loop
    ``k`` calls chain function ``entries[k]`` once per iteration and
    makes ``bodies[k]``: a (global accesses, buffer accesses) pair.
    Chain function ``@c<i>`` makes ``chain[i]`` global accesses and
    calls ``@c<i+1>``; callees are printed before their callers."""
    functions = []
    for i, accesses in enumerate(chain):
        lines = [f"func @c{i}() -> void {{", "entry:",
                 _global_accesses(f"c{i}.", accesses)]
        if i + 1 < len(chain):
            lines.append(f"  call @c{i + 1}()")
        functions.insert(0, lines + ["  ret", "}"])
    lines = ["func @main() -> i64 {", "entry:",
             "  %base = gep [64 x i8]* @buf, i64 0, i64 0", "  br %L0"]
    for k, (entry, (globals_, buffer), trip) in enumerate(
            zip(entries, bodies, trips)):
        pred = "entry" if k == 0 else f"L{k - 1}"
        after = f"L{k + 1}" if k + 1 < len(entries) else "exit"
        lines += [f"L{k}:",
                  f"  %i{k} = phi i64 [0, %{pred}], [%i{k}.n, %L{k}]",
                  f"  call @c{entry}()",
                  _global_accesses(f"l{k}.", globals_),
                  _accesses(f"l{k}.", buffer, "%base", f"%i{k}")]
        lines += [f"  %pad{k}.{j} = add i64 %i{k}, {j}" for j in range(_PAD)]
        lines += [f"  %i{k}.n = add i64 %i{k}, 1",
                  f"  %i{k}.c = icmp slt i64 %i{k}.n, {trip}",
                  f"  condbr i1 %i{k}.c, %L{k}, %{after}"]
    functions.append(lines + ["exit:", "  ret i64 0", "}"])
    header = ["global @buf : [64 x i8] = zeroinit", "global @g : i32 = 0",
              "global @h0 : i32 = 0", "global @h1 : i32 = 0"]
    return "\n\n".join("\n".join(line for line in part if line)
                       for part in [header] + functions) + "\n"


@st.composite
def multi_loop_programs(draw):
    """Module text with two or three hot loops and a call chain of
    ``MAX_SUMMARY_DEPTH + 1`` to ``+ 3`` functions; loop 0 calls the
    chain's top, loop 1 its tail, and loop 2 (if any) any link."""
    length = draw(st.integers(min_value=MAX_SUMMARY_DEPTH + 1,
                              max_value=MAX_SUMMARY_DEPTH + 3))
    chain = draw(st.lists(st.lists(_GLOBAL_ACCESS, max_size=2),
                          min_size=length, max_size=length))
    loops = draw(st.integers(min_value=2, max_value=3))
    entries = [0, length - 1] + draw(st.lists(
        st.integers(min_value=0, max_value=length - 1),
        min_size=loops - 2, max_size=loops - 2))
    bodies = draw(st.lists(
        st.tuples(st.lists(_GLOBAL_ACCESS, max_size=3),
                  st.lists(_ACCESS, max_size=2)),
        min_size=loops, max_size=loops))
    trips = draw(st.lists(st.integers(min_value=50, max_value=70),
                          min_size=loops, max_size=loops))
    return _multi_loop_program(chain, entries, bodies, trips)


class TestGeneratedPrograms:
    @given(outer=st.lists(_ACCESS, max_size=5),
           inner=st.lists(_ACCESS, max_size=4),
           callee=st.lists(_ACCESS, max_size=3),
           recursive=st.lists(_ACCESS, max_size=2),
           outer_trips=st.integers(min_value=1, max_value=6),
           inner_trips=st.integers(min_value=1, max_value=5),
           depth=st.integers(min_value=0, max_value=2),
           second_call=st.booleans(),
           heap=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_facts_match_oracles(self, outer, inner, callee, recursive,
                                 outer_trips, inner_trips, depth,
                                 second_call, heap):
        text = _program(outer, inner, callee, recursive, outer_trips,
                        inner_trips, depth, second_call, heap)
        for compile_ in (False, True):
            new = _facts(parse_module(text), compile_, oracle=False)
            old = _facts(parse_module(text), compile_, oracle=True)
            assert new == old

    @given(text=multi_loop_programs())
    @settings(max_examples=10, deadline=None)
    def test_multi_loop_facts_match_oracles(self, text):
        for compile_ in (False, True):
            new = _facts(parse_module(text), compile_, oracle=False)
            old = _facts(parse_module(text), compile_, oracle=True)
            assert new == old
