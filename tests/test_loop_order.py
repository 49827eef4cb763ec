"""A loop's answer does not depend on the loops analyzed before it.

The PDG client opens one memo scope per loop
(:meth:`repro.core.framework.DependenceAnalysis.clear_cache`), and a
callsite summary depends on its function alone.  So every hot loop's
answer and ``loop_footprint`` equal those of a fresh system built for
that loop alone, whichever way the loops reach the system: in roster
order on one system, in reversed order on one system, or through
``run_loop_task`` over one shared prepared entry (a lead task, then a
task per remaining loop).

The programs come from
:func:`tests.test_profiler_oracles.multi_loop_programs`: two or three
hot loops and a call chain longer than ``MAX_SUMMARY_DEPTH``, which
one loop enters at its top and another at its tail.
"""

from hypothesis import example, given, settings

from repro.clients import PDGClient, hot_loops
from repro.service import (
    AnalysisRequest,
    reset_prepared_cache,
    summarize_pdg,
    worker,
)
from repro.service.worker import (
    LoopTask,
    build_system,
    loop_footprint,
    prepare_request,
    run_loop_task,
)

from tests.test_profiler_oracles import multi_loop_programs

#: Loop ``%a`` reaches ``@f4`` three calls deep, through ``@f1``; loop
#: ``%b`` calls ``@f4`` directly.  ``@f4``'s callsite summary once kept
#: the depth at which it was first reached, so analyzing ``%a`` first
#: left ``%b`` without it.
TWO_LOOPS = """
global @g : i32 = 0
global @h : i32 = 0

func @f4() -> void {
entry:
  %v = load i32* @g
  %v2 = add i32 %v, 1
  store i32 %v2, i32* @g
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
  br %a
a:
  %i = phi i32 [0, %entry], [%i2, %a]
  call @f1()
  %av = load i32* @h
  %i2 = add i32 %i, 1
  %ca = icmp slt i32 %i2, 60
  condbr i1 %ca, %a, %mid
mid:
  br %b
b:
  %j = phi i32 [0, %mid], [%j2, %b]
  call @f4()
  %hv = load i32* @h
  %hv2 = add i32 %hv, 1
  store i32 %hv2, i32* @h
  %j2 = add i32 %j, 1
  %cb = icmp slt i32 %j2, 60
  condbr i1 %cb, %b, %exit
exit:
  %r = load i32* @g
  ret i32 %r
}
"""


def _request(source, system):
    return AnalysisRequest("generated", source, system=system)


def _analyze(system, hot):
    """The loop's answer identity and footprint on ``system``."""
    pdg = PDGClient(system).analyze_loop(hot.loop)
    answer = summarize_pdg("generated", system.name, pdg,
                           hot.time_fraction, 0.0)
    return answer.identity(), loop_footprint(system, hot.loop)


def _fresh(source, system):
    """Per loop name: what a system prepared for that loop alone
    answers."""
    request = _request(source, system)
    out = {}
    for name in [h.name for h in hot_loops(prepare_request(request)[2])]:
        module, context, profiles = prepare_request(request)
        hot = next(h for h in hot_loops(profiles) if h.name == name)
        out[name] = _analyze(
            build_system(system, module, context, profiles), hot)
    return out


def _one_system(source, system, reverse):
    """Per loop name: one system's answers, loops in roster order or
    reversed."""
    module, context, profiles = prepare_request(_request(source, system))
    shared = build_system(system, module, context, profiles)
    hot = hot_loops(profiles)
    return {h.name: _analyze(shared, h)
            for h in (reversed(hot) if reverse else hot)}


def _shared_entry(source, system):
    """Per loop name: the answers of a lead task and then one loop
    task per remaining loop, all on one prepared entry."""
    request = _request(source, system)
    reset_prepared_cache()
    try:
        lead = run_loop_task(LoopTask(request))
        results = [lead] + [run_loop_task(LoopTask(request, name))
                            for name in lead.run.hot_loops
                            if name != lead.loop]
    finally:
        reset_prepared_cache()
    assert all(r.prepared_hit for r in results[1:])
    return {r.loop: (r.answer.identity(), r.footprint) for r in results}


@given(source=multi_loop_programs())
@example(source=TWO_LOOPS)
@settings(max_examples=15, deadline=None)
def test_loop_answers_equal_a_fresh_systems_in_every_order(source):
    for system in ("caf", "scaf"):
        fresh = _fresh(source, system)
        assert len(fresh) >= 2
        assert _one_system(source, system, reverse=False) == fresh
        assert _one_system(source, system, reverse=True) == fresh
        assert _shared_entry(source, system) == fresh


def test_two_loop_program_answers_in_either_order():
    """CAF's %NoDep of both loops in either order.  Before callsite
    summaries were bounded by height, ``%b`` read 21.43% after ``%a``
    (64.29% fresh), and ``%a`` read 80.0% after ``%b`` (20.0%
    fresh)."""
    module, context, profiles = prepare_request(_request(TWO_LOOPS, "caf"))
    hot = hot_loops(profiles)
    for order in (hot, hot[::-1]):
        system = build_system("caf", module, context, profiles)
        percents = {h.name: round(PDGClient(system).analyze_loop(
            h.loop).no_dep_percent, 2) for h in order}
        assert percents == {"@main:%a": 20.0, "@main:%b": 64.29}


def test_prepared_entry_memo_is_bounded_by_one_loop():
    """After a lead task analyzes ``%a`` and a loop task ``%b`` on the
    same prepared entry, its memo holds what a fresh system's holds
    after ``%b`` alone."""
    request = _request(TWO_LOOPS, "scaf")
    reset_prepared_cache()
    try:
        lead = run_loop_task(LoopTask(request))
        assert lead.loop == "@main:%a"
        assert run_loop_task(LoopTask(request, "@main:%b")).prepared_hit
        entry = worker._PREPARED[request.version_key()]
        fresh = build_system("scaf", entry.module, entry.context,
                             entry.profiles)
        PDGClient(fresh).analyze_loop(entry.hot_by_name["@main:%b"].loop)
        assert fresh.stats.cache_size > 0
        assert entry.system.stats.cache_size == fresh.stats.cache_size
    finally:
        reset_prepared_cache()
