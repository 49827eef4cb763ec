"""Which profilers a training run attaches.

Each analysis module declares the profiles it reads
(``AnalysisModule.profiles_read``); a system's training run attaches
the union over its roster plus the edge profiler.  What this file
pins:

- the declarations are complete: every ``self.profiles.<field>`` read
  in ``src/repro/modules/`` is declared by its class or, for inherited
  methods, by every subclass that runs them;
- ``run_profilers`` attaches exactly the named profilers plus edge,
  leaves the other bundle fields ``None``, rejects unknown names, and
  the attached profilers' facts do not depend on which others ran;
- for the systems whose set shrinks (caf, memory-speculation), every
  answer and loop footprint from the restricted bundle equals the one
  from the full bundle on all 16 workloads.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.analysis import AnalysisContext
from repro.clients import PDGClient, hot_loops
from repro.core.module import AnalysisModule
from repro.ir import parse_module, verify_module
from repro.modules.speculation import ValuePrediction
from repro.obs.trace import NOOP, TraceContext, set_tracer
from repro.profiling import PROFILERS, bundle_facts, run_profilers
from repro.service import (
    build_system,
    loop_footprint,
    prepare_request,
    request_for_workload,
    summarize_pdg,
    system_profilers,
)
from repro.service.requests import SYSTEM_ROSTERS
from repro.workloads import ALL_WORKLOADS, WORKLOADS

MODULES_DIR = Path(__file__).resolve().parent.parent / "src" / "repro" / \
    "modules"

#: Bundle fields the interpreter fills on every run.
ALWAYS_PRESENT = frozenset({"loop_stats", "total_instructions",
                            "exit_value"})


# ---------------------------------------------------------------------------
# The declarations.
# ---------------------------------------------------------------------------

def _profile_reads(class_node: ast.ClassDef) -> set:
    """Fields ``f`` of every ``self.profiles.f`` in the class body."""
    reads = set()
    for node in ast.walk(class_node):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "profiles"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self"):
            reads.add(node.attr)
    return reads


def _reads_by_class() -> dict:
    """``{class object: fields its own body reads}`` over every class
    defined in ``src/repro/modules/``."""
    found = {}
    for path in sorted(MODULES_DIR.rglob("*.py")):
        relative = path.relative_to(MODULES_DIR.parent.parent).with_suffix("")
        dotted = ".".join(relative.parts)
        module = importlib.import_module(dotted)
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                found[getattr(module, node.name)] = _profile_reads(node)
    return found


def test_declarations_cover_every_profile_read():
    reads = _reads_by_class()
    assert "memdep" in reads[ValuePrediction], "the scan found no reads"
    missing = {}
    for cls in reads:
        if not issubclass(cls, AnalysisModule):
            continue
        # Inherited methods run on the subclass: their reads count.
        needed = set().union(*(reads.get(base, set())
                               for base in cls.__mro__))
        undeclared = needed - ALWAYS_PRESENT - cls.profiles_read
        if undeclared:
            missing[cls.__name__] = sorted(undeclared)
    assert not missing, f"profiles read but not declared: {missing}"


def test_declared_names_are_profilers():
    for roster in SYSTEM_ROSTERS.values():
        for cls in roster:
            assert cls.profiles_read <= set(PROFILERS), cls.__name__
            if not cls.is_speculative:
                assert cls.profiles_read == frozenset(), cls.__name__


def test_system_sets_are_the_roster_unions():
    assert system_profilers("caf") == frozenset()
    assert system_profilers("memory-speculation") == {"edge", "memdep"}
    assert system_profilers("scaf") == set(PROFILERS)
    assert system_profilers("confluence") == set(PROFILERS)
    with pytest.raises(ValueError, match="unknown analysis system"):
        system_profilers("bogus")


# ---------------------------------------------------------------------------
# run_profilers.
# ---------------------------------------------------------------------------

def _module(name):
    module = WORKLOADS[name].build()
    return module, AnalysisContext(module)


def test_edge_is_always_attached_and_the_rest_are_none():
    module, context = _module("129.compress")
    bundle = run_profilers(module, context, profilers=())
    assert bundle.edge is not None and bundle.edge.block_counts
    for name in PROFILERS[1:]:
        assert getattr(bundle, name) is None, name
    assert set(bundle_facts(bundle)) == {"ret", "steps", "loops", "edges",
                                         "blocks"}
    with pytest.raises(AttributeError):
        bundle.memdep.is_observed(None, None, None, False)


def test_unknown_profiler_is_rejected():
    module, context = _module("129.compress")
    with pytest.raises(ValueError, match="bogus"):
        run_profilers(module, context, profilers=("edge", "bogus"))


def test_profile_span_reports_the_attached_count():
    module, context = _module("129.compress")
    tracer = TraceContext()
    set_tracer(tracer)
    try:
        run_profilers(module, context, profilers=("memdep",))
        run_profilers(module, context)
    finally:
        set_tracer(NOOP)
    counts = [span["attrs"]["profilers"] for span in tracer.export()
              if span["name"] == "profile"]
    assert counts == [2, len(PROFILERS)]


@pytest.mark.parametrize("name", ["056.ear", "181.mcf", "129.compress"])
def test_attached_facts_do_not_depend_on_the_others(name):
    module, context = _module(name)
    full = bundle_facts(run_profilers(module, context))
    for profilers in (("memdep",), ("value", "lifetime"),
                      ("points_to", "residue")):
        module, context = _module(name)
        part = bundle_facts(run_profilers(module, context,
                                          profilers=profilers))
        assert part == {key: full[key] for key in part}


# ---------------------------------------------------------------------------
# Restricted bundles give the full bundle's answers.
# ---------------------------------------------------------------------------

def _answers(system_name, request, module, context, profiles):
    system = build_system(system_name, module, context, profiles,
                          request.config)
    client = PDGClient(system)
    out = []
    for h in hot_loops(profiles):
        pdg = client.analyze_loop(h.loop)
        answer = summarize_pdg(request.name, system_name, pdg,
                               h.time_fraction, 0.0)
        out.append((answer.identity(), loop_footprint(system, h.loop)))
    return out


@pytest.mark.parametrize("system", ["caf", "memory-speculation"])
@pytest.mark.parametrize("name", [w.name for w in ALL_WORKLOADS])
def test_restricted_bundle_gives_the_full_bundles_answers(system, name):
    request = request_for_workload(name, system)
    module, context, restricted = prepare_request(request)
    assert restricted.value is None
    restricted_answers = _answers(system, request, module, context,
                                  restricted)

    module = parse_module(request.source, name=request.name)
    verify_module(module)
    context = AnalysisContext(module)
    full = run_profilers(module, context, entry=request.entry)
    assert restricted_answers == _answers(system, request, module,
                                          context, full)
    assert restricted_answers, "no hot loop analyzed"
