"""ProfileBundle: everything a training run produced, plus the runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from ..analysis import AnalysisContext, Loop
from ..interp import CompiledInterpreter, Interpreter, LoopStats, \
    make_interpreter
from ..ir import Module
from ..obs.trace import current_tracer
from .edge import EdgeProfile, EdgeProfiler
from .lifetime import LifetimeProfile, LifetimeProfiler
from .memdep import MemDepProfile, MemDepProfiler
from .points_to import PointsToProfile, PointsToProfiler
from .residue import ResidueProfile, ResidueProfiler
from .sites import _value_position, site_order_key
from .value import ValueProfile, ValueProfiler

#: The profilers a training run can attach, named by their
#: ``ProfileBundle`` field, in attach order.
PROFILERS: Tuple[str, ...] = ("edge", "value", "points_to", "residue",
                              "lifetime", "memdep")


@dataclass
class ProfileBundle:
    """All profiles SCAF's speculation modules consume (§4.2.2).

    A profile whose profiler the run did not attach is ``None``, so a
    module reading a profile it did not declare fails instead of
    answering from an empty one.  ``edge`` is always present.
    """

    edge: EdgeProfile
    value: Optional[ValueProfile]
    points_to: Optional[PointsToProfile]
    residue: Optional[ResidueProfile]
    lifetime: Optional[LifetimeProfile]
    memdep: Optional[MemDepProfile]
    loop_stats: Dict[Loop, LoopStats] = field(default_factory=dict)
    total_instructions: int = 0
    exit_value: Union[int, float, None] = None
    #: Which execution engine produced the run: "compiled" (closure-
    #: compiled hot path) or "tree" (the tree-walking oracle).  The
    #: two are observably identical; recorded for observability only
    #: (excluded from profile digests).
    engine: str = "tree"


def run_profilers(module: Module,
                  analysis: Optional[AnalysisContext] = None,
                  entry: str = "main",
                  args: Sequence[Union[int, float]] = (),
                  max_steps: int = 50_000_000,
                  compile: bool = True,
                  profilers: Iterable[str] = PROFILERS) -> ProfileBundle:
    """Execute ``entry`` once with the named profilers attached.

    This is the offline training run of §2.2: the returned bundle is
    the only dynamic information the speculation modules ever see.

    ``profilers`` names the profiles to collect (see
    :data:`PROFILERS`); the bundle field of every other one is
    ``None``.  The edge profiler is always attached: hot-loop
    selection and the service's executed-function scope read its
    counts.  An unknown name raises ``ValueError``.

    ``compile`` selects the execution engine: the closure-compiled
    engine by default, the tree-walking oracle with ``False``.  The
    compiled artifact is memoized on ``analysis``, so repeat runs
    against a prepared module's context skip recompilation.
    """
    wanted = set(profilers)
    unknown = wanted.difference(PROFILERS)
    if unknown:
        raise ValueError(f"unknown profilers: {sorted(unknown)}")
    wanted.add("edge")
    # Looked up on each call, so a test can substitute a class.
    classes = {"edge": EdgeProfiler, "value": ValueProfiler,
               "points_to": PointsToProfiler, "residue": ResidueProfiler,
               "lifetime": LifetimeProfiler, "memdep": MemDepProfiler}
    attached = {name: classes[name]() for name in PROFILERS
                if name in wanted}

    analysis = analysis or AnalysisContext(module)
    interp = make_interpreter(module, analysis, max_steps=max_steps,
                              compile=compile)
    engine = "compiled" if isinstance(interp, CompiledInterpreter) \
        else "tree"
    for profiler in attached.values():
        interp.add_listener(profiler)

    tracer = current_tracer()
    with tracer.span("profile", cat="profile", entry=entry,
                     profilers=len(attached), engine=engine) as span:
        with tracer.span("interpret", cat="profile"):
            result = interp.run(entry, args)
        with tracer.span("finalize", cat="profile"):
            for profiler in attached.values():
                profiler.finish()
        span.set(instructions=interp.total_instructions())

    profiles = {name: (attached[name].profile if name in attached
                       else None)
                for name in PROFILERS}
    return ProfileBundle(
        **profiles,
        loop_stats=interp.loop_stats,
        total_instructions=interp.total_instructions(),
        exit_value=result,
        engine=engine,
    )


def _block_key(block):
    fn = block.parent
    return (fn.name if fn is not None else "", block.name)


def _scalar(value):
    if isinstance(value, float) and value != value:
        return "nan"
    return value


def bundle_facts(bundle: ProfileBundle) -> dict:
    """Every fact of ``bundle`` as comparable plain data.

    Keys are stable IR positions rather than object identities, so
    bundles from two separately built copies of one module compare
    equal exactly when the runs observed the same behaviour.  The
    engine name is left out: the two engines must agree on the rest.
    Only the profiles the run attached contribute facts.
    """
    edge = bundle.edge
    ikey, skey = _value_position, site_order_key
    facts = {
        "ret": _scalar(bundle.exit_value),
        "steps": bundle.total_instructions,
        "loops": {_block_key(loop.header): (s.invocations, s.iterations,
                                            s.dynamic_insts)
                  for loop, s in bundle.loop_stats.items()},
        "edges": {(_block_key(f), _block_key(t)): n
                  for (f, t), n in edge.edge_counts.items()},
        "blocks": {_block_key(b): n for b, n in edge.block_counts.items()},
    }
    value = bundle.value
    if value is not None:
        facts["values"] = {ikey(i): (n, _scalar(value.constant_value.get(i)))
                           for i, n in value.counts.items()}
    pt = bundle.points_to
    if pt is not None:
        facts["points_to"] = {ikey(p): sorted(skey(s) for s in sites)
                              for p, sites in pt.points_to.items()}
        facts["escaped"] = sorted(ikey(p) for p, flag in pt.escaped.items()
                                  if flag)
        facts["site_access"] = {
            _block_key(loop.header): {skey(site): (c.reads, c.writes)
                                      for site, c in sites.items()}
            for loop, sites in pt.loop_site_access.items()}
    residue = bundle.residue
    if residue is not None:
        facts["residues"] = {ikey(p): (tuple(sorted(rs)),
                                       residue.counts.get(p))
                             for p, rs in residue.residues.items()}
    life = bundle.lifetime
    if life is not None:
        facts["lifetime"] = {
            "allocating": {_block_key(l.header): sorted(map(skey, ss))
                           for l, ss in life.allocating_sites.items()},
            "disqualified": {_block_key(l.header): sorted(map(skey, ss))
                             for l, ss in life.disqualified.items()},
            "alloc_counts": {_block_key(l.header): n
                             for l, n in life.alloc_counts.items()},
        }
    if bundle.memdep is not None:
        facts["memdep"] = {
            _block_key(loop.header): sorted(
                (ikey(src), ikey(dst), cross)
                for (src, dst, cross) in deps)
            for loop, deps in bundle.memdep.observed.items()}
    return facts
