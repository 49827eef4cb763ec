"""ProfileBundle: everything a training run produced, plus the runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Union

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
from .value import ValueProfile, ValueProfiler


@dataclass
class ProfileBundle:
    """All profiles SCAF's speculation modules consume (§4.2.2)."""

    edge: EdgeProfile
    value: ValueProfile
    points_to: PointsToProfile
    residue: ResidueProfile
    lifetime: LifetimeProfile
    memdep: MemDepProfile
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
                  compile: bool = True) -> ProfileBundle:
    """Execute ``entry`` once with every profiler attached.

    This is the offline training run of §2.2: the returned bundle is
    the only dynamic information the speculation modules ever see.

    ``compile`` selects the execution engine: the closure-compiled
    engine by default, the tree-walking oracle with ``False``.  The
    compiled artifact is memoized on ``analysis``, so repeat runs
    against a prepared module's context skip recompilation.
    """
    analysis = analysis or AnalysisContext(module)
    interp = make_interpreter(module, analysis, max_steps=max_steps,
                              compile=compile)
    engine = "compiled" if isinstance(interp, CompiledInterpreter) \
        else "tree"

    edge = EdgeProfiler()
    value = ValueProfiler()
    points_to = PointsToProfiler()
    residue = ResidueProfiler()
    lifetime = LifetimeProfiler()
    memdep = MemDepProfiler()
    for profiler in (edge, value, points_to, residue, lifetime, memdep):
        interp.add_listener(profiler)

    tracer = current_tracer()
    with tracer.span("profile", cat="profile", entry=entry,
                     profilers=6, engine=engine) as span:
        with tracer.span("interpret", cat="profile"):
            result = interp.run(entry, args)
        with tracer.span("finalize", cat="profile"):
            lifetime.finish()
        span.set(instructions=interp.total_instructions())

    return ProfileBundle(
        edge=edge.profile,
        value=value.profile,
        points_to=points_to.profile,
        residue=residue.profile,
        lifetime=lifetime.profile,
        memdep=memdep.profile,
        loop_stats=interp.loop_stats,
        total_instructions=interp.total_instructions(),
        exit_value=result,
        engine=engine,
    )
