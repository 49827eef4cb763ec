"""Framework facades: one-call construction of SCAF and its baselines.

``DependenceAnalysis`` bundles a coordinator with the module/profile
context and is what clients (e.g. the PDG client) consume; the
builders assemble the four systems evaluated in §5:

- :func:`build_caf` — memory analysis only (CAF).
- :func:`build_confluence` — CAF ⊔ isolated speculation modules.
- :func:`build_scaf` — full collaboration through the Orchestrator.
- :func:`build_memory_speculation` — CAF plus the profile-only
  memory-speculation module (the expensive upper bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..analysis import AnalysisContext
from ..ir import Module
from ..modules.memory import default_memory_modules
from ..modules.speculation import MemorySpeculation, default_speculation_modules
from ..profiling import ProfileBundle
from ..query import Query, QueryResponse
from .confluence import ConfluenceComposition
from .module import AnalysisModule
from .orchestrator import Orchestrator, OrchestratorConfig


@dataclass
class DependenceAnalysis:
    """A ready-to-query dependence analysis system."""

    name: str
    module: Module
    context: AnalysisContext
    profiles: Optional[ProfileBundle]
    coordinator: Union[Orchestrator, ConfluenceComposition]

    def query(self, query: Query) -> QueryResponse:
        return self.coordinator.handle(query)

    @property
    def last_contributors(self):
        return self.coordinator.last_contributors

    @property
    def stats(self):
        """The coordinator's :class:`OrchestratorStats` counters."""
        return self.coordinator.stats

    def reset_stats(self) -> None:
        self.coordinator.reset_stats()

    def clear_cache(self) -> None:
        """Open a fresh scope: empty the coordinator's memo and the
        context's trace.  The PDG client opens one per loop, so no
        answer or footprint depends on the loops analyzed before."""
        self.coordinator.clear_cache()
        self.context.reset_scan_trace()


def build_caf(module: Module,
              context: Optional[AnalysisContext] = None,
              profiles: Optional[ProfileBundle] = None,
              config: Optional[OrchestratorConfig] = None
              ) -> DependenceAnalysis:
    """CAF: collaborative memory analysis, no speculation."""
    context = context or AnalysisContext(module)
    orchestrator = Orchestrator(default_memory_modules(context, profiles),
                                config)
    return DependenceAnalysis("caf", module, context, profiles, orchestrator)


def build_scaf(module: Module,
               profiles: ProfileBundle,
               context: Optional[AnalysisContext] = None,
               config: Optional[OrchestratorConfig] = None,
               extra_modules: Sequence[AnalysisModule] = ()
               ) -> DependenceAnalysis:
    """SCAF: composition by collaboration (this work)."""
    context = context or AnalysisContext(module)
    modules = (default_memory_modules(context, profiles)
               + default_speculation_modules(context, profiles)
               + list(extra_modules))
    orchestrator = Orchestrator(modules, config)
    return DependenceAnalysis("scaf", module, context, profiles, orchestrator)


def build_confluence(module: Module,
                     profiles: ProfileBundle,
                     context: Optional[AnalysisContext] = None,
                     config: Optional[OrchestratorConfig] = None
                     ) -> DependenceAnalysis:
    """Composition by confluence: the best prior approach (§5)."""
    context = context or AnalysisContext(module)
    coordinator = ConfluenceComposition(
        default_memory_modules(context, profiles),
        default_speculation_modules(context, profiles),
        config)
    return DependenceAnalysis("confluence", module, context, profiles,
                              coordinator)


def build_memory_speculation(module: Module,
                             profiles: ProfileBundle,
                             context: Optional[AnalysisContext] = None,
                             config: Optional[OrchestratorConfig] = None
                             ) -> DependenceAnalysis:
    """CAF plus profile-only memory speculation (the costly bar of
    Figure 8)."""
    context = context or AnalysisContext(module)
    modules = default_memory_modules(context, profiles)
    modules.append(MemorySpeculation(context, profiles))
    orchestrator = Orchestrator(modules, config)
    return DependenceAnalysis("memory-speculation", module, context,
                              profiles, orchestrator)
