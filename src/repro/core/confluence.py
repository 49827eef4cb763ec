"""Composition by confluence: the best prior approach (§2.2.1, §5).

Each speculative technique resolves dependences *in isolation*; the
final answer is the confluence (join) of the individual results.  As
in the paper's evaluation:

- all memory-analysis modules count as one component, **CAF**, inside
  which collaboration is permitted (premise queries flow only among
  memory modules);
- each speculation module runs alone, with a resolver that answers
  every premise conservatively — no speculative control flow reaches
  kill-flow, no points-to answers reach read-only, and so on.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Set

from ..query import JoinPolicy, Query, QueryResponse, join, precision
from .module import AnalysisModule, NullResolver
from .orchestrator import Orchestrator, OrchestratorConfig, OrchestratorStats


class ConfluenceComposition:
    """Joins CAF's answer with each speculation module's solo answer."""

    def __init__(self, memory_modules: Sequence[AnalysisModule],
                 speculation_modules: Sequence[AnalysisModule],
                 config: Optional[OrchestratorConfig] = None):
        self.config = config or OrchestratorConfig()
        self.caf = Orchestrator(memory_modules, self.config)
        self.speculation_modules = list(speculation_modules)
        self._null = NullResolver()
        self.last_contributors: FrozenSet[str] = frozenset()

    @property
    def stats(self) -> OrchestratorStats:
        """Counters (shared with the inner CAF orchestrator; solo
        speculation-module evaluations are folded in)."""
        return self.caf.stats

    def reset_stats(self) -> None:
        self.caf.reset_stats()

    def handle(self, query: Query) -> QueryResponse:
        contributors: Set[str] = set()
        final = self.caf.handle(query)
        if not final.is_conservative:
            contributors.add("caf")
        for module in self.speculation_modules:
            self.caf.stats.module_evals[module.name] = \
                self.caf.stats.module_evals.get(module.name, 0) + 1
            response = Orchestrator._eval(module, query, self._null)
            if response.is_conservative or not response.is_realizable:
                continue
            before = final
            final = join(self.config.join_policy, final, response)
            if precision(final.result) > precision(before.result):
                contributors.add(module.name)
        self.last_contributors = frozenset(contributors)
        return final

    def clear_cache(self) -> None:
        self.caf.clear_cache()
