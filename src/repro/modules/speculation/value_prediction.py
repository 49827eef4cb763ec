"""ValuePrediction: dependences through predictable loads (§4.2.4).

A load that produced one value on every profiled execution can be
validated with a single compare.  Dependences that source from or
sink into such a load carry no information beyond the predicted
value, so they can be speculatively discharged.  Additionally, a
predictable load positioned between the endpoints of a queried
dependence (post-dominating the source, dominating the destination)
acts as a *kill*: premise must-alias queries relate its footprint to
the endpoints — the module's factored behaviour.
"""

from __future__ import annotations

from typing import Optional

from ...core.module import AnalysisModule, Resolver
from ...ir import Instruction, LoadInst
from ...query import (
    AliasQuery,
    AliasResult,
    MemoryLocation,
    ModRefQuery,
    ModRefResult,
    OptionSet,
    QueryResponse,
    SpeculativeAssertion,
)
from .common import MODULE_VALUE_PRED, VALUE_PRED_CHECK, validation_cost

#: Bound on kill candidates examined per query.
MAX_KILL_CANDIDATES = 32


class ValuePrediction(AnalysisModule):
    """Speculates on loads with profile-constant values."""

    name = MODULE_VALUE_PRED
    is_speculative = True
    #: memdep: dependences observed in the profile are left in place;
    #: edge: the validation cost scales with execution counts.
    profiles_read = frozenset({"value", "memdep", "edge"})
    average_assertion_cost = VALUE_PRED_CHECK

    def _is_predictable(self, inst) -> bool:
        return (isinstance(inst, LoadInst) and self.profiles is not None
                and self.profiles.value.is_predictable(inst))

    def _assertion(self, load: LoadInst) -> SpeculativeAssertion:
        edge = self.profiles.edge if self.profiles else None
        return SpeculativeAssertion(
            module_id=MODULE_VALUE_PRED,
            points=(load,),
            cost=validation_cost(edge, load, VALUE_PRED_CHECK),
            description=f"predictable load %{load.name}",
        )

    def modref(self, query: ModRefQuery, resolver: Resolver) -> QueryResponse:
        if self.profiles is None:
            return QueryResponse.mod_ref()
        i1 = query.inst
        i2 = query.target

        # Direct: the dependence endpoint is itself a predictable load.
        # Only high-confidence removals are produced: a dependence that
        # *manifested* during profiling would misspeculate under
        # reordering, so it is left in place (the prediction held in
        # the profiled schedule, not in a transformed one).
        observed = (query.loop is not None
                    and isinstance(i2, Instruction)
                    and self.profiles.memdep.is_observed(
                        query.loop, i1, i2,
                        query.relation.is_cross_iteration))
        if not observed:
            for endpoint in (i1, i2):
                if self._is_predictable(endpoint):
                    return QueryResponse(
                        ModRefResult.NO_MOD_REF,
                        OptionSet.single(self._assertion(endpoint)))

        # Factored: a predictable load interposed between the endpoints
        # whose footprint must-aliases one of them.
        if not isinstance(i2, Instruction):
            return QueryResponse.mod_ref()
        loc1 = self.footprint(i1)
        loc2 = self.footprint(i2)
        if loc1 is None or loc2 is None:
            return QueryResponse.mod_ref()
        fn = i1.function
        if fn is None or fn is not i2.function:
            return QueryResponse.mod_ref()
        cfg = self.cfg_view(query)
        if cfg is None:
            return QueryResponse.mod_ref()

        candidates = [inst for inst in fn.instructions()
                      if self._is_predictable(inst)
                      and inst is not i1 and inst is not i2]
        for load in candidates[:MAX_KILL_CANDIDATES]:
            if not cfg.is_live(load.parent):
                continue
            if not (cfg.post_dominates(load, i1)
                    and cfg.dominates(load, i2)):
                continue
            kill_loc = MemoryLocation.of(load)
            for loc in (loc1, loc2):
                if loc.size <= 0 or kill_loc.size < loc.size:
                    continue
                premise = AliasQuery(kill_loc, query.relation, loc,
                                     query.loop, query.context, cfg,
                                     desired=AliasResult.MUST_ALIAS)
                answer = resolver.premise(premise)
                if answer.result is AliasResult.MUST_ALIAS:
                    options = answer.options * OptionSet.single(
                        self._assertion(load))
                    return QueryResponse(ModRefResult.NO_MOD_REF, options)
        return QueryResponse.mod_ref()
