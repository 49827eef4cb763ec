"""Query responses and the join semantics of Algorithm 2."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .assertions import OptionSet
from .queries import AliasResult, ModRefResult, most_precise, precision

Result = Union[AliasResult, ModRefResult]


@dataclass(frozen=True)
class QueryResponse:
    """``r = (R, S)``: a result plus the assertion options realizing it."""

    result: Result
    options: OptionSet

    # -- constructors -----------------------------------------------------

    @staticmethod
    def free(result: Result) -> "QueryResponse":
        """A caveat-free (non-speculative) response."""
        return QueryResponse(result, OptionSet.free())

    @staticmethod
    def no_alias() -> "QueryResponse":
        return QueryResponse.free(AliasResult.NO_ALIAS)

    @staticmethod
    def must_alias() -> "QueryResponse":
        return QueryResponse.free(AliasResult.MUST_ALIAS)

    @staticmethod
    def may_alias() -> "QueryResponse":
        return QueryResponse.free(AliasResult.MAY_ALIAS)

    @staticmethod
    def no_mod_ref() -> "QueryResponse":
        return QueryResponse.free(ModRefResult.NO_MOD_REF)

    @staticmethod
    def mod_ref() -> "QueryResponse":
        return QueryResponse.free(ModRefResult.MOD_REF)

    @staticmethod
    def conservative(result_type: type) -> "QueryResponse":
        if result_type is AliasResult:
            return QueryResponse.may_alias()
        return QueryResponse.mod_ref()

    # -- properties --------------------------------------------------------

    @property
    def is_speculative(self) -> bool:
        return not self.options.is_free

    @property
    def is_realizable(self) -> bool:
        """False if no assertion option survives (result unusable)."""
        return not self.options.is_empty

    @property
    def is_conservative(self) -> bool:
        return self.result in (AliasResult.MAY_ALIAS, ModRefResult.MOD_REF)

    def is_definite_free(self) -> bool:
        """Most precise result with a cost-free option (base bailout)."""
        return (precision(self.result) == most_precise(type(self.result))
                and self.options.is_free)

    def cost(self) -> float:
        return self.options.cheapest_cost()

    def __repr__(self) -> str:
        return f"({self.result.value}, {self.options!r})"


class JoinPolicy:
    """How the Orchestrator merges equally-precise equal results."""

    ALL = "all"            # keep every option (enables global reasoning)
    CHEAPEST = "cheapest"  # keep only the locally best option


def join(policy: str, r1: QueryResponse, r2: QueryResponse) -> QueryResponse:
    """Algorithm 2: combine two responses to the same query."""
    if not r1.is_realizable:
        return r2
    if not r2.is_realizable:
        return r1

    p1, p2 = precision(r1.result), precision(r2.result)
    if p1 > p2:
        return r1
    if p2 > p1:
        return r2

    if r1.result == r2.result:
        if policy == JoinPolicy.ALL:
            return QueryResponse(r1.result, r1.options | r2.options)
        merged = r1.options | r2.options
        return QueryResponse(r1.result, merged.keep_cheapest())

    # Special case: Mod ⋈ Ref.  One speculative world says the
    # instruction only writes the footprint, the other says it only
    # reads it; under *both* assertion sets it does neither.
    results = {r1.result, r2.result}
    if results == {ModRefResult.MOD, ModRefResult.REF}:
        if r1.options.conflicts_with(r2.options):
            return _handle_conflicting_assertions(r1, r2)
        return QueryResponse(ModRefResult.NO_MOD_REF,
                             r1.options * r2.options)

    return _handle_conflicting_results(r1, r2)


def _handle_conflicting_assertions(r1: QueryResponse,
                                   r2: QueryResponse) -> QueryResponse:
    """Mod ⋈ Ref whose assertions cannot coexist: keep the cheaper side."""
    return r1 if r1.cost() <= r2.cost() else r2


def _handle_conflicting_results(r1: QueryResponse,
                                r2: QueryResponse) -> QueryResponse:
    """Equally precise, different results (e.g. NoAlias vs MustAlias).

    For non-speculative results this would be an analysis bug; for
    speculative ones it reflects differing profile evidence (§3.3).
    Prefer the response with higher confidence, i.e. the cheaper
    assertions, defaulting to the first.
    """
    if r1.options.is_free and not r2.options.is_free:
        return r1
    if r2.options.is_free and not r1.options.is_free:
        return r2
    return r1 if r1.cost() <= r2.cost() else r2
