"""The service's wire format: picklable, JSON-able query answers.

Dependence-analysis results inside the framework reference live IR
objects (:class:`Instruction`, :class:`Loop`) whose identity is
process-local, so they can neither cross a worker-pool boundary nor
persist on disk.  This module defines the flattened schema both sides
of that boundary speak:

- :class:`QueryAnswer` — the outcome of one dependence query, with
  instructions named by stable labels (``%block.position:name``) that
  are reproducible from the IR text alone;
- :class:`LoopAnswer` — one hot loop's PDG summary (the %NoDep metric
  plus every per-pair answer) and how it was produced (``computed``,
  ``cached``, or ``fallback``).

The same schema backs ``python -m repro analyze --json``, the batch
service's responses, and the persistent result cache, so external
tools see one format everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir import Instruction

#: How a LoopAnswer came to be.
STATUS_COMPUTED = "computed"     # analyzed by a worker this run
STATUS_CACHED = "cached"         # served from the persistent cache
STATUS_FALLBACK = "fallback"     # conservative degradation (timeout/crash)


def inst_label(inst: Instruction) -> str:
    """A stable, human-readable label for one instruction.

    ``%block.position:name`` is reproducible across processes that
    parsed the same IR text, unlike ``id()``-based identity.
    """
    block = getattr(inst, "parent", None)
    if block is None:
        return f"%?:{inst.name or inst.opcode}"
    try:
        position = block.instructions.index(inst)
    except ValueError:
        position = -1
    return f"%{block.name}.{position}:{inst.name or inst.opcode}"


@dataclass(frozen=True)
class QueryAnswer:
    """One dependence query's outcome, flattened for transport."""

    src: str                       # stable label of the source inst
    dst: str                       # stable label of the dest inst
    cross_iteration: bool
    result: str                    # ModRefResult value, e.g. "NoModRef"
    removed: bool                  # client can act on a no-dep answer
    speculative: bool              # removal needs validation
    validation_cost: float
    contributors: Tuple[str, ...]  # contributing module names, sorted


@dataclass(frozen=True)
class LoopAnswer:
    """One hot loop analyzed by one system: the service's response unit."""

    workload: str
    system: str
    loop: str
    status: str                    # STATUS_COMPUTED / _CACHED / _FALLBACK
    time_fraction: float           # the loop's share of profiled time
    no_dep_percent: float
    no_dep_count: int
    total_queries: int
    speculative_count: int
    latency_s: float               # analysis wall-clock for this loop
    answers: Tuple[QueryAnswer, ...] = ()

    def identity(self) -> tuple:
        """Everything that must match between a batched and a
        sequential run (latency and provenance excluded)."""
        return (self.workload, self.system, self.loop,
                self.no_dep_count, self.total_queries,
                self.speculative_count, self.answers)


def summarize_pdg(workload: str, system: str, pdg, time_fraction: float,
                  latency_s: float, status: str = STATUS_COMPUTED
                  ) -> LoopAnswer:
    """Flatten a :class:`~repro.clients.LoopPDG` into a LoopAnswer.

    Both the sequential CLI path and the service workers funnel through
    here, so equality of their outputs is a meaningful check.
    """
    answers = tuple(
        QueryAnswer(
            src=inst_label(r.src),
            dst=inst_label(r.dst),
            cross_iteration=r.cross_iteration,
            result=r.response.result.value,
            removed=r.removed,
            speculative=r.speculative,
            validation_cost=r.validation_cost,
            contributors=tuple(sorted(r.contributors)),
        )
        for r in pdg.records)
    return LoopAnswer(
        workload=workload,
        system=system,
        loop=pdg.loop.name,
        status=status,
        time_fraction=time_fraction,
        no_dep_percent=pdg.no_dep_percent,
        no_dep_count=pdg.no_dep_count,
        total_queries=pdg.total_queries,
        speculative_count=sum(1 for r in pdg.records if r.speculative),
        latency_s=latency_s,
        answers=answers,
    )


def fallback_answer(workload: str, system: str, loop: str,
                    time_fraction: float = 0.0) -> LoopAnswer:
    """The conservative degradation: every queried pair keeps its
    dependence (%NoDep = 0), produced without consulting any module."""
    return LoopAnswer(
        workload=workload,
        system=system,
        loop=loop,
        status=STATUS_FALLBACK,
        time_fraction=time_fraction,
        no_dep_percent=0.0,
        no_dep_count=0,
        total_queries=0,
        speculative_count=0,
        latency_s=0.0,
        answers=(),
    )


# -- JSON round-trip ---------------------------------------------------------

def loop_answer_to_dict(answer: LoopAnswer) -> Dict:
    """The JSON document of one answer: fields in declaration order,
    ``contributors`` as a list.

    Built field by field rather than with :func:`dataclasses.asdict`,
    whose recursive deep copy cost a warm cache hit most of its time.
    """
    return {
        "workload": answer.workload,
        "system": answer.system,
        "loop": answer.loop,
        "status": answer.status,
        "time_fraction": answer.time_fraction,
        "no_dep_percent": answer.no_dep_percent,
        "no_dep_count": answer.no_dep_count,
        "total_queries": answer.total_queries,
        "speculative_count": answer.speculative_count,
        "latency_s": answer.latency_s,
        "answers": [{
            "src": a.src,
            "dst": a.dst,
            "cross_iteration": a.cross_iteration,
            "result": a.result,
            "removed": a.removed,
            "speculative": a.speculative,
            "validation_cost": a.validation_cost,
            "contributors": list(a.contributors),
        } for a in answer.answers],
    }


def loop_answer_from_dict(doc: Dict) -> LoopAnswer:
    """Inverse of :func:`loop_answer_to_dict` (arguments in field
    order)."""
    answers = tuple(
        QueryAnswer(a["src"], a["dst"], a["cross_iteration"], a["result"],
                    a["removed"], a["speculative"], a["validation_cost"],
                    tuple(a["contributors"]))
        for a in doc.get("answers", ()))
    return LoopAnswer(
        doc["workload"], doc["system"], doc["loop"], doc["status"],
        doc["time_fraction"], doc["no_dep_percent"], doc["no_dep_count"],
        doc["total_queries"], doc["speculative_count"], doc["latency_s"],
        answers)
