"""Reference implementation of the answer codec, kept only as a test
oracle.

These are the straightforward versions of ``loop_answer_to_dict`` and
``loop_answer_from_dict`` that ``repro.service.answers`` replaced:
the encoder lets :func:`dataclasses.asdict` walk every field (a deep
copy per answer and per query answer), and the decoder builds each
dataclass by keyword.  The encoder follows the dataclasses' field lists
by construction, so ``test_answer_codec.py`` demands that the
production codec's JSON bytes and decoded objects equal these: a field
added to a dataclass but left out of the hand-written codec shows up
there.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict

from repro.service.answers import LoopAnswer, QueryAnswer


def loop_answer_to_dict(answer: LoopAnswer) -> Dict:
    doc = asdict(answer)
    doc["answers"] = [asdict(a) for a in answer.answers]
    for a in doc["answers"]:
        a["contributors"] = list(a["contributors"])
    return doc


def loop_answer_from_dict(doc: Dict) -> LoopAnswer:
    answers = tuple(
        QueryAnswer(
            src=a["src"], dst=a["dst"],
            cross_iteration=a["cross_iteration"], result=a["result"],
            removed=a["removed"], speculative=a["speculative"],
            validation_cost=a["validation_cost"],
            contributors=tuple(a["contributors"]),
        )
        for a in doc.get("answers", ()))
    return LoopAnswer(
        workload=doc["workload"], system=doc["system"], loop=doc["loop"],
        status=doc["status"], time_fraction=doc["time_fraction"],
        no_dep_percent=doc["no_dep_percent"],
        no_dep_count=doc["no_dep_count"],
        total_queries=doc["total_queries"],
        speculative_count=doc["speculative_count"],
        latency_s=doc["latency_s"], answers=answers,
    )
