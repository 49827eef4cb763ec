"""Golden answers: canonical digests of every answer scafbench checks.

``golden.json`` holds one entry per (input, workload, loop), where the
input is ``caf`` or ``scaf`` on the unedited workload, or ``caf-edit``
on the workload with the uncalled probe helper appended.  An entry is
the sha256 of the answer's :meth:`LoopAnswer.identity` plus its
``no_dep_percent``.  ``make_golden.py`` writes the file from the
sequential in-process path; ``run.py`` checks every delivered answer
against it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Appended to a workload by every edit of the edit-stream workload.
#: Never called and touching only its own alloca, so it lies outside
#: every hot loop's dependence footprint and the answers must not move.
HELPER = """
func @__incremental_probe(i32 %seed) -> i32 {
entry:
  %slot = alloca i32
  store i32 %seed, i32* %slot
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i.next, %loop]
  %cur = load i32* %slot
  %next = add i32 %cur, {step}
  store i32 %next, i32* %slot
  %i.next = add i32 %i, 1
  %more = icmp slt i32 %i.next, 4
  condbr i1 %more, %loop, %done
done:
  %out = load i32* %slot
  ret i32 %out
}
"""


def edited_source(source: str, step: int) -> str:
    return source + HELPER.replace("{step}", str(step))


def answer_digest(answer) -> str:
    """sha256 of ``repr(answer.identity())``: a tuple of strings, ints,
    bools, floats and frozen dataclasses, whose repr is canonical (and
    ten times cheaper than a JSON dump: daemon-hit checks ~70 answers
    a second)."""
    text = repr(answer.identity())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def entry_for(answer) -> Dict:
    return {"sha256": answer_digest(answer),
            "no_dep_percent": answer.no_dep_percent}


def load(path: Path = GOLDEN_PATH) -> Dict:
    with open(path) as f:
        return json.load(f)


def check(golden: Dict, kind: str, workload: str,
          answers: Iterable) -> Tuple[List[str], int, int]:
    """Compare one request's delivered answers with golden.

    Returns ``(mismatches, missing, fallbacks)``.  A mismatch is an
    answer that differs from golden (wrong output); a missing loop or
    a conservative fallback answer is a failed request, not a wrong
    one.
    """
    from repro.service import STATUS_FALLBACK

    expected = golden["inputs"][kind][workload]
    mismatches = [f"{kind}/{workload}/{a.loop}" for a in answers
                  if a.status != STATUS_FALLBACK
                  and entry_for(a) != expected.get(a.loop)]
    fallbacks = sum(a.status == STATUS_FALLBACK for a in answers)
    delivered = {a.loop for a in answers}
    missing = sum(loop not in delivered for loop in expected)
    return mismatches, missing, fallbacks
