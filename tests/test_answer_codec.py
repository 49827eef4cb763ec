"""Differential tests: the answer codec against the reference oracle in
``answer_codec_oracle.py``.

``loop_answer_to_dict`` and ``loop_answer_from_dict`` are written out
field by field for speed; the oracle walks the dataclasses instead.
Every encoding must produce the oracle's JSON bytes, both key-sorted
(the result cache's payloads and the daemon's wire frames) and in
insertion order (the CLI's ``--json``), and every decoding must equal
the oracle's, down to ``repr`` (golden digests hash
``repr(identity())``).  Checked on generated answers (0-60 pairs,
empty and multi-module contributors, non-ASCII labels, signed zeros,
infinities, extreme and NaN floats) and on the real sequential answers
of two multi-loop workloads.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.daemon.protocol import encode_message
from repro.service import (
    LoopAnswer,
    QueryAnswer,
    STATUS_CACHED,
    STATUS_COMPUTED,
    STATUS_FALLBACK,
    loop_answer_from_dict,
    loop_answer_to_dict,
    request_for_workload,
)

from tests import answer_codec_oracle as oracle
from tests.test_service import sequential_answers

MODULES = ("basic-aa", "scev-aa", "control-spec", "value-prediction",
           "points-to", "read-only", "kill-flow-aa")

labels = st.one_of(
    st.sampled_from(["%loop.3:a2", "%entry.0:call", "%?:store"]),
    st.text(max_size=12),
    st.text(alphabet="αβγ→✓中文🙂é́\x00\"\\\n", max_size=8))

floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                     5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     0.1, 1 / 3]),
    st.floats())

contributors = st.one_of(
    st.just(()),
    st.lists(st.sampled_from(MODULES), max_size=4, unique=True)
    .map(lambda names: tuple(sorted(names))),
    st.lists(labels, max_size=3).map(tuple))

query_answers = st.builds(
    QueryAnswer, labels, labels, st.booleans(),
    st.sampled_from(["NoModRef", "Ref", "Mod", "ModRef"]),
    st.booleans(), st.booleans(), floats, contributors)

loop_answers = st.builds(
    LoopAnswer, labels, st.sampled_from(["caf", "scaf"]), labels,
    st.one_of(st.sampled_from([STATUS_COMPUTED, STATUS_CACHED,
                               STATUS_FALLBACK]), labels),
    floats, floats, st.integers(), st.integers(min_value=0),
    st.integers(min_value=0), floats,
    st.lists(query_answers, max_size=60).map(tuple))


def _has_nan(answer: LoopAnswer) -> bool:
    values = [answer.time_fraction, answer.no_dep_percent,
              answer.latency_s]
    values += [a.validation_cost for a in answer.answers]
    return any(math.isnan(v) for v in values)


def assert_codec_matches_oracle(answer: LoopAnswer) -> None:
    doc = loop_answer_to_dict(answer)
    reference = oracle.loop_answer_to_dict(answer)
    # Cache payloads and wire frames sort keys; the CLI's --json keeps
    # insertion order.
    assert json.dumps(doc, sort_keys=True) \
        == json.dumps(reference, sort_keys=True)
    assert encode_message({"answers": [doc]}) \
        == encode_message({"answers": [reference]})
    assert json.dumps(doc, indent=2, default=str) \
        == json.dumps(reference, indent=2, default=str)

    stored = json.loads(json.dumps(doc, sort_keys=True))
    decoded = loop_answer_from_dict(stored)
    assert repr(decoded) == repr(oracle.loop_answer_from_dict(stored))
    assert repr(decoded.identity()) \
        == repr(oracle.loop_answer_from_dict(stored).identity())
    assert type(decoded.answers) is tuple
    assert all(type(a.contributors) is tuple for a in decoded.answers)
    if not _has_nan(answer):
        assert loop_answer_from_dict(doc) == answer
        assert decoded == oracle.loop_answer_from_dict(stored)


@settings(max_examples=200, deadline=None)
@given(loop_answers)
def test_generated_answers_match_oracle(answer):
    assert_codec_matches_oracle(answer)


def test_signed_zero_and_infinities_survive_the_round_trip():
    pair = QueryAnswer("%l.0:a", "%l.1:b", True, "NoModRef", True, True,
                       -0.0, ("control-spec", "value-prediction"))
    answer = LoopAnswer("w", "scaf", "@f:%l", STATUS_COMPUTED, math.inf,
                        -0.0, 1, 1, 1, -math.inf, (pair,))
    assert_codec_matches_oracle(answer)
    text = json.dumps(loop_answer_to_dict(answer), sort_keys=True)
    assert '"validation_cost": -0.0' in text
    assert '"latency_s": -Infinity' in text


@pytest.mark.parametrize("system", ["caf", "scaf"])
@pytest.mark.parametrize("name", ["056.ear", "129.compress"])
def test_workload_answers_match_oracle(name, system):
    answers = sequential_answers(request_for_workload(name, system))
    assert len(answers) >= 2 and all(a.answers for a in answers)
    for answer in answers:
        assert_codec_matches_oracle(answer)
