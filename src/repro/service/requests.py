"""Service requests and cache versioning.

An :class:`AnalysisRequest` is self-contained — it carries the IR
*text* (not parsed objects) plus entry point, system name, and the
orchestrator configuration — so it can be hashed, pickled to worker
processes, and replayed from a cold start.

Cache keying comes in three granularities:

- ``version_key`` — the exact-module identity: IR text, entry,
  system, answer-relevant config, framework version.  Matching it
  means the request is byte-for-byte the one that produced the cached
  rows (the fast path; also the in-flight dedup identity).
- ``lineage_key`` — the same ingredients *minus the IR text*: the
  family of requests an edited module still belongs to.  Cached loop
  answers are indexed by lineage so an incremental probe can find a
  prior run's rows after an edit.
- :func:`loop_footprint_digest` — per cached loop answer, a hash of
  the *content* of exactly the functions that answer consulted (its
  dependence footprint) plus the module header (globals/structs).
  An edit outside a loop's footprint leaves its digest unchanged, so
  the answer is reused; an edit inside it changes the digest and the
  loop is recomputed.  That is the incremental-invalidation story.

The training profile is a pure function of IR text + entry (the
interpreter is deterministic), so those subsume the profile bundle;
the bundle's own digest is additionally stored alongside cached
results for audit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Mapping, Optional, Sequence, Tuple

from .. import __version__
from ..core.orchestrator import OrchestratorConfig
from ..modules.memory import MEMORY_MODULE_CLASSES
from ..modules.speculation import (
    MemorySpeculation,
    SPECULATION_MODULE_CLASSES,
)

#: Analysis systems the service can build, mapped to the classes each
#: builder instantiates (in evaluation order — order matters to the
#: greedy bailout policy, so it is part of the version key).
SYSTEM_ROSTERS = {
    "caf": tuple(MEMORY_MODULE_CLASSES),
    "confluence": tuple(MEMORY_MODULE_CLASSES) +
                  tuple(SPECULATION_MODULE_CLASSES),
    "scaf": tuple(MEMORY_MODULE_CLASSES) +
            tuple(SPECULATION_MODULE_CLASSES),
    "memory-speculation": tuple(MEMORY_MODULE_CLASSES) +
                          (MemorySpeculation,),
}


def system_module_roster(system: str) -> Tuple[str, ...]:
    """Class names of the modules ``system`` is built from."""
    try:
        return tuple(cls.__name__ for cls in SYSTEM_ROSTERS[system])
    except KeyError:
        raise ValueError(f"unknown analysis system: {system!r}") from None


#: OrchestratorConfig fields that cannot change a computed answer:
#: ``use_cache``/``max_cache_entries`` only tune the in-process memo
#: cache (the memoization is answer-transparent), and
#: ``track_contributors`` only toggles provenance bookkeeping.
#: Hashing them into the persistent cache key would bust the on-disk
#: cache every time a client flips a memo knob, so they are excluded.
ANSWER_IRRELEVANT_CONFIG_FIELDS = frozenset({
    "use_cache", "max_cache_entries", "track_contributors",
})


def config_fingerprint(config: Optional[OrchestratorConfig]) -> dict:
    """A stable, JSON-able projection of the *answer-relevant* part of
    the orchestrator config (cache-plumbing knobs excluded)."""
    config = config or OrchestratorConfig()
    return {f.name: getattr(config, f.name)
            for f in fields(OrchestratorConfig)
            if f.name not in ANSWER_IRRELEVANT_CONFIG_FIELDS}


@dataclass(frozen=True)
class AnalysisRequest:
    """One unit of client demand: analyze a module's hot loops.

    ``loops`` narrows the request to specific hot loops by name; empty
    means "every hot loop the profile selects".
    """

    name: str                       # display/workload name
    source: str                     # textual IR
    entry: str = "main"
    system: str = "scaf"
    loops: Tuple[str, ...] = ()
    config: Optional[OrchestratorConfig] = None

    def _key_ingredients(self) -> dict:
        return {
            "entry": self.entry,
            "system": self.system,
            "modules": system_module_roster(self.system),
            "config": config_fingerprint(self.config),
            "framework": __version__,
        }

    def version_key(self) -> str:
        """The exact-module persistent-cache key for this request."""
        payload = dict(self._key_ingredients())
        payload["ir"] = self.source
        return _digest(payload)

    def lineage_key(self) -> str:
        """The source-independent request-family key.

        Two requests with the same lineage differ at most in IR text
        (and display name / loop subset).  Cached loop answers are
        indexed by lineage so that after an edit the incremental probe
        can still find the prior rows and compare their per-function
        footprint digests against the new module's fingerprints.
        """
        return _digest(self._key_ingredients())

    def duration_lineage(self) -> str:
        """The keying for measured-duration rows: the lineage scoped
        to the workload name.

        ``lineage_key`` deliberately ignores both the IR text and the
        display name, so *unrelated* modules analyzed under one
        entry/system/config share a lineage (the incremental probe
        disambiguates them by footprint fingerprints).  Duration rows
        must not bleed across unrelated modules, yet must still follow
        one named workload through successive edits; the name is the
        stable family discriminator that survives an edit."""
        return f"{self.lineage_key()}:{self.name}"


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def loop_footprint_digest(footprint: Sequence[str],
                          fingerprints: Mapping[str, str],
                          header_fingerprint: str) -> Optional[str]:
    """Digest of the exact code a cached loop answer depends on.

    ``footprint`` names the functions the analysis consulted (callgraph
    reachability from the loop's function plus the orchestrator's
    consulted-function trace); ``fingerprints`` maps function name to
    content hash in some module version (:func:`repro.ir.
    module_fingerprints`).  Returns ``None`` when a footprint function
    does not exist in that module — the answer cannot be valid there.

    Stored at cache-write time against the producing module, and
    recomputed at probe time against the *edited* module: equal digests
    mean every consulted function (and the globals/structs header) is
    byte-identical, so the cached answer is still the answer.

    Two footprint dialects coexist.  Legacy footprints name only
    functions (no ``:`` in any entry) and conservatively fold the
    whole-module header hash into the digest.  *Scoped* footprints
    (any entry contains ``:`` — ``global:``, ``globalusers:``,
    ``struct:``, and always the ``meta:scoped`` sentinel) name the
    exact header entities the analysis scanned, with per-entity hashes
    from :func:`repro.ir.module_content_fingerprints`; the
    whole-header hash is then *excluded* so edits to unrelated globals
    or structs cannot invalidate the answer.
    """
    names = sorted(set(footprint))
    scoped = any(":" in name for name in names)
    pairs = []
    for name in names:
        fingerprint = fingerprints.get(name)
        if fingerprint is None:
            return None
        pairs.append([name, fingerprint])
    header = "" if scoped else header_fingerprint
    return _digest({"header": header, "functions": pairs})


def profile_digest(profiles) -> str:
    """Digest of a training run's observable outcome (stored with
    cached results so a cache entry records which profile produced
    it; the interpreter's determinism makes this a function of the
    IR text + entry that ``version_key`` already covers)."""
    loop_stats = sorted(
        (loop.name, stats.invocations, stats.iterations,
         stats.dynamic_insts)
        for loop, stats in profiles.loop_stats.items())
    payload = json.dumps({
        "total_instructions": profiles.total_instructions,
        "exit_value": profiles.exit_value,
        "loop_stats": loop_stats,
    }, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
