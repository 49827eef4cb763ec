"""Persistent, versioned result cache (sqlite).

Stores one row per (version key, hot loop) holding the JSON-encoded
:class:`LoopAnswer`, plus one metadata row per version key recording
the hot-loop roster, the module roster, and the training profile's
digest.  The metadata row is what makes a *complete* lookup possible
before any analysis runs: a request hits only when the meta row and
every per-loop row are present.

Two invalidation regimes coexist:

- **Exact versioning** (:func:`repro.service.requests.AnalysisRequest.
  version_key`): a changed module, config, or framework version
  derives a fresh key and never sees stale rows.  ``prune`` deletes
  rows under other keys; ``invalidate`` removes one key explicitly.
- **Incremental (footprint) matching**: every answer row additionally
  records its *lineage key* (all key ingredients except the IR text),
  the names of the functions the analysis consulted (its dependence
  footprint), and a digest of those functions' content hashes plus the
  module header.  :meth:`ResultCache.lookup_footprints` re-derives the
  digest from an *edited* module's fingerprints — equal digest means
  the edit is outside the loop's footprint and the answer is reused.

Schema v2 adds the ``lineage_key``/``footprint``/``footprint_digest``/
``stored_at`` columns; :meth:`ResultCache` migrates v1 databases in
place (old rows keep serving exact-key lookups and simply never match
an incremental probe).

Schema v3 extends the meta row with the training run's *profile
provenance*: the hot loops' time fractions (feeds the queue
scheduler's longest-processing-time-first ordering), the executed
function scope, and a digest of that scope's content hashes
(``profile_scope_digest``).  :meth:`lookup_profile` returns a
workload's freshest such row in a lineage so an incremental probe can
reuse the prior hot-loop roster *without re-interpreting* an edited
module when the edit is provably outside every executed function.
Pre-v3 rows migrate with empty provenance and simply never allow
roster reuse.

Schema v4 adds ``total_instructions`` to the meta row: the training
run's total dynamic instruction count, which scales the per-loop time
fractions into absolute LPT weights comparable *across* modules (a
tiny module's 90% loop no longer outranks a huge module's 12% loops
in the global work queue).  Migrated rows default to 0 and fall back
to fraction-only ordering.

The cache is only ever touched from the scheduler process (workers
stream results back instead of writing), so a single connection with
a process-level lock suffices; WAL mode plus a busy timeout (with one
counted retry on lock contention) keeps concurrent CLI invocations
and daemon fleets sharing one cache directory safe.

As the L1 of a :class:`repro.cachetier.tiered.TieredCache`, the store
also speaks *bundles*: :meth:`ResultCache.export_bundle` serializes
one version key's meta row plus answer rows — digests verbatim, so a
receiving host can revalidate footprints without the producing
module — and :meth:`ResultCache.adopt_bundle` installs such a bundle
as if it had been computed locally.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .answers import (
    LoopAnswer,
    STATUS_CACHED,
    STATUS_COMPUTED,
    loop_answer_from_dict,
    loop_answer_to_dict,
)
from .requests import TrainingRun, loop_footprint_digest

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    version_key    TEXT PRIMARY KEY,
    lineage_key    TEXT NOT NULL DEFAULT '',
    workload       TEXT NOT NULL,
    system         TEXT NOT NULL,
    entry          TEXT NOT NULL,
    modules        TEXT NOT NULL,
    profile_digest TEXT NOT NULL,
    hot_loops      TEXT NOT NULL,
    created_at     REAL NOT NULL,
    hot_fractions        TEXT NOT NULL DEFAULT '{}',
    executed_functions   TEXT NOT NULL DEFAULT '[]',
    profile_scope_digest TEXT NOT NULL DEFAULT '',
    total_instructions   INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS answers (
    version_key      TEXT NOT NULL,
    loop_name        TEXT NOT NULL,
    lineage_key      TEXT NOT NULL DEFAULT '',
    footprint        TEXT NOT NULL DEFAULT '[]',
    footprint_digest TEXT NOT NULL DEFAULT '',
    stored_at        REAL NOT NULL DEFAULT 0,
    payload          TEXT NOT NULL,
    PRIMARY KEY (version_key, loop_name)
);
CREATE TABLE IF NOT EXISTS durations (
    version_key TEXT NOT NULL,
    loop_name   TEXT NOT NULL,
    lineage_key TEXT NOT NULL DEFAULT '',
    duration_s  REAL NOT NULL,
    samples     INTEGER NOT NULL DEFAULT 1,
    updated_at  REAL NOT NULL DEFAULT 0,
    PRIMARY KEY (version_key, loop_name)
);
"""

#: v1 -> v2 -> v3 -> v4 column additions, applied to databases created
#: before the incremental-reanalysis / profile-provenance schemas.
_MIGRATIONS = {
    "meta": (
        ("lineage_key", "TEXT NOT NULL DEFAULT ''"),
        ("hot_fractions", "TEXT NOT NULL DEFAULT '{}'"),
        ("executed_functions", "TEXT NOT NULL DEFAULT '[]'"),
        ("profile_scope_digest", "TEXT NOT NULL DEFAULT ''"),
        ("total_instructions", "INTEGER NOT NULL DEFAULT 0"),
    ),
    "answers": (
        ("lineage_key", "TEXT NOT NULL DEFAULT ''"),
        ("footprint", "TEXT NOT NULL DEFAULT '[]'"),
        ("footprint_digest", "TEXT NOT NULL DEFAULT ''"),
        ("stored_at", "REAL NOT NULL DEFAULT 0"),
    ),
}

_LINEAGE_INDEX = ("CREATE INDEX IF NOT EXISTS answers_by_lineage"
                  " ON answers (lineage_key, loop_name)")

#: Serves ``has_lineage`` and ``lookup_profile`` without a scan of
#: ``meta`` (an incremental probe asks both on every exact-key miss).
_META_LINEAGE_INDEX = ("CREATE INDEX IF NOT EXISTS meta_by_lineage"
                       " ON meta (lineage_key, workload)")

_DURATIONS_INDEX = ("CREATE INDEX IF NOT EXISTS durations_by_lineage"
                    " ON durations (lineage_key, loop_name)")


@dataclass(frozen=True)
class CacheEntryMeta:
    """What the cache remembers about one version key."""

    version_key: str
    workload: str
    system: str
    entry: str
    modules: Tuple[str, ...]
    #: The training run the key's answers came from.  Migrated rows
    #: carry empty provenance (v3 and v4 fields), which never allows
    #: roster reuse and falls back to fraction-only LPT ordering.
    run: TrainingRun
    created_at: float
    lineage_key: str = ""


@dataclass(frozen=True)
class FootprintHit:
    """One loop answer revalidated by footprint digest after an edit."""

    loop: str
    answer: LoopAnswer              # status forced to ``cached``
    footprint: Tuple[str, ...]      # consulted-function names
    #: The stored footprint digest, which the revalidation proved
    #: equal to the one computed on the edited module.
    digest: str
    #: The row's payload text, which ``answer`` was decoded from.
    #: Re-storing the answer unchanged copies it (``ResultCache.store``).
    payload: str


class ResultCache:
    """On-disk loop-answer cache under ``cache_dir/results.sqlite``."""

    FILENAME = "results.sqlite"

    #: How long sqlite itself spins on a contended write lock before
    #: surfacing ``database is locked`` (multi-process fleets sharing
    #: one cache directory).
    BUSY_TIMEOUT_MS = 5000

    def __init__(self, cache_dir: str, registry=None):
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        self.path = os.path.join(cache_dir, self.FILENAME)
        self._lock = threading.Lock()
        self._lock_retries = (registry.counter("l1_lock_retries")
                              if registry is not None else None)
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        with self._lock:
            self._conn.execute(
                f"PRAGMA busy_timeout={self.BUSY_TIMEOUT_MS}")
            self._conn.executescript(_SCHEMA)
            self._migrate()
            self._conn.execute(_LINEAGE_INDEX)
            self._conn.execute(_META_LINEAGE_INDEX)
            self._conn.execute(_DURATIONS_INDEX)
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
            except sqlite3.DatabaseError:
                pass  # read-only FS etc.: correctness is unaffected
            self._conn.commit()

    def _with_retry(self, fn):
        """One locked sqlite operation, retried once on contention.

        ``busy_timeout`` already makes sqlite spin, so reaching the
        ``database is locked`` error means a sibling process held the
        write lock for several seconds — back off briefly and try once
        more (counted as ``l1_lock_retries``) before giving up.
        """
        with self._lock:
            try:
                return fn()
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                if self._lock_retries is not None:
                    self._lock_retries.inc()
                try:
                    self._conn.rollback()
                except sqlite3.Error:
                    pass
                time.sleep(0.05)
                return fn()

    def _migrate(self) -> None:
        """Add any v2 columns missing from a pre-incremental database."""
        for table, columns in _MIGRATIONS.items():
            present = {row[1] for row in self._conn.execute(
                f"PRAGMA table_info({table})").fetchall()}
            for name, decl in columns:
                if name not in present:
                    self._conn.execute(
                        f"ALTER TABLE {table} ADD COLUMN {name} {decl}")

    # -- lookup --------------------------------------------------------------

    _META_COLUMNS = ("version_key, workload, system, entry, modules,"
                     " profile_digest, hot_loops, created_at, lineage_key,"
                     " hot_fractions, executed_functions,"
                     " profile_scope_digest, total_instructions")

    @staticmethod
    def _meta_from_row(row) -> CacheEntryMeta:
        return CacheEntryMeta(
            version_key=row[0],
            workload=row[1], system=row[2], entry=row[3],
            modules=tuple(json.loads(row[4])),
            run=TrainingRun(
                hot_loops=tuple(json.loads(row[6])),
                hot_fractions=json.loads(row[9] or "{}"),
                total_instructions=int(row[12] or 0),
                profile_digest=row[5],
                executed_functions=tuple(json.loads(row[10] or "[]")),
                scope_digest=row[11] or ""),
            created_at=row[7],
            lineage_key=row[8],
        )

    def meta(self, version_key: str) -> Optional[CacheEntryMeta]:
        row = self._with_retry(lambda: self._conn.execute(
            f"SELECT {self._META_COLUMNS} FROM meta"
            " WHERE version_key = ?",
            (version_key,)).fetchone())
        if row is None:
            return None
        return self._meta_from_row(row)

    def lookup_profile(self, lineage_key: str,
                       workload: str) -> Optional[CacheEntryMeta]:
        """The freshest meta row of one workload in a lineage carrying
        full profile provenance (executed scope + scope digest), or
        ``None``.

        This is the roster-reuse entry point: the incremental probe
        recomputes the scope digest against an *edited* module's
        fingerprints, and an equal digest proves the deterministic
        training run is unchanged — hot-loop roster and time fractions
        carry over with zero re-interpretation.  The lineage key
        ignores the workload name, so many programs share a lineage;
        the name is the family key that survives an edit, and a row
        of another program would never prove anything.
        """
        if not lineage_key:
            return None
        row = self._with_retry(lambda: self._conn.execute(
            f"SELECT {self._META_COLUMNS} FROM meta"
            " WHERE lineage_key = ? AND workload = ?"
            " AND profile_scope_digest != ''"
            " ORDER BY created_at DESC LIMIT 1",
            (lineage_key, workload)).fetchone())
        if row is None:
            return None
        return self._meta_from_row(row)

    def lookup(self, version_key: str, loops: Sequence[str] = ()
               ) -> Optional[Tuple[CacheEntryMeta,
                                   Optional[List[LoopAnswer]]]]:
        """A key's meta row and cached answers: ``None`` when the key
        has no meta row, ``(meta, None)`` when it has one but misses.

        A hit requires the meta row *and* an answer row for every
        requested loop (every hot loop when ``loops`` is empty) — a
        partially-populated key counts as a miss so callers recompute
        rather than serve holes.  The meta row comes back on a hit and
        on a miss that read one, so the caller reads it once either
        way (a miss still names the key's training run).
        """
        meta = self.meta(version_key)
        if meta is None:
            return None
        wanted = tuple(loops) or meta.run.hot_loops
        rows = dict(self._with_retry(lambda: self._conn.execute(
            "SELECT loop_name, payload FROM answers"
            " WHERE version_key = ?", (version_key,)).fetchall()))
        if any(name not in rows for name in wanted):
            return meta, None
        answers = []
        for name in wanted:
            doc = json.loads(rows[name])
            doc["status"] = STATUS_CACHED
            answers.append(loop_answer_from_dict(doc))
        return meta, answers

    def has_lineage(self, lineage_key: str) -> bool:
        """Cheap precheck: does any row share this request family?
        (Lets a cold cache skip the incremental probe entirely.)  A
        meta row counts: a program with no hot loops stores no answer
        row, yet its empty roster can be reused."""
        if not lineage_key:
            return False
        row = self._with_retry(lambda: self._conn.execute(
            "SELECT 1 FROM answers WHERE lineage_key = ?"
            " UNION ALL SELECT 1 FROM meta WHERE lineage_key = ?"
            " LIMIT 1", (lineage_key, lineage_key)).fetchone())
        return row is not None

    def lookup_footprints(self, lineage_key: str, workload: str,
                          loops: Sequence[str],
                          fingerprints: Mapping[str, str],
                          header_fingerprint: str
                          ) -> Dict[str, FootprintHit]:
        """Loop answers of ``workload`` from this lineage that survive
        an edit.

        For each requested loop, walks the rows stored under
        ``lineage_key`` (any module version) by the same workload,
        newest first, and re-derives their footprint digests from the
        *current* module's ``fingerprints``.  A row whose recomputed
        digest equals its stored digest was produced from
        byte-identical consulted code; the first such row is the
        loop's answer (on equal ``stored_at``, the lowest rowid), and
        only its payload is read and decoded.  Loops with no surviving
        row are simply absent from the result: they must be
        recomputed.  As in :meth:`lookup_profile`, a lineage is one
        program's edit history: another program's row is never reused,
        since it would be served under that program's name.
        """
        wanted = tuple(loops)
        if not wanted or not lineage_key:
            return {}
        placeholders = ",".join("?" * len(wanted))
        rows = self._with_retry(lambda: self._conn.execute(
            "SELECT a.rowid, a.loop_name, a.footprint, a.footprint_digest"
            " FROM answers AS a"
            " JOIN meta AS m ON m.version_key = a.version_key"
            " WHERE a.lineage_key = ? AND m.workload = ?"
            f" AND a.loop_name IN ({placeholders})"
            # An empty digest marks a legacy or degraded row, which is
            # never incrementally valid.
            " AND a.footprint_digest != ''"
            " ORDER BY a.stored_at DESC, a.rowid",
            (lineage_key, workload, *wanted)).fetchall())
        chosen: Dict[str, Tuple[int, Tuple[str, ...], str]] = {}
        for rowid, loop_name, footprint_json, stored_digest in rows:
            if loop_name in chosen:
                continue  # a fresher row already survived
            footprint = tuple(json.loads(footprint_json))
            digest = loop_footprint_digest(footprint, fingerprints,
                                           header_fingerprint)
            if digest == stored_digest:
                chosen[loop_name] = (rowid, footprint, stored_digest)
        if not chosen:
            return {}
        rowids = [rowid for rowid, _, _ in chosen.values()]
        payloads = dict(self._with_retry(lambda: self._conn.execute(
            "SELECT rowid, payload FROM answers"
            f" WHERE rowid IN ({','.join('?' * len(rowids))})",
            rowids).fetchall()))
        hits = {}
        for loop_name, (rowid, footprint, digest) in chosen.items():
            payload = payloads[rowid]
            doc = json.loads(payload)
            doc["status"] = STATUS_CACHED
            hits[loop_name] = FootprintHit(
                loop=loop_name, answer=loop_answer_from_dict(doc),
                footprint=footprint, digest=digest, payload=payload)
        return hits

    # -- mutation ------------------------------------------------------------

    def store(self, version_key: str, *, workload: str, system: str,
              entry: str, modules: Sequence[str], run: TrainingRun,
              answers: Sequence[LoopAnswer],
              lineage_key: str = "",
              footprints: Mapping[str, Tuple[Sequence[str], str]] = {},
              payloads: Mapping[str, str] = {}
              ) -> None:
        """Insert or refresh one version key's results atomically.

        ``run`` fills the meta row.  ``footprints`` maps loop name to
        the consulted-entity names of its answer and their digest in
        the producing module, which future incremental probes compare
        against.  Loops without a footprint (degraded paths, legacy
        callers) store an empty digest and only ever serve exact-key
        lookups.  ``payloads`` maps loop name to the stored payload
        text of an answer re-stored unchanged (a revalidated row, see
        :class:`FootprintHit`): that text is copied instead of the
        answer being encoded again.
        """
        now = time.time()
        rows = []
        for a in answers:
            footprint, digest = footprints.get(a.loop, ((), ""))
            payload = payloads.get(a.loop)
            if payload is None:
                doc = loop_answer_to_dict(a)
                if doc["status"] == STATUS_CACHED:
                    # Re-persisting a served answer under a fresh
                    # version key: the payload represents a computed
                    # result.
                    doc["status"] = STATUS_COMPUTED
                payload = json.dumps(doc, sort_keys=True)
            rows.append((version_key, a.loop, lineage_key,
                         json.dumps(list(footprint)), digest, now,
                         payload))
        meta_row = (version_key, lineage_key, workload, system, entry,
                    json.dumps(list(modules)), run.profile_digest,
                    json.dumps(list(run.hot_loops)), now,
                    json.dumps(dict(run.hot_fractions), sort_keys=True),
                    json.dumps(list(run.executed_functions)),
                    run.scope_digest, int(run.total_instructions))

        def _write():
            # Explicit column lists: on a migrated v1 database the new
            # columns sit *after* payload, so positional VALUES would
            # scramble rows.
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (version_key, lineage_key,"
                " workload, system, entry, modules, profile_digest,"
                " hot_loops, created_at, hot_fractions,"
                " executed_functions, profile_scope_digest,"
                " total_instructions)"
                " VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?)", meta_row)
            self._conn.executemany(
                "INSERT OR REPLACE INTO answers (version_key, loop_name,"
                " lineage_key, footprint, footprint_digest, stored_at,"
                " payload) VALUES (?,?,?,?,?,?,?)",
                rows)
            self._conn.commit()

        self._with_retry(_write)

    # -- measured task durations ---------------------------------------------

    #: Exponential blend weight for repeated duration measurements of
    #: the same (version_key, loop): new = α·measured + (1-α)·old.
    DURATION_ALPHA = 0.5

    def record_durations(self, version_key: str, lineage_key: str,
                         durations: Mapping[str, float]) -> None:
        """Persist per-loop measured task wall times for one version
        key.  Repeat measurements blend exponentially (run-to-run
        noise dampens, real shifts still track) and bump the sample
        count; readers prefer the freshest row per loop."""
        if not durations:
            return
        now = time.time()
        alpha = self.DURATION_ALPHA

        def _write():
            for loop, seconds in durations.items():
                row = self._conn.execute(
                    "SELECT duration_s, samples FROM durations"
                    " WHERE version_key = ? AND loop_name = ?",
                    (version_key, loop)).fetchone()
                if row is None:
                    self._conn.execute(
                        "INSERT INTO durations (version_key, loop_name,"
                        " lineage_key, duration_s, samples, updated_at)"
                        " VALUES (?,?,?,?,?,?)",
                        (version_key, loop, lineage_key,
                         float(seconds), 1, now))
                else:
                    blended = (alpha * float(seconds)
                               + (1.0 - alpha) * row[0])
                    self._conn.execute(
                        "UPDATE durations SET duration_s = ?,"
                        " samples = ?, updated_at = ?, lineage_key = ?"
                        " WHERE version_key = ? AND loop_name = ?",
                        (blended, row[1] + 1, now, lineage_key,
                         version_key, loop))
            self._conn.commit()

        self._with_retry(_write)

    def lookup_durations(self, lineage_key: str) -> Dict[str, float]:
        """Predicted per-loop wall seconds for a lineage: the freshest
        measurement of each loop name across every version of the
        module (an edited module predicts from its ancestors until
        its own measurements land)."""
        def _read():
            return self._conn.execute(
                "SELECT loop_name, duration_s FROM durations"
                " WHERE lineage_key = ? ORDER BY updated_at ASC",
                (lineage_key,)).fetchall()

        return {loop: seconds
                for loop, seconds in self._with_retry(_read)}

    def lookup_durations_many(self, lineage_keys: Sequence[str]
                              ) -> Dict[str, Dict[str, float]]:
        """Batched :meth:`lookup_durations`: per-loop durations for
        every lineage in ``lineage_keys`` from ONE parameterized query.
        A batch of N requests costs one sqlite round trip, not N (and
        not N×loops).  Rows arrive oldest-first so the dict overwrite
        keeps the freshest measurement per (lineage, loop)."""
        unique = sorted({k for k in lineage_keys if k})
        if not unique:
            return {}
        placeholders = ",".join("?" * len(unique))

        def _read():
            return self._conn.execute(
                "SELECT lineage_key, loop_name, duration_s FROM durations"
                f" WHERE lineage_key IN ({placeholders})"
                " ORDER BY updated_at ASC", tuple(unique)).fetchall()

        out: Dict[str, Dict[str, float]] = {}
        for lineage, loop, seconds in self._with_retry(_read):
            out.setdefault(lineage, {})[loop] = seconds
        return out

    def lookup_durations_exact(self, version_key: str) -> Dict[str, float]:
        """Per-loop measured wall seconds for one exact version key."""
        def _read():
            return self._conn.execute(
                "SELECT loop_name, duration_s FROM durations"
                " WHERE version_key = ?", (version_key,)).fetchall()

        return {loop: seconds
                for loop, seconds in self._with_retry(_read)}

    def invalidate(self, version_key: str) -> None:
        def _delete():
            self._conn.execute("DELETE FROM meta WHERE version_key = ?",
                               (version_key,))
            self._conn.execute("DELETE FROM answers WHERE version_key = ?",
                               (version_key,))
            self._conn.execute(
                "DELETE FROM durations WHERE version_key = ?",
                (version_key,))
            self._conn.commit()

        self._with_retry(_delete)

    def prune(self, keep_keys: Sequence[str]) -> int:
        """Drop every version key not in ``keep_keys``; returns the
        number of keys removed (explicit invalidation of superseded
        versions).

        The keep set is staged through a temp table instead of being
        inlined as ``NOT IN (?,?,...)`` host parameters, so it is not
        capped by sqlite's default 999-parameter limit (``executemany``
        binds one parameter per row) and scales to arbitrarily many
        live version keys.
        """
        keep = sorted(set(keep_keys))

        def _prune():
            self._conn.execute(
                "CREATE TEMP TABLE IF NOT EXISTS keep_keys"
                " (version_key TEXT PRIMARY KEY)")
            self._conn.execute("DELETE FROM keep_keys")
            self._conn.executemany(
                "INSERT OR IGNORE INTO keep_keys VALUES (?)",
                ((k,) for k in keep))
            condition = ("version_key NOT IN"
                         " (SELECT version_key FROM keep_keys)")
            removed = self._conn.execute(
                f"DELETE FROM meta WHERE {condition}").rowcount
            self._conn.execute(f"DELETE FROM answers WHERE {condition}")
            self._conn.execute(f"DELETE FROM durations WHERE {condition}")
            self._conn.execute("DELETE FROM keep_keys")
            self._conn.commit()
            return removed

        return self._with_retry(_prune)

    # -- bundles (the tiered-cache transport format) -------------------------

    #: Raw column order shared by export and adopt; values travel
    #: verbatim (JSON strings stay strings) so footprint digests and
    #: provenance survive a round-trip through a remote tier exactly.
    _BUNDLE_META_COLUMNS = (
        "version_key", "lineage_key", "workload", "system", "entry",
        "modules", "profile_digest", "hot_loops", "created_at",
        "hot_fractions", "executed_functions", "profile_scope_digest",
        "total_instructions")
    _BUNDLE_ANSWER_COLUMNS = (
        "version_key", "loop_name", "lineage_key", "footprint",
        "footprint_digest", "stored_at", "payload")

    def export_bundle(self, version_key: str) -> Optional[Dict]:
        """One version key's rows as a self-contained JSON-able dict,
        or ``None`` when the key is absent (e.g. invalidated since)."""
        meta_cols = ", ".join(self._BUNDLE_META_COLUMNS)
        answer_cols = ", ".join(self._BUNDLE_ANSWER_COLUMNS)

        def _read():
            meta = self._conn.execute(
                f"SELECT {meta_cols} FROM meta WHERE version_key = ?",
                (version_key,)).fetchone()
            answers = self._conn.execute(
                f"SELECT {answer_cols} FROM answers"
                " WHERE version_key = ? ORDER BY loop_name",
                (version_key,)).fetchall()
            return meta, answers

        meta, answers = self._with_retry(_read)
        if meta is None:
            return None
        return {
            "v": 1,
            "meta": dict(zip(self._BUNDLE_META_COLUMNS, meta)),
            "answers": [dict(zip(self._BUNDLE_ANSWER_COLUMNS, row))
                        for row in answers],
        }

    def adopt_bundle(self, bundle: Mapping) -> bool:
        """Install a bundle exported by another host, as if computed
        locally.  Returns ``False`` (adopting nothing) on an unknown
        format version or a structurally incomplete bundle — a bad
        remote payload must degrade to a cache miss, never corrupt L1.
        """
        if not isinstance(bundle, Mapping) or bundle.get("v") != 1:
            return False
        meta = bundle.get("meta")
        answers = bundle.get("answers")
        if not isinstance(meta, Mapping) or not isinstance(answers, list):
            return False
        try:
            meta_row = tuple(meta[c] for c in self._BUNDLE_META_COLUMNS)
            answer_rows = [
                tuple(doc[c] for c in self._BUNDLE_ANSWER_COLUMNS)
                for doc in answers]
        except (KeyError, TypeError):
            return False
        if not isinstance(meta_row[0], str) or not meta_row[0]:
            return False
        meta_marks = ",".join("?" * len(self._BUNDLE_META_COLUMNS))
        answer_marks = ",".join("?" * len(self._BUNDLE_ANSWER_COLUMNS))

        def _write():
            self._conn.execute(
                "INSERT OR REPLACE INTO meta"
                f" ({', '.join(self._BUNDLE_META_COLUMNS)})"
                f" VALUES ({meta_marks})", meta_row)
            self._conn.executemany(
                "INSERT OR REPLACE INTO answers"
                f" ({', '.join(self._BUNDLE_ANSWER_COLUMNS)})"
                f" VALUES ({answer_marks})", answer_rows)
            self._conn.commit()

        self._with_retry(_write)
        return True

    # -- admin ---------------------------------------------------------------

    def keys(self) -> List[str]:
        return self._with_retry(lambda: [r[0] for r in self._conn.execute(
            "SELECT version_key FROM meta ORDER BY created_at").fetchall()])

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
