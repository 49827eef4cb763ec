"""`TieredCache`: L1 sqlite + remote L2 behind the ResultCache surface.

Drop-in for :class:`repro.service.cache.ResultCache` — the batch
scheduler cannot tell the difference — composing the local store with
a remote :class:`~repro.cachetier.backend.CacheBackend`:

**Key schema** (all under one namespace, default ``scaf:v1``):

- ``<ns>:bundle:<version_key>`` → the JSON bundle
  :meth:`ResultCache.export_bundle` produces (meta row + answer rows,
  digests verbatim);
- ``<ns>:lineage:<lineage_key>`` → the set of version keys stored
  under that lineage, so an incremental probe on an *edited* module
  can pull the sibling versions whose footprints may revalidate.

**Read-through**: an L1 miss consults L2; a hit adopts the bundle into
L1 and serves from there, so the answer is local forever after.
Lineage paths (``has_lineage``/``lookup_profile``/
``lookup_footprints``) first pull any L2-only siblings of the lineage
(memoized for a short TTL so one probe costs one ``SMEMBERS``).

**Write-behind**: ``store`` writes L1 synchronously, then enqueues the
bundle publication on a bounded queue a background thread drains — the
scheduler never blocks on the network.  Overflow sheds the *oldest*
pending write (counted); :meth:`flush` waits for the queue, for tests
and clean shutdown.

**Degradation**: any L2 failure increments a per-type error counter
(``l2_errors{type=connect|timeout|protocol|io}``), raises the
``l2_degraded`` gauge, and opens a cooldown during which every L2
touch short-circuits (reads fall through to L1-only, writes are
dropped and counted).  After ``reconnect_s`` the next touch retries —
a recovered remote re-joins without intervention, and a dead one
never fails a query.

Consistency model: L2 is a **best-effort shared memo**, not a source
of truth.  Bundles are immutable once published (a version key names
byte-identical inputs), and both lookup paths re-derive digests
locally before serving, so a stale or half-replicated L2 can only
cause recomputation — never a wrong answer.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry
from ..service.answers import LoopAnswer
from ..service.cache import CacheEntryMeta, FootprintHit, ResultCache
from .backend import CacheBackend, L2Error

#: Sentinel distinguishing "L2 unavailable" from "key absent".
_DOWN = object()


class TieredCache:
    """Read-through / write-behind composition of L1 and L2."""

    def __init__(self, l1: ResultCache, l2: CacheBackend,
                 registry: Optional[MetricsRegistry] = None, *,
                 reconnect_s: float = 5.0,
                 max_queue: int = 64,
                 lineage_ttl_s: float = 30.0,
                 namespace: str = "scaf:v1"):
        self.l1 = l1
        self.l2 = l2
        self.registry = registry or MetricsRegistry()
        self.reconnect_s = reconnect_s
        self.max_queue = max_queue
        self.lineage_ttl_s = lineage_ttl_s
        self.namespace = namespace

        reg = self.registry
        self._l1_hits = reg.counter("l1_hits")
        self._l1_misses = reg.counter("l1_misses")
        self._l2_hits = reg.counter("l2_hits")
        self._l2_misses = reg.counter("l2_misses")
        self._l2_writes = reg.counter("l2_writes")
        self._l2_writes_shed = reg.counter("l2_writes_shed")
        self._l2_writes_dropped = reg.counter("l2_writes_dropped")
        self._l2_errors = reg.counter("l2_errors")
        self._l2_degraded = reg.gauge("l2_degraded")
        self._l2_get_s = reg.histogram("l2_get_s")
        self._l2_put_s = reg.histogram("l2_put_s")

        self._down_until = 0.0
        #: Optional lifecycle-event sink (``fn(name, **fields)``) —
        #: the daemon's ``--log-json`` plugs in here so L2 cooldown
        #: entry/exit show up as structured events.
        self.on_event: Optional[callable] = None
        #: lineage_key -> monotonic deadline of the last successful pull.
        self._pulled_lineages: Dict[str, float] = {}
        self._cv = threading.Condition()
        self._queue: deque = deque()
        self._inflight = False
        self._closed = False
        self._writer = threading.Thread(target=self._drain,
                                        name="l2-write-behind", daemon=True)
        self._writer.start()

    # -- L2 plumbing ---------------------------------------------------------

    def _bundle_key(self, version_key: str) -> str:
        return f"{self.namespace}:bundle:{version_key}"

    def _lineage_key(self, lineage_key: str) -> str:
        return f"{self.namespace}:lineage:{lineage_key}"

    def _l2_down(self) -> bool:
        return time.monotonic() < self._down_until

    def _note_l2_error(self, exc: Exception) -> None:
        kind = exc.kind if isinstance(exc, L2Error) else "io"
        self._l2_errors.inc()
        self.registry.counter("l2_errors", type=kind).inc()
        entering = not self._l2_down()
        self._down_until = time.monotonic() + self.reconnect_s
        self._l2_degraded.set(1)
        if entering:
            self._emit("l2_cooldown_enter", kind=kind,
                       reconnect_s=self.reconnect_s)

    def _emit(self, name: str, **fields) -> None:
        sink = self.on_event
        if sink is not None:
            try:
                sink(name, **fields)
            except Exception:
                pass  # logging must never fail a cache call

    def _l2_call(self, fn, histogram=None):
        """Run one backend call; returns its result, or ``_DOWN`` when
        the tier is cooling down or the call failed (never raises)."""
        if self._l2_down():
            return _DOWN
        started = time.perf_counter()
        try:
            result = fn()
        except L2Error as exc:
            self._note_l2_error(exc)
            return _DOWN
        except Exception as exc:  # backend bug: degrade, don't crash
            self._note_l2_error(exc)
            return _DOWN
        if histogram is not None:
            histogram.record(time.perf_counter() - started)
        if self._l2_degraded.value:
            self._emit("l2_cooldown_exit")
        self._l2_degraded.set(0)
        return result

    def _pull_bundle(self, version_key: str) -> bool:
        """Read-through: fetch one bundle from L2 into L1."""
        raw = self._l2_call(
            lambda: self.l2.get(self._bundle_key(version_key)),
            histogram=self._l2_get_s)
        if raw is _DOWN:
            return False
        if raw is None:
            self._l2_misses.inc()
            return False
        try:
            adopted = self.l1.adopt_bundle(json.loads(raw))
        except (ValueError, KeyError, TypeError):
            self._l2_errors.inc()
            self.registry.counter("l2_errors", type="payload").inc()
            return False
        if adopted:
            self._l2_hits.inc()
        return adopted

    def _pull_lineage(self, lineage_key: str) -> None:
        """Adopt every L2-only sibling of a lineage (TTL-memoized)."""
        if not lineage_key or self._l2_down():
            return
        now = time.monotonic()
        if self._pulled_lineages.get(lineage_key, 0.0) > now:
            return
        members = self._l2_call(
            lambda: self.l2.smembers(self._lineage_key(lineage_key)))
        if members is _DOWN:
            return
        self._pulled_lineages[lineage_key] = now + self.lineage_ttl_s
        for version_key in members:
            if self.l1.meta(version_key) is None:
                self._pull_bundle(version_key)

    # -- lookup (the ResultCache surface) ------------------------------------

    def meta(self, version_key: str) -> Optional[CacheEntryMeta]:
        found = self.l1.meta(version_key)
        if found is not None:
            return found
        if self._pull_bundle(version_key):
            return self.l1.meta(version_key)
        return None

    def lookup(self, version_key: str, loops: Sequence[str] = ()
               ) -> Optional[Tuple[CacheEntryMeta,
                                   Optional[List[LoopAnswer]]]]:
        found = self.l1.lookup(version_key, loops)
        if found is not None and found[1] is not None:
            self._l1_hits.inc()
            return found
        self._l1_misses.inc()
        if self._pull_bundle(version_key):
            return self.l1.lookup(version_key, loops)
        return found

    def has_lineage(self, lineage_key: str) -> bool:
        if self.l1.has_lineage(lineage_key):
            return True
        self._pull_lineage(lineage_key)
        return self.l1.has_lineage(lineage_key)

    def lookup_profile(self, lineage_key: str,
                       workload: str) -> Optional[CacheEntryMeta]:
        self._pull_lineage(lineage_key)
        return self.l1.lookup_profile(lineage_key, workload)

    def lookup_footprints(self, lineage_key: str, workload: str,
                          loops: Sequence[str],
                          fingerprints: Mapping[str, str],
                          header_fingerprint: str
                          ) -> Dict[str, FootprintHit]:
        self._pull_lineage(lineage_key)
        return self.l1.lookup_footprints(lineage_key, workload, loops,
                                         fingerprints, header_fingerprint)

    # -- mutation ------------------------------------------------------------

    def store(self, version_key: str, **kwargs) -> None:
        self.l1.store(version_key, **kwargs)
        self._enqueue(version_key, kwargs.get("lineage_key", ""))

    def invalidate(self, version_key: str) -> None:
        self.l1.invalidate(version_key)
        # Best effort: the lineage set may keep naming the key, but a
        # re-pull just re-adopts nothing (the bundle is gone).
        self._l2_call(lambda: self.l2.delete(self._bundle_key(version_key)))

    def prune(self, keep_keys: Sequence[str]) -> int:
        # L1 only: L2 is fleet-shared, and another daemon's live keys
        # are not ours to expire.
        return self.l1.prune(keep_keys)

    def record_durations(self, version_key: str, lineage_key: str,
                         durations: Mapping[str, float]) -> None:
        # L1 only: measured wall times are host-specific (this
        # machine's workers), so they never publish to the shared L2.
        self.l1.record_durations(version_key, lineage_key, durations)

    def lookup_durations(self, lineage_key: str) -> Dict[str, float]:
        return self.l1.lookup_durations(lineage_key)

    def lookup_durations_exact(self, version_key: str) -> Dict[str, float]:
        return self.l1.lookup_durations_exact(version_key)

    # -- write-behind --------------------------------------------------------

    def _enqueue(self, version_key: str, lineage_key: str) -> None:
        if self._l2_down():
            self._l2_writes_dropped.inc()
            return
        with self._cv:
            if self._closed:
                self._l2_writes_dropped.inc()
                return
            if len(self._queue) >= self.max_queue:
                self._queue.popleft()
                self._l2_writes_shed.inc()
            self._queue.append((version_key, lineage_key))
            self._cv.notify_all()

    def _drain(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue and self._closed:
                    return
                version_key, lineage_key = self._queue.popleft()
                self._inflight = True
            try:
                self._publish(version_key, lineage_key)
            finally:
                with self._cv:
                    self._inflight = False
                    self._cv.notify_all()

    def _publish(self, version_key: str, lineage_key: str) -> None:
        bundle = self.l1.export_bundle(version_key)
        if bundle is None:
            return  # invalidated before the queue drained
        payload = json.dumps(bundle, sort_keys=True).encode()
        ok = self._l2_call(
            lambda: self.l2.put(self._bundle_key(version_key), payload),
            histogram=self._l2_put_s)
        if ok is _DOWN:
            self._l2_writes_dropped.inc()
            return
        if lineage_key:
            self._l2_call(lambda: self.l2.sadd(
                self._lineage_key(lineage_key), version_key))
        self._l2_writes.inc()

    def flush(self, timeout_s: float = 10.0) -> bool:
        """Wait until every queued write has been attempted."""
        deadline = time.monotonic() + timeout_s
        with self._cv:
            while self._queue or self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(timeout=remaining)
        return True

    # -- admin ---------------------------------------------------------------

    def keys(self) -> List[str]:
        return self.l1.keys()

    def close(self) -> None:
        self.flush(timeout_s=5.0)  # best-effort: a dead L2 can't hang us
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        self._writer.join(timeout=5.0)
        try:
            self.l2.close()
        except Exception:
            pass
        self.l1.close()

    def __enter__(self) -> "TieredCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
