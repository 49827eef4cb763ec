"""The resident analysis daemon.

One :class:`AnalysisDaemon` owns one
:class:`~repro.service.DependenceService` — and therefore ONE
:class:`~repro.service.engine.WorkEngine` with its resident worker
fleet — and serves it to many concurrent client sessions over a Unix
or TCP socket.  The asyncio front-end only parses frames and keeps
session/job bookkeeping; each submitted batch runs on a thread of the
job pool, blocking in :meth:`BatchScheduler.run_batch` exactly the way
``repro batch`` does, while the engine's dispatcher interleaves every
session's loop tasks in one LPT-ordered queue.

What outlives a batch (the whole point of serving resident):

- the worker fleet and each worker's prepared-module LRU (a second
  client of the same module pays zero setup),
- hot-loop roster digests and the sqlite result-cache connection,
- the daemon's trace timeline: every session's batch span is
  re-parented under the daemon root span, so one exported trace shows
  all clients interleaved.

Admission control is two-layered and sheds with typed ``BUSY``: a
per-session in-flight job cap (fairness: one greedy client cannot
monopolize the queue) and a global queue-depth bound (protects the
engine's heap from unbounded growth).  A draining daemon answers
``SHUTTING_DOWN``.  Client disconnect sweeps the session's queued
tickets out of the engine (releasing its queue slots) without touching
other sessions' work.

The daemon also carries the live ops plane (DESIGN.md §11): a
:class:`~repro.obs.live.LiveOps` attached to the service telemetry
feeds every delivered task into a rolling window and a flight
recorder; the ``metrics`` verb (and the optional ``--metrics-port``
plain-HTTP listener's ``/metrics``) renders the whole registry as
Prometheus exposition text, ``/healthz`` flips to 503 while
draining, ``dump`` snapshots the flight recorder, and ``--log-json``
streams NDJSON lifecycle events (sheds, recycles, L2 cooldowns,
drain) to stderr.  Per-client series (``client_requests{client=..}``
et al.) are aggregated into ``stats()["clients"]``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as cf
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs.expo import render_prometheus, window_gauges
from ..obs.live import JsonLogger, LiveOps
from ..obs.trace import current_tracer
from ..service.answers import loop_answer_to_dict
from ..service.service import DependenceService, ServiceConfig
from . import protocol
from .protocol import DEFAULT_ADDR, decode_message, encode_message

#: Job states a client can observe through ``poll``.
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"


@dataclass
class DaemonConfig:
    """Everything ``repro serve`` configures."""

    addr: str = DEFAULT_ADDR
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Global admission bound: a submit is shed with ``BUSY`` when the
    #: engine already holds this many queued+in-flight tickets.
    max_queue_depth: int = 256
    #: Per-session fairness window: concurrent jobs one client may
    #: have in flight before its submits shed with ``BUSY``.
    max_client_jobs: int = 4
    #: Seconds the drain phase of ``shutdown`` waits for in-flight
    #: jobs before closing anyway.
    drain_timeout_s: float = 60.0
    #: Threads available for blocking ``run_batch`` calls; bounds the
    #: number of batches the daemon advances concurrently.
    job_threads: int = 16
    #: When set, a plain-HTTP listener serves ``GET /metrics``
    #: (Prometheus text) and ``GET /healthz`` on this port (0 binds
    #: an ephemeral port, resolved in :attr:`metrics_addr`).
    metrics_port: Optional[int] = None
    metrics_host: str = "127.0.0.1"
    #: Rolling-window geometry for recent-traffic rates/percentiles.
    window_s: float = 60.0
    window_bucket_s: float = 1.0
    #: Flight recorder: ring capacity and the slow-query threshold.
    flight_capacity: int = 256
    slow_threshold_s: float = 1.0
    #: When set, the flight recorder dumps here automatically on task
    #: failure/timeout and on drain (and ``repro stats --flight``
    #: reads the same data live over the socket).
    flight_dump_path: Optional[str] = None
    #: Emit NDJSON lifecycle events (one object per line) on stderr.
    log_json: bool = False


async def _read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next newline-terminated frame, ``b""`` at EOF, or ``None``
    for a frame longer than the reader's limit.

    ``StreamReader.readline`` raises on such a line and may leave its
    tail in the stream, where it would be read as the next frame.
    This reads on through the newline and discards the whole line, so
    the session can answer it and keep serving.
    """
    too_large = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return b"" if too_large else exc.partial  # EOF
        except asyncio.LimitOverrunError as exc:
            # Nothing was consumed: drop what is buffered (up to the
            # newline when it is there) and keep reading.
            too_large = True
            await reader.readexactly(exc.consumed)
            continue
        return None if too_large else line


class _Job:
    """One submitted batch and its observable lifecycle."""

    __slots__ = ("id", "session", "requests", "status", "answers",
                 "error", "done", "stream_q", "cancel_requested",
                 "submitted_at")

    def __init__(self, job_id: str, session: str, requests,
                 loop: asyncio.AbstractEventLoop):
        self.id = job_id
        self.session = session
        self.requests = requests
        self.status = JOB_RUNNING
        self.answers: Optional[List[List[dict]]] = None
        self.error: Optional[str] = None
        self.done = asyncio.Event()
        #: Per-loop answer events for the ``stream`` verb.
        self.stream_q: asyncio.Queue = asyncio.Queue()
        self.cancel_requested = False
        self.submitted_at = time.perf_counter()

    @property
    def client_tag(self) -> str:
        return f"{self.session}:{self.id}"


class AnalysisDaemon:
    """A socket front-end multiplexing sessions onto one service."""

    def __init__(self, config: Optional[DaemonConfig] = None,
                 service: Optional[DependenceService] = None):
        self.config = config or DaemonConfig()
        #: Injectable for tests (crash-prone runners, inline pools).
        self.service = service or DependenceService(self.config.service)
        self._jobs: Dict[str, _Job] = {}
        self._session_jobs: Dict[str, set] = {}
        self._job_serial = 0
        self._session_serial = 0
        self._draining = False
        self._drain_task: Optional[asyncio.Task] = None
        self._started_at = time.perf_counter()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._pool = cf.ThreadPoolExecutor(
            max_workers=max(1, self.config.job_threads),
            thread_name_prefix="repro-daemon-job")
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._root_span = None
        #: The actually-bound address (resolves TCP port 0).
        self.bound_addr: str = self.config.addr
        #: Friendly per-session client tags (``hello`` with ``tag``).
        self._session_tags: Dict[str, str] = {}
        self._http_server: Optional[asyncio.AbstractServer] = None
        #: The actually-bound metrics listener (resolves port 0).
        self.metrics_addr: Optional[str] = None
        self.log = JsonLogger(sys.stderr if self.config.log_json
                              else None)
        self.live = LiveOps(
            window_s=self.config.window_s,
            bucket_s=self.config.window_bucket_s,
            flight_capacity=self.config.flight_capacity,
            slow_threshold_s=self.config.slow_threshold_s,
            auto_dump_path=self.config.flight_dump_path,
            log=self.log)
        self.service.telemetry.attach_live(self.live)
        # Job counts live in the service registry, one writer each:
        # submit raises the gauge, the job's finish lowers it.
        registry = self.service.telemetry.registry
        self._jobs_active = registry.gauge("daemon_jobs_active")
        self._jobs_done = registry.counter("daemon_jobs_completed")
        self._sheds = registry.counter("daemon_jobs_shed")
        cache = getattr(self.service, "cache", None)
        if cache is not None and hasattr(cache, "on_event"):
            # TieredCache: L2 cooldown entry/exit becomes log events.
            cache.on_event = self.log.event

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self) -> None:
        """Bind, serve until a ``shutdown`` drains, then close."""
        asyncio.run(self._serve())

    def start_background(self) -> "AnalysisDaemon":
        """Run the daemon on its own thread; returns once listening
        (tests and benchmarks)."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="repro-daemon",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("daemon did not come up")
        return self

    def stop(self, timeout_s: float = 30.0) -> None:
        """Owner-side shutdown (equivalent to the ``shutdown`` verb)."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._begin_drain)
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        tracer = current_tracer()
        if tracer.enabled:
            self._root_span = tracer.begin("daemon", cat="daemon",
                                           addr=self.config.addr,
                                           pid=os.getpid())
        kind, target = protocol.parse_addr(self.config.addr)
        if kind == "unix":
            if os.path.exists(target):
                os.unlink(target)  # stale socket from a dead daemon
            self._server = await asyncio.start_unix_server(
                self._handle_session, path=target,
                limit=protocol.MAX_FRAME_BYTES)
            self.bound_addr = f"unix:{target}"
        else:
            host, port = target
            self._server = await asyncio.start_server(
                self._handle_session, host=host, port=port,
                limit=protocol.MAX_FRAME_BYTES)
            bound = self._server.sockets[0].getsockname()
            self.bound_addr = f"{bound[0]}:{bound[1]}"
        if self.config.metrics_port is not None:
            self._http_server = await asyncio.start_server(
                self._handle_http, host=self.config.metrics_host,
                port=self.config.metrics_port)
            http_bound = self._http_server.sockets[0].getsockname()
            self.metrics_addr = f"{http_bound[0]}:{http_bound[1]}"
        self.log.event("daemon_start", addr=self.bound_addr,
                       pid=os.getpid(),
                       metrics_addr=self.metrics_addr,
                       workers=self.config.service.workers,
                       executor=self.service.scheduler.engine.executor_kind)
        self._ready.set()
        try:
            await self._stopped.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            if self._http_server is not None:
                self._http_server.close()
                await self._http_server.wait_closed()
            if kind == "unix" and os.path.exists(target):
                try:
                    os.unlink(target)
                except OSError:
                    pass
            self._pool.shutdown(wait=False)
            if self._root_span is not None:
                self._root_span.end(jobs=self._jobs_done.value)
            self.service.close()
            self.log.event("daemon_exit", jobs=self._jobs_done.value,
                           sheds=self._sheds.value)

    # -- session handling ----------------------------------------------------

    async def _handle_session(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        self._session_serial += 1
        session = f"s{self._session_serial}"
        self._session_jobs[session] = set()
        try:
            while True:
                line = await _read_frame(reader)
                if line is None:
                    await self._send(writer, protocol.error(
                        protocol.ERR_TOO_LARGE,
                        f"frame longer than {protocol.MAX_FRAME_BYTES} "
                        f"bytes"))
                    continue
                if not line:
                    break  # client went away
                try:
                    message = decode_message(line)
                except Exception as exc:
                    await self._send(writer, protocol.error(
                        protocol.ERR_BAD_REQUEST, f"bad frame: {exc}"))
                    continue
                await self._dispatch_verb(session, message, writer)
                if self._stopped.is_set():
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancelled us mid-readline; exit quietly so
            # shutdown does not spray tracebacks for idle sessions.
            pass
        finally:
            self._disconnect(session)
            self._session_tags.pop(session, None)
            try:
                writer.close()
            except Exception:
                pass

    def _disconnect(self, session: str) -> None:
        """Release everything a vanished client still held: sweep its
        queued tickets (freeing queue slots for other sessions), forget
        its job window and its finished jobs.  No one can poll them
        now; a job still running is forgotten when it finishes."""
        active = self._session_jobs.pop(session, set())
        if active:
            engine = self.service.scheduler.engine
            engine.cancel_client(f"{session}:")
            for job_id in active:
                self._jobs[job_id].cancel_requested = True
        self._jobs = {job_id: job for job_id, job in self._jobs.items()
                      if job.session != session or job_id in active}

    async def _send(self, writer: asyncio.StreamWriter, doc: dict) -> None:
        writer.write(encode_message(doc))
        await writer.drain()

    # -- verbs ---------------------------------------------------------------

    async def _dispatch_verb(self, session: str, message: dict,
                             writer: asyncio.StreamWriter) -> None:
        verb = message.get("verb")
        try:
            if verb in ("ping", "hello"):
                tag = message.get("tag")
                if verb == "hello" and tag:
                    self._session_tags[session] = str(tag)[:64]
                await self._send(writer, protocol.ok(
                    server="repro.daemon",
                    protocol=protocol.PROTOCOL_VERSION,
                    pid=os.getpid(), draining=self._draining))
            elif verb == "submit":
                await self._verb_submit(session, message, writer)
            elif verb == "poll":
                await self._verb_poll(message, writer)
            elif verb == "stream":
                await self._verb_stream(message, writer)
            elif verb == "cancel":
                await self._verb_cancel(message, writer)
            elif verb == "stats":
                await self._send(writer, protocol.ok(stats=self._stats()))
            elif verb == "metrics":
                await self._send(writer, protocol.ok(
                    text=self._render_metrics(),
                    content_type="text/plain; version=0.0.4; "
                                 "charset=utf-8"))
            elif verb == "dump":
                await self._send(writer, protocol.ok(
                    dump=self.live.recorder.dump(reason="verb")))
            elif verb == "recycle":
                inflight = self.service.scheduler.engine.recycle()
                self.log.event("worker_recycle", session=session,
                               inflight_on_old_fleet=inflight)
                await self._send(writer, protocol.ok(
                    recycled=True, inflight_on_old_fleet=inflight))
            elif verb == "shutdown":
                self._begin_drain()
                await self._send(writer, protocol.ok(draining=True))
            else:
                await self._send(writer, protocol.error(
                    protocol.ERR_UNKNOWN_VERB,
                    f"unknown verb {verb!r}"))
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except Exception as exc:
            await self._send(writer, protocol.error(
                protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}"))

    async def _verb_submit(self, session: str, message: dict,
                           writer: asyncio.StreamWriter) -> None:
        if self._draining:
            await self._send(writer, protocol.error(
                protocol.ERR_SHUTTING_DOWN, "daemon is draining"))
            return
        active = self._session_jobs.get(session, set())
        if len(active) >= self.config.max_client_jobs:
            self._shed(session, "client_window")
            await self._send(writer, protocol.error(
                protocol.ERR_BUSY,
                f"client window full ({len(active)} jobs in flight)",
                retry=True))
            return
        depth = self.service.scheduler.engine.depth()
        if depth >= self.config.max_queue_depth:
            self._shed(session, "queue_depth")
            await self._send(writer, protocol.error(
                protocol.ERR_BUSY,
                f"queue full (depth {depth})", retry=True))
            return
        try:
            requests = protocol.requests_from_wire(
                message.get("requests", ()))
        except Exception as exc:
            await self._send(writer, protocol.error(
                protocol.ERR_BAD_REQUEST, f"bad request: {exc}"))
            return
        if not requests:
            await self._send(writer, protocol.error(
                protocol.ERR_BAD_REQUEST, "submit with no requests"))
            return
        self._job_serial += 1
        job = _Job(f"j{self._job_serial}", session, requests, self._loop)
        self._jobs[job.id] = job
        self._session_jobs.setdefault(session, set()).add(job.id)
        self._jobs_active.inc()
        registry = self.service.telemetry.registry
        registry.counter("client_requests",
                         client=self._tag(session)).inc(len(requests))
        self._loop.run_in_executor(self._pool, self._run_job, job)
        await self._send(writer, protocol.ok(
            job=job.id, requests=len(requests)))

    async def _job_of(self, message: dict,
                      writer: asyncio.StreamWriter) -> Optional[_Job]:
        """The job ``message`` names, or None once a typed error is
        sent: ``BAD_REQUEST`` for a missing or non-string ``job``,
        ``UNKNOWN_JOB`` for one this daemon does not hold."""
        job_id = message.get("job")
        if not isinstance(job_id, str):
            await self._send(writer, protocol.error(
                protocol.ERR_BAD_REQUEST,
                f"bad request: job must be a string "
                f"(got {type(job_id).__name__})"))
            return None
        job = self._jobs.get(job_id)
        if job is None:
            await self._send(writer, protocol.error(
                protocol.ERR_UNKNOWN_JOB, f"no such job {job_id!r}"))
        return job

    async def _verb_poll(self, message: dict,
                         writer: asyncio.StreamWriter) -> None:
        job = await self._job_of(message, writer)
        if job is None:
            return
        doc = protocol.ok(job=job.id, status=job.status)
        if job.status in (JOB_DONE, JOB_CANCELLED):
            doc["answers"] = job.answers
        elif job.status == JOB_FAILED:
            doc["message"] = job.error
        await self._send(writer, doc)

    async def _verb_stream(self, message: dict,
                           writer: asyncio.StreamWriter) -> None:
        """Per-loop answers as they land, then the final summary."""
        job = await self._job_of(message, writer)
        if job is None:
            return
        while True:
            get = asyncio.ensure_future(job.stream_q.get())
            done_wait = asyncio.ensure_future(job.done.wait())
            finished, _ = await asyncio.wait(
                {get, done_wait}, return_when=asyncio.FIRST_COMPLETED)
            if get in finished:
                done_wait.cancel()
                await self._send(writer, protocol.ok(
                    event="answer", job=job.id, answer=get.result()))
                continue
            get.cancel()
            # Job finished: flush any answers that raced the event.
            while not job.stream_q.empty():
                await self._send(writer, protocol.ok(
                    event="answer", job=job.id,
                    answer=job.stream_q.get_nowait()))
            doc = protocol.ok(event="done", job=job.id,
                              status=job.status, answers=job.answers)
            if job.error:
                doc["message"] = job.error
            await self._send(writer, doc)
            return

    async def _verb_cancel(self, message: dict,
                           writer: asyncio.StreamWriter) -> None:
        job = await self._job_of(message, writer)
        if job is None:
            return
        job.cancel_requested = True
        swept = self.service.scheduler.engine.cancel_client(job.client_tag)
        await self._send(writer, protocol.ok(job=job.id, swept=swept))

    # -- job execution (thread pool) -----------------------------------------

    def _run_job(self, job: _Job) -> None:
        """Blocking batch execution; runs on a job-pool thread."""
        tracer = current_tracer()
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "session_batch", cat="daemon",
                parent=getattr(self._root_span, "id", None),
                session=job.session, job=job.id,
                requests=len(job.requests))

        def on_answer(request, answer) -> None:
            # Engine dispatcher thread -> asyncio loop, one hop.
            doc = loop_answer_to_dict(answer)
            doc["workload"] = request.name
            self._loop.call_soon_threadsafe(job.stream_q.put_nowait, doc)

        try:
            answers = self.service.scheduler.run_batch(
                job.requests, client=job.client_tag, on_answer=on_answer)
            job.answers = [[loop_answer_to_dict(a) for a in group]
                           for group in answers]
            job.status = (JOB_CANCELLED if job.cancel_requested
                          else JOB_DONE)
        except Exception as exc:  # surfaces as a typed failure
            job.status = JOB_FAILED
            job.error = f"{type(exc).__name__}: {exc}"
        finally:
            if span is not None:
                span.end(status=job.status)
            self._loop.call_soon_threadsafe(self._finish_job, job)

    def _finish_job(self, job: _Job) -> None:
        self._jobs_active.dec()
        self._jobs_done.inc()
        active = self._session_jobs.get(job.session)
        if active is not None:
            active.discard(job.id)
        else:  # the session closed while the job ran
            del self._jobs[job.id]
        tag = self._tag(job.session)
        latency_s = time.perf_counter() - job.submitted_at
        registry = self.service.telemetry.registry
        registry.counter("client_batches", client=tag).inc()
        if job.answers:
            registry.counter("client_answers", client=tag).inc(
                sum(len(group) for group in job.answers))
        registry.histogram(
            "client_batch_latency_s", client=tag).record(latency_s)
        self.live.observe_job(client=tag, latency_s=latency_s,
                              status=job.status)
        self.log.event("job_done", job=job.id, session=job.session,
                       client=tag, status=job.status,
                       latency_s=latency_s,
                       requests=len(job.requests))
        job.done.set()

    def _shed(self, session: str, kind: str) -> None:
        """One admission shed: global count, per-client series, and
        the live window/log."""
        self._sheds.inc()
        tag = self._tag(session)
        self.service.telemetry.registry.counter(
            "client_sheds", client=tag).inc()
        self.live.observe_shed(kind, client=tag)

    def _tag(self, session: str) -> str:
        return self._session_tags.get(session, session)

    # -- shutdown ------------------------------------------------------------

    def _begin_drain(self) -> None:
        """Idempotent: first call flips to draining and schedules the
        drain task; later calls are no-ops (double-shutdown safe)."""
        if self._draining:
            return
        self._draining = True
        self.log.event("drain_begin", jobs_active=self._jobs_active.value)
        self._drain_task = asyncio.ensure_future(self._drain_and_exit())

    async def _drain_and_exit(self) -> None:
        deadline = time.perf_counter() + self.config.drain_timeout_s
        pending = [j for j in self._jobs.values()
                   if j.status == JOB_RUNNING]
        for job in pending:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(job.done.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                break
        self.log.event("drain_end", stranded=self._jobs_active.value)
        if self.config.flight_dump_path:
            try:
                self.live.recorder.dump_to_file(
                    self.config.flight_dump_path, reason="drain")
            except OSError:
                pass  # best effort: a full disk must not block exit
        self._stopped.set()

    # -- stats ---------------------------------------------------------------

    def _read_time(self) -> dict:
        """The values a reader gets at request time rather than from
        the registry: uptime, sessions, engine queue depth, draining,
        and the flight recorder's counts.  ``stats``, ``/healthz`` and
        ``/metrics`` all take them from here."""
        return {
            "uptime_s": time.perf_counter() - self._started_at,
            "sessions": len(self._session_jobs),
            "queue_depth": self.service.scheduler.engine.depth(),
            "draining": self._draining,
            "flight": self.live.recorder.counts(),
        }

    def _stats(self) -> dict:
        now = self._read_time()
        return {
            "daemon": {
                "addr": self.bound_addr,
                "pid": os.getpid(),
                "protocol": protocol.PROTOCOL_VERSION,
                "uptime_s": now["uptime_s"],
                "draining": now["draining"],
                "sessions": now["sessions"],
                "jobs_active": self._jobs_active.value,
                "jobs_completed": self._jobs_done.value,
                "jobs_shed": self._sheds.value,
                "queue_depth": now["queue_depth"],
                "workers": self.config.service.workers,
                "executor": self.service.scheduler.engine.executor_kind,
                "metrics_addr": self.metrics_addr,
            },
            "telemetry": self.service.snapshot().to_dict(),
            "window": self.live.window.snapshot(),
            "flight": now["flight"],
            "clients": self._client_stats(),
        }

    def _client_stats(self) -> dict:
        """Per-client attribution: fold the labeled ``client_*``
        registry series into one document per tag."""
        registry = self.service.telemetry.registry
        clients: Dict[str, dict] = {}

        def _entry(label_part: str) -> dict:
            tag = label_part.partition("=")[2]
            return clients.setdefault(tag, {
                "requests": 0, "answers": 0, "sheds": 0, "batches": 0,
            })

        for name, field_name in (("client_requests", "requests"),
                                 ("client_answers", "answers"),
                                 ("client_sheds", "sheds"),
                                 ("client_batches", "batches")):
            for label_part, value in registry.series(name).items():
                _entry(label_part)[field_name] = value
        for label_part, hist in registry.histogram_series(
                "client_batch_latency_s").items():
            _entry(label_part)["batch_latency"] = hist.summary()
        return clients

    def _render_metrics(self) -> str:
        """The whole observable state as Prometheus exposition text:
        the service registry (daemon job counts included) plus the
        read-time values and the rolling window's rates/percentiles
        as plain gauges."""
        now = self._read_time()
        flight = now["flight"]
        gauges = window_gauges(self.live.window.snapshot())
        gauges.update({
            "daemon_uptime_s": now["uptime_s"],
            "daemon_sessions": float(now["sessions"]),
            "daemon_queue_depth": float(now["queue_depth"]),
            "daemon_draining": 1.0 if now["draining"] else 0.0,
            "flight_spans": float(flight["spans"]),
            "flight_slow": float(flight["slow"]),
            "flight_evicted": float(flight["evicted"]),
        })
        return render_prometheus(
            self.service.telemetry.registry.snapshot(),
            extra_gauges=gauges)

    # -- plain-HTTP metrics listener -----------------------------------------

    def _health(self) -> tuple:
        """``(status_code, body_dict)`` for ``GET /healthz``: 200
        while serving, 503 once draining (so load balancers and
        scrape targets fall off before the socket closes)."""
        now = self._read_time()
        draining = now["draining"]
        return 503 if draining else 200, {
            "status": "draining" if draining else "ok",
            "addr": self.bound_addr,
            "pid": os.getpid(),
            "uptime_s": now["uptime_s"],
            "jobs_active": self._jobs_active.value,
        }

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """A deliberately tiny HTTP/1.0-style responder: enough for
        ``GET /metrics`` and ``GET /healthz`` from Prometheus, curl,
        and health checkers — nothing else."""
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=5.0)
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, path = parts[0], parts[1].split("?", 1)[0]
            while True:  # drain headers until the blank line
                header = await asyncio.wait_for(
                    reader.readline(), timeout=5.0)
                if header in (b"\r\n", b"\n", b""):
                    break
            if method != "GET":
                status, ctype, body = (
                    405, "text/plain; charset=utf-8",
                    b"method not allowed\n")
            elif path == "/metrics":
                status = 200
                ctype = "text/plain; version=0.0.4; charset=utf-8"
                body = self._render_metrics().encode("utf-8")
            elif path == "/healthz":
                status, doc = self._health()
                ctype = "application/json"
                body = (json.dumps(doc, sort_keys=True) + "\n").encode()
            else:
                status, ctype, body = (
                    404, "text/plain; charset=utf-8", b"not found\n")
            reason = {200: "OK", 404: "Not Found",
                      405: "Method Not Allowed",
                      503: "Service Unavailable"}.get(status, "OK")
            writer.write(
                f"HTTP/1.0 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n".encode("latin-1"))
            writer.write(body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError,
                asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass
