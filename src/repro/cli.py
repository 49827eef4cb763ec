"""Command-line interface: ``python -m repro <command> <file.ir>``.

Commands
--------

``run``      execute a textual-IR program and print its result
``fmt``      parse, verify, and pretty-print a program
``profile``  run the profilers and summarize what they found
             (``--json`` for the machine-readable summary)
``analyze``  profile one file in this process, build an analysis
             system, and report hot-loop dependence coverage
             (``--deps`` lists the residual dependences by instruction
             text, ``--all`` the removed ones too, each speculative
             removal with the modules whose assertions it needs;
             ``--json`` emits the service schema)
``batch``    answer many workloads through the batched, parallel,
             cached dependence-query service (``repro.service``) on a
             pool of its own; ``--workers 0`` runs every task in this
             process
``serve``    run the resident analysis daemon: a persistent worker
             fleet behind a Unix/TCP socket that many concurrent
             clients share (``repro.daemon``)
``submit``   send workloads to a running daemon and stream answers
             (the daemon's client, like ``shutdown``, ``top`` and
             ``stats --daemon``; each defaults to ``REPRO_DAEMON``)
``shutdown`` ask a running daemon to drain and exit
``stats``    summarize a trace file produced by ``analyze``/``batch``
             ``--trace`` (per-module attribution, span structure), or
             — with ``--daemon ADDR`` — a live daemon over its socket
             (``--flight`` dumps its flight recorder, ``--metrics``
             its Prometheus exposition text)
``top``      refreshing terminal dashboard over a running daemon:
             recent rates, windowed latency percentiles, per-client
             attribution, flight-recorder occupancy

``analyze`` and ``batch`` accept ``--trace out.json`` to record an
end-to-end span timeline (``repro.obs``): Chrome trace-event format
by default (open in Perfetto), JSONL when the path ends in
``.jsonl``.  A traced run also prints the per-module attribution
report; ``--trace-sample N`` records every N-th query subtree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from .analysis import AnalysisContext
from .clients import PDGClient, hot_loops
from .interp import CompiledInterpreter, make_interpreter
from .ir import (
    ParseError,
    VerificationError,
    format_module,
    parse_module,
    verify_module,
)
from .profiling import run_profilers
from .service import (
    DependenceService,
    ServiceConfig,
    TelemetrySnapshot,
    build_system,
    format_report,
    loop_answer_from_dict,
    loop_answer_to_dict,
    request_for_file,
    request_for_workload,
    summarize_pdg,
    system_profilers,
)
from .service.requests import SYSTEM_ROSTERS

#: The analysis systems ``--system`` accepts.
SYSTEMS = sorted(SYSTEM_ROSTERS)


def _load(args):
    """Parse and verify ``args.file``; a missing, unparseable or
    invalid file prints ``repro <command>: <path>: <reason>`` on
    stderr and exits 2."""
    path = args.file
    try:
        with open(path) as f:
            text = f.read()
        module = parse_module(text, name=path)
        verify_module(module)
    except OSError as exc:
        reason = exc.strerror or exc
    except (ParseError, VerificationError) as exc:
        reason = exc
    else:
        return module
    print(f"repro {args.command}: {path}: {reason}", file=sys.stderr)
    raise SystemExit(2)


def cmd_run(args) -> int:
    module = _load(args)
    interp = make_interpreter(module)
    result = interp.run(args.entry)
    engine = "compiled" if isinstance(interp, CompiledInterpreter) \
        else "tree"
    print(f"result: {result}")
    print(f"instructions executed: {interp.total_instructions()} "
          f"({engine} engine)")
    return 0


def cmd_fmt(args) -> int:
    module = _load(args)
    sys.stdout.write(format_module(module))
    return 0


def _profile_document(args, module, profiles) -> dict:
    """The machine-readable ``profile --json`` schema."""
    hot = hot_loops(profiles)
    dead_blocks = {}
    for fn in module.defined_functions:
        dead = profiles.edge.dead_blocks(fn)
        if dead:
            dead_blocks[fn.name] = sorted(b.name for b in dead)
    predictable = [
        {"load": inst.name, "value": profiles.value.predicted_value(inst)}
        for inst, _count in profiles.value.counts.items()
        if profiles.value.is_predictable(inst)]
    separation = {}
    for h in hot:
        ro = profiles.points_to.read_only_sites(h.loop)
        sl = profiles.lifetime.short_lived_sites(h.loop)
        if ro or sl:
            separation[h.name] = {"read_only": len(ro),
                                  "short_lived": len(sl)}
    return {
        "file": args.file,
        "entry": args.entry,
        "dynamic_instructions": profiles.total_instructions,
        "exit_value": profiles.exit_value,
        "hot_loops": [
            {"name": h.name,
             "time_fraction": h.time_fraction,
             "average_trip_count": h.stats.average_trip_count}
            for h in hot],
        "profile_dead_blocks": dead_blocks,
        "predictable_loads": predictable,
        "separation_candidates": separation,
    }


def cmd_profile(args) -> int:
    module = _load(args)
    context = AnalysisContext(module)
    profiles = run_profilers(module, context, entry=args.entry)
    if args.json:
        print(json.dumps(_profile_document(args, module, profiles),
                         indent=2, default=str))
        return 0
    print(f"dynamic instructions: {profiles.total_instructions}")
    print(f"exit value          : {profiles.exit_value}")

    hot = hot_loops(profiles)
    print(f"\nhot loops ({len(hot)}):")
    for h in hot:
        print(f"  {h.name}: {h.time_fraction:.1%} of time, "
              f"{h.stats.average_trip_count:.0f} iters/invocation")

    for fn in module.defined_functions:
        dead = profiles.edge.dead_blocks(fn)
        if dead:
            names = ", ".join(f"%{b.name}" for b in dead)
            print(f"\nprofile-dead blocks in @{fn.name}: {names}")

    predictable = [i for i, n in profiles.value.counts.items()
                   if profiles.value.is_predictable(i)]
    if predictable:
        print(f"\npredictable loads ({len(predictable)}):")
        for load in predictable[:10]:
            print(f"  %{load.name} -> "
                  f"{profiles.value.predicted_value(load)}")

    for h in hot:
        ro = profiles.points_to.read_only_sites(h.loop)
        sl = profiles.lifetime.short_lived_sites(h.loop)
        if ro or sl:
            print(f"\nseparation candidates in {h.name}: "
                  f"{len(ro)} read-only, {len(sl)} short-lived sites")
    return 0


def _start_trace(args):
    """Install a live tracer when ``--trace`` was given."""
    if not getattr(args, "trace", None):
        return None
    from .obs import TraceContext, set_tracer
    tracer = TraceContext(sample_every=args.trace_sample)
    set_tracer(tracer)
    return tracer


def _finish_trace(args, tracer) -> None:
    """Export the trace and print the attribution report.

    The report is rendered from the same spans the file holds, so the
    printed per-module totals always reconcile with the artifact
    (``repro stats`` recomputes them offline).  In ``--json`` mode the
    report goes to stderr so stdout stays machine-readable.
    """
    if tracer is None:
        return
    from .obs import (
        NOOP,
        attribution_from_spans,
        render_attribution,
        set_tracer,
        write_chrome_trace,
        write_jsonl,
    )
    set_tracer(NOOP)
    spans = tracer.export()
    if args.trace.endswith(".jsonl"):
        write_jsonl(spans, args.trace)
    else:
        write_chrome_trace(spans, args.trace)
    out = sys.stderr if getattr(args, "json", False) else sys.stdout
    print(file=out)
    print(render_attribution(attribution_from_spans(spans)), file=out)
    print(f"  trace: {len(spans)} spans -> {args.trace} "
          f"(open in https://ui.perfetto.dev)", file=out)


def _print_loop_answers(answers, system: str, prefix: str) -> None:
    """One ``analyze``-style summary line per service-schema answer."""
    for a in answers:
        suffix = "" if a.status == "computed" else f" [{a.status}]"
        print(f"{prefix}{a.loop} [{system}]: "
              f"%NoDep = {a.no_dep_percent:.2f} "
              f"({a.no_dep_count}/{a.total_queries} removed, "
              f"{a.speculative_count} speculatively){suffix}")


def cmd_analyze(args) -> int:
    tracer = _start_trace(args)
    try:
        return _cmd_analyze(args)
    finally:
        _finish_trace(args, tracer)


def _cmd_analyze(args) -> int:
    module = _load(args)
    context = AnalysisContext(module)
    profiles = run_profilers(module, context, entry=args.entry,
                             profilers=system_profilers(args.system))
    system = build_system(args.system, module, context, profiles)
    client = PDGClient(system)
    from .obs import current_tracer
    tracer = current_tracer()

    hot = hot_loops(profiles)
    if not hot:
        print("no hot loops found (>=10% time, >=50 iters/invocation)")
        return 1

    answers = []
    for h in hot:
        started = time.perf_counter()
        with tracer.span("loop", cat="loop", loop=h.name,
                         workload=args.file, system=args.system):
            pdg = client.analyze_loop(h.loop)
        answer = summarize_pdg(args.file, args.system, pdg,
                               h.time_fraction,
                               time.perf_counter() - started)
        if args.json:
            answers.append(answer)
            continue
        _print_loop_answers([answer], args.system, prefix="")
        if args.deps:
            for record in pdg.records:
                if record.removed and not args.all:
                    continue
                kind = "cross" if record.cross_iteration else "intra"
                status = "removed" if record.removed else "DEP"
                mods = ""
                if record.speculative:
                    option = record.usable_options.cheapest()
                    mods = " via " + ",".join(
                        sorted({a.module_id for a in option}))
                print(f"  [{status:7s}] ({kind}) "
                      f"{record.src} -> {record.dst}{mods}")
    if args.json:
        print(json.dumps({
            "file": args.file,
            "entry": args.entry,
            "system": args.system,
            "loops": [loop_answer_to_dict(a) for a in answers],
        }, indent=2, default=str))
    return 0


def _daemon_addr(args) -> str:
    """Explicit ``--daemon`` beats the ``REPRO_DAEMON`` environment,
    which beats the default socket."""
    return (args.daemon or os.environ.get("REPRO_DAEMON")
            or _default_daemon_addr())


def _service_config(args):
    """The :class:`ServiceConfig` described by the shared service
    options (see :func:`_service_options`); an explicit ``--cache-l2``
    beats ``REPRO_CACHE_L2``."""
    return ServiceConfig(
        workers=args.workers,
        executor=args.executor,
        cache_dir=args.cache_dir,
        cache_l2=args.cache_l2 or os.environ.get("REPRO_CACHE_L2"),
        task_timeout_s=args.timeout,
        prepared_cache_size=args.prepared_cache_size,
        idle_ttl_s=getattr(args, "idle_ttl", None))


def _requests_for_targets(command: str, args) -> Optional[list]:
    """Resolve target names (workloads and/or .ir files) to requests;
    ``None`` after printing a diagnostic on bad input."""
    from .workloads import ALL_WORKLOADS, WORKLOADS

    targets = list(args.targets)
    if getattr(args, "all", False):
        targets = [w.name for w in ALL_WORKLOADS]
    if not targets:
        print(f"{command}: no targets (name workloads/.ir files"
              + (", or --all)" if hasattr(args, "all") else ")"),
              file=sys.stderr)
        return None

    requests = []
    for target in targets:
        if target in WORKLOADS:
            requests.append(request_for_workload(target,
                                                 system=args.system))
        elif os.path.exists(target):
            requests.append(request_for_file(target, entry=args.entry,
                                             system=args.system))
        else:
            print(f"{command}: unknown target {target!r} — not a "
                  f"workload name or an IR file (workloads: "
                  f"{', '.join(sorted(WORKLOADS))})", file=sys.stderr)
            return None
    return requests


def cmd_batch(args) -> int:
    tracer = _start_trace(args)
    try:
        return _cmd_batch(args)
    finally:
        _finish_trace(args, tracer)


def _cmd_batch(args) -> int:
    """Serve many workloads through the batched query service."""
    requests = _requests_for_targets("batch", args)
    if requests is None:
        return 2

    started = time.perf_counter()
    with DependenceService(_service_config(args)) as service:
        batch = service.run_batch(requests)
    wall_s = time.perf_counter() - started

    if args.json:
        print(json.dumps({
            "system": args.system,
            "wall_s": wall_s,
            "loops": [loop_answer_to_dict(a) for a in batch.flat()],
            "telemetry": batch.telemetry.to_dict(),
        }, indent=2, default=str))
        return 0

    for request, answers in zip(requests, batch.answers):
        if not answers:
            print(f"{request.name}: no hot loops")
            continue
        _print_loop_answers(answers, request.system,
                            prefix=f"{request.name}/")
    print()
    print(format_report(batch.telemetry))
    print(f"  batch wall-clock {wall_s:.2f}s")
    return 0


def cmd_serve(args) -> int:
    """Run the resident analysis daemon until a shutdown drains it."""
    from .daemon import AnalysisDaemon, DaemonConfig

    tracer = _start_trace(args)
    addr = args.addr or _default_daemon_addr()
    service = _service_config(args)
    daemon = AnalysisDaemon(DaemonConfig(
        addr=addr, service=service,
        max_queue_depth=args.max_queue_depth,
        max_client_jobs=args.max_client_jobs,
        drain_timeout_s=args.drain_timeout,
        metrics_port=args.metrics_port,
        window_s=args.window,
        slow_threshold_s=args.slow_threshold,
        flight_capacity=args.flight_capacity,
        flight_dump_path=args.flight_dump,
        log_json=args.log_json))
    print(f"repro daemon: serving at {addr} "
          f"({service.workers} workers, "
          f"{daemon.service.scheduler.engine.executor_kind} executor)",
          flush=True)
    if args.metrics_port is not None:
        print(f"repro daemon: metrics on http://127.0.0.1:"
              f"{args.metrics_port}/metrics (+/healthz)", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        _finish_trace(args, tracer)
    print("repro daemon: drained and exited")
    return 0


def cmd_submit(args) -> int:
    """Send a batch to a running daemon and stream its answers."""
    from .daemon import DaemonClient, DaemonError

    addr = _daemon_addr(args)
    requests = _requests_for_targets("submit", args)
    if requests is None:
        return 2
    try:
        client = DaemonClient(addr)
    except (OSError, ValueError, ConnectionError) as exc:
        print(f"submit: no daemon at {addr} ({exc}); start one with "
              f"`repro serve`", file=sys.stderr)
        return 2
    try:
        with client:
            if args.json:
                answers = client.run_batch(requests)
                print(json.dumps({
                    "system": args.system,
                    "daemon": addr,
                    "loops": [loop_answer_to_dict(a) for g in answers
                              for a in g],
                }, indent=2, default=str))
                return 0

            shown = set()

            def show(a):
                shown.add((a.workload, a.loop))
                _print_loop_answers([a], args.system,
                                    prefix=f"{a.workload}/")

            answers = client.run_batch(
                requests,
                on_answer=lambda doc: show(loop_answer_from_dict(doc)))
            # Only worker-delivered answers stream; cache hits and
            # revalidated answers arrive with the finished job.
            for a in (a for group in answers for a in group):
                if (a.workload, a.loop) not in shown:
                    show(a)
            return 0
    except DaemonError as exc:
        kind = ("busy" if exc.busy else
                "draining" if exc.shutting_down else "error")
        print(f"submit: daemon {kind}: {exc}", file=sys.stderr)
        return 1


def cmd_shutdown(args) -> int:
    """Ask a running daemon to drain in-flight work and exit."""
    from .daemon import DaemonClient, DaemonError

    addr = _daemon_addr(args)
    try:
        with DaemonClient(addr) as client:
            client.shutdown()
    except (OSError, ValueError, ConnectionError, DaemonError) as exc:
        print(f"shutdown: no daemon at {addr} ({exc})", file=sys.stderr)
        return 1
    print(f"shutdown: daemon at {addr} is draining")
    return 0


def _default_daemon_addr() -> str:
    from .daemon import DEFAULT_ADDR
    return DEFAULT_ADDR


def _stats_via_daemon(args, addr: str) -> int:
    """``repro stats --daemon``: read a live daemon over its socket."""
    from .daemon import DaemonClient, DaemonError
    from .obs import render_top

    try:
        with DaemonClient(addr) as client:
            if getattr(args, "flight", False):
                print(json.dumps(client.dump(), indent=2,
                                 default=str))
                return 0
            if getattr(args, "metrics", False):
                sys.stdout.write(client.metrics())
                return 0
            stats = client.stats()
    except (OSError, ValueError, ConnectionError, DaemonError) as exc:
        print(f"stats: no daemon at {addr} ({exc})", file=sys.stderr)
        return 1
    if args.check:
        missing = [k for k in ("daemon", "telemetry") if k not in stats]
        if missing:
            print(f"stats: daemon reply missing {missing}",
                  file=sys.stderr)
            return 1
        d = stats["daemon"]
        print(f"daemon ok: pid {d['pid']} at {d['addr']}, up "
              f"{d['uptime_s']:.1f}s, {d['jobs_completed']} jobs done")
        return 0
    if args.json:
        print(json.dumps(stats, indent=2, default=str))
        return 0
    print(render_top(stats))
    print()
    print(format_report(TelemetrySnapshot.from_dict(stats["telemetry"])))
    return 0


def cmd_top(args) -> int:
    """``repro top``: a refreshing terminal dashboard over a live
    daemon's ``stats`` verb."""
    from .daemon import DaemonClient, DaemonError
    from .obs import render_top

    addr = _daemon_addr(args)
    try:
        while True:
            try:
                with DaemonClient(addr, timeout_s=5.0) as client:
                    stats = client.stats()
            except (OSError, ValueError, ConnectionError,
                    DaemonError) as exc:
                print(f"top: no daemon at {addr} ({exc})",
                      file=sys.stderr)
                return 1
            frame = render_top(stats)
            if args.once:
                print(frame)
                return 0
            # Clear + home, then the frame: flicker-free enough
            # without curses.
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            time.sleep(max(0.2, args.interval))
    except KeyboardInterrupt:
        return 0


def cmd_stats(args) -> int:
    """Summarize (or validate) an exported trace file offline, or a
    live daemon when ``--daemon`` is given."""
    # A named trace file wins over the REPRO_DAEMON environment; an
    # explicit --daemon always wins.
    addr = getattr(args, "daemon", None) or (
        None if args.file else os.environ.get("REPRO_DAEMON"))
    if addr:
        return _stats_via_daemon(args, addr)
    if not args.file:
        print("stats: name a trace file or pass --daemon ADDR",
              file=sys.stderr)
        return 2
    from .obs import (
        load_trace,
        summarize_trace,
        trace_document,
        validate_spans,
    )
    if args.check:
        spans = load_trace(args.file)
        problems = validate_spans(spans)
        if not spans:
            print(f"stats: {args.file} holds no spans", file=sys.stderr)
            return 1
        if problems:
            for p in problems:
                print(f"stats: {p}", file=sys.stderr)
            return 1
        print(f"trace ok: {len(spans)} spans, structure valid")
        return 0
    if args.json:
        print(json.dumps(trace_document(args.file), indent=2,
                         default=str))
        return 0
    print(summarize_trace(args.file))
    return 0


def _service_options() -> argparse.ArgumentParser:
    """The options of every command that builds a service (``batch``,
    ``serve``), as an argparse parent parser; :func:`_service_config`
    turns them into a :class:`ServiceConfig`."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers", type=int, default=4,
                        help="worker lanes (default 4); 0 runs every "
                             "task in this process, with no deadline "
                             "and no isolation")
    parent.add_argument("--executor", choices=("process", "thread"),
                        default="process",
                        help="the kind of each worker lane")
    parent.add_argument("--cache-dir", default=None,
                        help="persistent result-cache directory")
    parent.add_argument("--cache-l2", default=None, metavar="URL",
                        help="remote L2 cache tier (redis://host:port; "
                             "the REPRO_CACHE_L2 environment variable "
                             "works too); requires --cache-dir")
    parent.add_argument("--timeout", type=float, default=None,
                        help="per-task deadline in seconds; needs "
                             "--workers 1 or more (an inline task "
                             "runs to its end)")
    parent.add_argument("--prepared-cache-size", type=int, default=None,
                        metavar="N",
                        help="worker-resident prepared-module LRU "
                             "capacity")
    return parent


def _trace_options() -> argparse.ArgumentParser:
    """``--trace`` and ``--trace-sample`` (``analyze``, ``batch``,
    ``serve``), as an argparse parent parser."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--trace", default=None, metavar="PATH",
                        help="record a span timeline (Chrome trace-event "
                             "format; JSONL when PATH ends in .jsonl); "
                             "serve writes it on exit, all sessions in "
                             "one tree")
    parent.add_argument("--trace-sample", type=int, default=1,
                        metavar="N",
                        help="record every N-th query subtree (default 1)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SCAF: speculation-aware collaborative dependence "
                    "analysis (PLDI 2020 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a textual-IR program")
    p_run.add_argument("file")
    p_run.add_argument("--entry", default="main")
    p_run.set_defaults(func=cmd_run)

    p_fmt = sub.add_parser("fmt", help="parse, verify, pretty-print")
    p_fmt.add_argument("file")
    p_fmt.set_defaults(func=cmd_fmt)

    p_prof = sub.add_parser("profile", help="run the profilers")
    p_prof.add_argument("file")
    p_prof.add_argument("--entry", default="main")
    p_prof.add_argument("--json", action="store_true",
                        help="machine-readable profiler summary")
    p_prof.set_defaults(func=cmd_profile)

    service_options = _service_options()
    trace_options = _trace_options()

    p_an = sub.add_parser("analyze", help="hot-loop dependence coverage",
                          parents=[trace_options])
    p_an.add_argument("file")
    p_an.add_argument("--entry", default="main")
    p_an.add_argument("--system", choices=SYSTEMS, default="scaf")
    p_an.add_argument("--deps", action="store_true",
                      help="list residual dependences")
    p_an.add_argument("--all", action="store_true",
                      help="with --deps, also list removed dependences")
    p_an.add_argument("--json", action="store_true",
                      help="emit the service's LoopAnswer schema")
    p_an.set_defaults(func=cmd_analyze)

    p_batch = sub.add_parser(
        "batch",
        help="batched, parallel, cached dependence-query service",
        parents=[service_options, trace_options])
    p_batch.add_argument("targets", nargs="*",
                         help="workload names (see repro.workloads) "
                              "and/or .ir files")
    p_batch.add_argument("--all", action="store_true",
                         help="serve all 16 registered workloads")
    p_batch.add_argument("--entry", default="main",
                         help="entry function for .ir file targets")
    p_batch.add_argument("--system", choices=SYSTEMS, default="scaf")
    p_batch.add_argument("--json", action="store_true",
                         help="emit answers + telemetry as JSON")
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="resident analysis daemon: persistent worker fleet "
             "behind a socket",
        parents=[service_options, trace_options])
    p_serve.add_argument("--addr", default=None,
                         help="listen address (unix:/path.sock or "
                              "host:port; default unix socket in cwd)")
    p_serve.add_argument("--idle-ttl", type=float, default=None,
                         metavar="SECONDS",
                         help="tear idle workers down after this long "
                              "and respawn lazily on the next task")
    p_serve.add_argument("--max-queue-depth", type=int, default=256,
                         help="shed submits with BUSY beyond this "
                              "engine queue depth")
    p_serve.add_argument("--max-client-jobs", type=int, default=4,
                         help="per-session in-flight job window")
    p_serve.add_argument("--drain-timeout", type=float, default=60.0,
                         help="seconds shutdown waits for in-flight "
                              "jobs")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         metavar="PORT",
                         help="serve GET /metrics (Prometheus text) "
                              "and /healthz over plain HTTP on this "
                              "port (0 binds an ephemeral port)")
    p_serve.add_argument("--window", type=float, default=60.0,
                         metavar="SECONDS",
                         help="rolling window for recent rates and "
                              "latency percentiles (default 60s)")
    p_serve.add_argument("--slow-threshold", type=float, default=1.0,
                         metavar="SECONDS",
                         help="tasks at or above this latency land in "
                              "the flight recorder's slow-query log")
    p_serve.add_argument("--flight-capacity", type=int, default=256,
                         metavar="N",
                         help="flight-recorder ring size (completed "
                              "query spans held for dumps)")
    p_serve.add_argument("--flight-dump", default=None, metavar="PATH",
                         help="auto-dump the flight recorder here on "
                              "task failure/timeout and on drain")
    p_serve.add_argument("--log-json", action="store_true",
                         help="emit NDJSON lifecycle events (sheds, "
                              "recycles, L2 cooldowns, drain) on "
                              "stderr")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="send workloads to a running daemon and stream answers")
    p_submit.add_argument("targets", nargs="*",
                          help="workload names and/or .ir files")
    p_submit.add_argument("--all", action="store_true",
                          help="submit all 16 registered workloads")
    p_submit.add_argument("--entry", default="main",
                          help="entry function for .ir file targets")
    p_submit.add_argument("--system", choices=SYSTEMS, default="scaf")
    p_submit.add_argument("--daemon", default=None, metavar="ADDR",
                          help="daemon address (default REPRO_DAEMON "
                               "or the default unix socket)")
    p_submit.add_argument("--json", action="store_true",
                          help="emit answers as JSON")
    p_submit.set_defaults(func=cmd_submit)

    p_down = sub.add_parser(
        "shutdown", help="ask a running daemon to drain and exit")
    p_down.add_argument("--daemon", default=None, metavar="ADDR",
                        help="daemon address (default REPRO_DAEMON or "
                             "the default unix socket)")
    p_down.set_defaults(func=cmd_shutdown)

    p_stats = sub.add_parser(
        "stats",
        help="summarize a --trace file (attribution, span structure) "
             "or a live daemon (--daemon)")
    p_stats.add_argument("file", nargs="?", default=None,
                         help="trace file from analyze/batch --trace")
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable summary")
    p_stats.add_argument("--check", action="store_true",
                         help="validate only: exit nonzero unless the "
                              "trace parses and spans nest correctly "
                              "(with --daemon: the daemon answers "
                              "sanely)")
    p_stats.add_argument("--daemon", default=None, metavar="ADDR",
                         help="summarize a live daemon over its "
                              "socket instead of a trace file")
    p_stats.add_argument("--flight", action="store_true",
                         help="with --daemon: print the flight "
                              "recorder's dump (recent + slow query "
                              "spans) as JSON")
    p_stats.add_argument("--metrics", action="store_true",
                         help="with --daemon: print the Prometheus "
                              "exposition text")
    p_stats.set_defaults(func=cmd_stats)

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running daemon")
    p_top.add_argument("--daemon", default=None, metavar="ADDR",
                       help="daemon address (default REPRO_DAEMON or "
                            "the default unix socket)")
    p_top.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="refresh period (default 2s)")
    p_top.add_argument("--once", action="store_true",
                       help="print one frame and exit (no screen "
                            "clearing; scripts and tests)")
    p_top.set_defaults(func=cmd_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
