"""scafbench: end-to-end and per-layer benchmark of SCAF on the 16 workloads.

Drives the real service, daemon and analysis through four workloads
and checks every delivered answer against ``golden.json``::

    python3 benchmarks/scafbench/run.py --seed N [--workload NAME]...
        [--seconds S] [--trace [0|1]] [--out DIR]

Each workload repeats a fixed *unit* of work while another unit still
fits in ``--seconds`` (at least one unit), and reports the median over
units.  With ``--trace`` it then runs the same number of units again
with the layer wrappers of ``spans.py`` installed, folds the spans into
per-layer self time, and probes interpretation and each profiler's
marginal cost on the programs the workload sent.

Prints every metric as ``workload metric value unit``, writes a
results JSON under ``--out``, and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and the end-to-end metrics (or,
with ``--trace``, the per-layer metrics).  Exits 1 when an answer
differs from golden.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SERVE = HERE / "serve.py"
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import spans  # noqa: E402
from serve import WORKERS  # noqa: E402

#: Closed-loop daemon clients.  Like WORKERS, fixed to the 2-CPU
#: measuring machine and never derived from the host.
CLIENTS = 2
#: Untimed warm-up batch (``.pyc`` compilation, first fork, page cache).
WARMUP = ("129.compress", "164.gzip")
#: daemon-hit unit: each client sends this many seeded permutations of
#: the 16 caf requests (2 x 112 = 224 requests, so p95 has 11 beyond).
#: Short units give the run's median more of them.
DAEMON_ROUNDS = 7
#: edit-stream unit: seeded permutations of the 16 workloads (32 edits
#: of about 0.5 s, so p68 has 10 beyond).  Two rounds keep every run of
#: the benchmark inside its time budget.
EDIT_ROUNDS = 2
SETUP_REPS = {"suite-scaf-cold": 5, "suite-caf-cold": 5,
              "daemon-hit": 3, "edit-stream": 5}
PROFILERS = ("edge", "value", "points_to", "residue", "lifetime", "memdep")

WORKLOADS = ("suite-scaf-cold", "suite-caf-cold", "daemon-hit", "edit-stream")
SUITE_SYSTEM = {"suite-scaf-cold": "scaf", "suite-caf-cold": "caf"}

#: End-to-end metrics: name -> unit.  Bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_rps": "req/s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "peak_rss_mb": "MB",
}


def module_names() -> List[str]:
    """The names SCAF's analysis modules (a superset of CAF's) report
    their evaluations under, in the ``module_evals{module=...}`` series."""
    from repro.modules.memory import MEMORY_MODULE_CLASSES
    from repro.modules.speculation import SPECULATION_MODULE_CLASSES
    return [cls.name for cls in (tuple(MEMORY_MODULE_CLASSES)
                                 + tuple(SPECULATION_MODULE_CLASSES))]


def layer_catalogue() -> Dict[str, str]:
    """Per-layer metrics of the final line on every workload: name -> unit.

    A layer that a workload may not enter at all (parse on a cache
    hit, queries on an edit) appears here as its share of traced time;
    its seconds (``<layer>_s``, exactly 0 where it is not entered) are
    printed and written to the results file only.
    """
    cat = {"service.sched_s": "s", "service.batch_p50_s": "s",
           "interp.exec_s": "s"}
    cat.update({f"profiling.{p}.marginal_s": "s" for p in PROFILERS})
    cat.update({f"{layer}_frac": "ratio" for layer in spans.LAYERS})
    cat.update({
        "service.worker_other_frac": "ratio",
        "trace.overhead_frac": "ratio",
        "trace.worker_coverage": "ratio",
        "service.parallel_eff": "ratio",
        "service.cache_hit_ratio": "ratio",
        "service.profile_reuse_ratio": "ratio",
        "service.prepared_hit_ratio": "ratio",
        "service.setup_dup_ratio": "ratio",
        "core.evals_per_query": "ratio",
        "core.queries": "count",
        "core.module_evals": "count",
        "profiling.runs": "count",
        "ir.parses": "count",
        "core.builds": "count",
        "service.cache_reads": "count",
        "service.cache_writes": "count",
        "daemon.sheds": "count",
    })
    cat.update({f"modules.{m}.evals": "count" for m in module_names()})
    return cat


# -- statistics ---------------------------------------------------------------

def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile, from p50 up, that leaves at least
    ten of n samples beyond it (None below 20 samples)."""
    p = 100 - (1000 + n - 1) // n
    return p if p >= 50 else None


def tail(values: Sequence[float]):
    """(value, label): the tail percentile, or the maximum when fewer
    than 20 samples leave no percentile with ten beyond it."""
    p = tail_percentile(len(values))
    if p is None:
        return max(values), f"max of n={len(values)}"
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[p - 1], f"p{p} of n={len(values)}"


# -- plans ----------------------------------------------------------------------

def workload_names() -> List[str]:
    from repro.workloads import ALL_WORKLOADS
    return [w.name for w in ALL_WORKLOADS]


def make_plan(workload: str, seed: int, unit: int) -> List[List[str]]:
    """One unit's requests, per client, as workload names.

    Suites: one batch in seeded order.  daemon-hit: CLIENTS clients,
    each sending DAEMON_ROUNDS seeded permutations.  edit-stream: one
    client sending EDIT_ROUNDS seeded permutations.
    """
    names = workload_names()

    def shuffled(tag: str) -> List[str]:
        order = list(names)
        random.Random(f"{workload}:{seed}:{unit}:{tag}").shuffle(order)
        return order

    if workload in SUITE_SYSTEM:
        return [shuffled("batch")]
    if workload == "daemon-hit":
        return [[n for r in range(DAEMON_ROUNDS) for n in shuffled(f"{c}.{r}")]
                for c in range(CLIENTS)]
    return [[n for r in range(EDIT_ROUNDS) for n in shuffled(str(r))]]


# -- processes and environment ------------------------------------------------

def _proc_table() -> Dict[int, tuple]:
    """pid -> (ppid, state) for every live process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def descendants(root: Optional[int] = None) -> List[int]:
    """Live (non-zombie) descendants of ``root`` (default: this process)."""
    table = _proc_table()
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _state) in table.items():
        children.setdefault(ppid, []).append(pid)
    found, work = [], list(children.get(root or os.getpid(), ()))
    while work:
        pid = work.pop()
        if table[pid][1] != "Z":
            found.append(pid)
        work.extend(children.get(pid, ()))
    return found


def peak_rss_mb(root: Optional[int] = None) -> float:
    """Largest VmHWM of the serving process ``root`` (default: this
    process, which hosts the in-process service) and its live
    descendants."""
    root = root or os.getpid()
    peak = 0
    for pid in [root] + descendants(root):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's VmHWM at its current RSS, so a workload's
    peak does not include the template build or an earlier workload."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # older kernels: the peak then covers the whole process


def wait_for_descendants(timeout_s: float = 30.0) -> None:
    """Wait for every process this run started; kill stragglers."""
    deadline = time.monotonic() + timeout_s
    while descendants() and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in descendants():
        try:
            os.kill(pid, 9)
        except OSError:
            pass
    deadline = time.monotonic() + 10.0
    while descendants() and time.monotonic() < deadline:
        time.sleep(0.05)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (median of three): the
    host's current speed.  Neighbours on a shared host can slow every
    instruction by a quarter for minutes, in CPU time as well as wall
    time, and steal time does not show it."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def capture_env() -> Dict:
    with open("/proc/loadavg") as f:
        load = [float(v) for v in f.read().split()[:3]]
    with open("/proc/stat") as f:
        cpu = [int(v) for v in f.readline().split()[1:]]
    return {"time": time.time(), "loadavg": load,
            "steal_ticks": cpu[7] if len(cpu) > 7 else 0,
            "total_ticks": sum(cpu), "calibration_s": calibrate()}


def git_sha() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- results of one unit ----------------------------------------------------------

@dataclasses.dataclass
class Unit:
    wall_s: float
    latencies: List[float]
    attempted: int
    failed: int
    rss_mb: float


class Checker:
    """Checks delivered answers against golden; counts failed requests."""

    def __init__(self):
        self.golden = golden.load()
        self.mismatches: List[str] = []
        self.checked = 0

    def request(self, kind: str, workload: str, answers) -> bool:
        """True when the request failed (fallback or missing loops)."""
        mismatches, missing, fallbacks = golden.check(
            self.golden, kind, workload, answers)
        self.mismatches.extend(mismatches)
        self.checked += len(answers)
        return bool(missing or fallbacks)


def repeat_units(run_unit: Callable[[int], Unit], seconds: float,
                 count: Optional[int] = None) -> List[Unit]:
    """Run ``count`` units, or units until another would take the
    measured time past ``seconds``.  Only measured time counts, so the
    number of units does not depend on the harness's own checks."""
    units: List[Unit] = []
    while True:
        units.append(run_unit(len(units)))
        if count is not None:
            if len(units) >= count:
                return units
        elif sum(u.wall_s for u in units) + units[-1].wall_s > seconds:
            return units


# -- telemetry ----------------------------------------------------------------

TELEMETRY_FIELDS = ("busy_s", "module_evals", "orchestrator_queries",
                    "prepared_hits", "prepared_misses", "cache_hits",
                    "cache_misses", "incremental_probes", "profile_reuses")


def telemetry_counts(doc: Dict) -> Dict[str, float]:
    """The counters the layer metrics use, from a telemetry snapshot
    (``dataclasses.asdict``) or the daemon's ``stats()["telemetry"]``."""
    from repro.obs.metrics import parse_series_key
    counts = {f: float(doc.get(f, 0)) for f in TELEMETRY_FIELDS}
    for key, value in doc.get("metrics", {}).get("counters", {}).items():
        name, labels = parse_series_key(key)
        if name == "module_evals" and "module" in labels:
            field = f"modules.{labels['module']}.evals"
            counts[field] = counts.get(field, 0.0) + value
    return counts


def add_counts(total: Dict[str, float], more: Dict[str, float],
               sign: float = 1.0) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0.0) + sign * value


# -- workloads ----------------------------------------------------------------

def service_config(cache_dir=None):
    from repro.service import ServiceConfig
    return ServiceConfig(workers=WORKERS, executor="process",
                         cache_dir=str(cache_dir) if cache_dir else None)


def caf_batch(names: Sequence[str], checker: Checker,
              cache_dir: Optional[Path] = None) -> bool:
    """One untimed caf batch through a fresh service, answers checked;
    True when a request failed."""
    from repro.service import DependenceService, request_for_workload
    with DependenceService(service_config(cache_dir)) as service:
        batch = service.run_batch([request_for_workload(n, system="caf")
                                   for n in names])
    return any([checker.request("caf", name, answers)
                for name, answers in zip(names, batch.answers)])


def source_digest() -> str:
    digest = hashlib.sha256(sys.version.encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_template(out_dir: Path, checker: Checker) -> Path:
    """The sqlite cache primed with the 16 caf answers, built once per
    source tree and copied fresh for every warm unit."""
    path = out_dir / f"template-{source_digest()}"
    if path.exists():
        return path
    tmp = out_dir / f"{path.name}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    if caf_batch(workload_names(), checker, tmp):
        raise RuntimeError("a template answer degraded")
    try:
        os.rename(tmp, path)
    except OSError:  # a concurrent run finished first
        shutil.rmtree(tmp, ignore_errors=True)
    return path


class Daemon:
    """A ``repro serve`` subprocess over a fresh copy of the template."""

    def __init__(self, template: Path, work_dir: Path, tag: str,
                 spans_dir: Optional[Path] = None):
        from repro.daemon import DaemonClient
        self.cache = work_dir / f"daemon-cache-{tag}"
        sock = work_dir / f"d-{tag}.sock"
        self.addr = "unix:" + os.path.relpath(sock)
        started = time.monotonic()
        shutil.copytree(template, self.cache)
        cmd = [sys.executable, str(SERVE)]
        if spans_dir is not None:
            cmd += ["--spans", str(spans_dir)]
        cmd += ["serve", "--addr", self.addr, "--workers", str(WORKERS),
                "--cache-dir", str(self.cache)]
        self.log = open(work_dir / f"daemon-{tag}.log", "w")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                     stderr=self.log)
        deadline = started + 60.0
        while True:
            if self.proc.poll() is not None:
                self.stop()
                log = Path(self.log.name).read_text()[-2000:]
                raise RuntimeError(f"daemon exited with "
                                   f"{self.proc.returncode}:\n{log}")
            try:
                with DaemonClient(self.addr, timeout_s=5.0) as client:
                    self.pid = client.ping()["pid"]
                break
            except (OSError, ValueError):
                if time.monotonic() > deadline:
                    self.stop()
                    raise
                time.sleep(0.002)
        self.setup_s = time.monotonic() - started

    def stats(self) -> Dict:
        from repro.daemon import DaemonClient
        with DaemonClient(self.addr, timeout_s=30.0) as client:
            return client.stats()

    def stop(self) -> None:
        from repro.daemon import DaemonClient, DaemonError
        try:
            with DaemonClient(self.addr, timeout_s=10.0) as client:
                client.shutdown()
        except (OSError, ValueError, DaemonError):
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        shutil.rmtree(self.cache, ignore_errors=True)


def measure_setup(workload: str, template: Optional[Path],
                  work_dir: Path) -> List[float]:
    """Cold starts: a fresh interpreter until the service (or daemon)
    can take its first request, including the template copy."""
    samples = []
    for rep in range(SETUP_REPS[workload]):
        if workload == "daemon-hit":
            daemon = Daemon(template, work_dir, f"setup{rep}")
            samples.append(daemon.setup_s)
            daemon.stop()
            continue
        cmd = [sys.executable, str(SERVE), "ready"]
        cache = work_dir / f"setup-cache-{rep}"
        started = time.monotonic()
        if template is not None:
            shutil.copytree(template, cache)
            cmd += ["--cache-dir", str(cache)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                             text=True).stdout
        samples.append(float(out.split()[-1]) - started)
        shutil.rmtree(cache, ignore_errors=True)
    return samples


def suite_unit(workload: str, seed: int, unit: int, checker: Checker,
               counts: Dict[str, float]) -> Unit:
    """One cold 16-request batch through a fresh 2-worker service.

    A request's latency is the time until its last loop answer streams
    back from the scheduler."""
    from repro.service import DependenceService, request_for_workload
    system = SUITE_SYSTEM[workload]
    names = make_plan(workload, seed, unit)[0]
    requests = [request_for_workload(n, system=system) for n in names]
    done: Dict[str, float] = {}

    def on_answer(request, _answer) -> None:
        done[request.name] = time.perf_counter()

    service = DependenceService(service_config())
    started = time.perf_counter()
    try:
        groups = service.scheduler.run_batch(requests, on_answer=on_answer)
        rss = peak_rss_mb()
        snapshot = service.snapshot()
    finally:
        service.close()
    wall = time.perf_counter() - started
    add_counts(counts, telemetry_counts(dataclasses.asdict(snapshot)))
    counts["distinct_modules"] = counts.get("distinct_modules", 0) + len(names)
    failed = sum(checker.request(system, n, answers)
                 for n, answers in zip(names, groups))
    return Unit(wall, [done.get(n, started + wall) - started for n in names],
                len(names), failed, rss)


def edit_unit(seed: int, unit: int, checker: Checker, template: Path,
              work_dir: Path, counts: Dict[str, float]) -> Unit:
    """Single-request edits, EDIT_ROUNDS permutations of the workloads,
    through one resident service over a fresh template copy; every edit
    appends the helper with a new step constant."""
    from repro.service import AnalysisRequest, DependenceService
    from repro.workloads import get_workload
    cache = work_dir / f"edit-cache-{unit}"
    shutil.rmtree(cache, ignore_errors=True)
    shutil.copytree(template, cache)
    plan = make_plan("edit-stream", seed, unit)[0]
    latencies, delivered = [], []
    service = DependenceService(service_config(cache))
    started = time.perf_counter()
    try:
        for step, name in enumerate(plan, start=1):
            wl = get_workload(name)
            request = AnalysisRequest(
                name=wl.name, source=golden.edited_source(wl.source, step),
                entry=wl.entry, system="caf")
            sent = time.perf_counter()
            delivered.append(service.run_batch([request]).answers[0])
            latencies.append(time.perf_counter() - sent)
        rss = peak_rss_mb()
        snapshot = service.snapshot()
    finally:
        service.close()
    wall = time.perf_counter() - started
    shutil.rmtree(cache, ignore_errors=True)
    add_counts(counts, telemetry_counts(dataclasses.asdict(snapshot)))
    failed = sum(checker.request("caf-edit", name, answers)
                 for name, answers in zip(plan, delivered))
    return Unit(wall, latencies, len(plan), failed, rss)


def daemon_unit(daemon: Daemon, seed: int, unit: int,
                checker: Checker) -> Unit:
    """CLIENTS closed-loop clients, one connection each, sending one
    single-request job at a time."""
    from repro.daemon import DaemonClient
    from repro.service import request_for_workload
    plans = make_plan("daemon-hit", seed, unit)
    requests = {n: request_for_workload(n, system="caf")
                for n in set(plans[0])}
    results: List[Optional[tuple]] = [None] * CLIENTS
    errors: List[str] = []

    def client(index: int) -> None:
        latencies, delivered, failed = [], [], 0
        with DaemonClient(daemon.addr) as conn:
            for name in plans[index]:
                sent = time.perf_counter()
                try:
                    groups = conn.run_batch([requests[name]])
                except Exception as exc:  # BUSY shed, typed error, lost link
                    failed += 1
                    errors.append(f"{name}: {exc}")
                    continue
                latencies.append(time.perf_counter() - sent)
                delivered.append((name, groups[0]))
        results[index] = (latencies, delivered, failed)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CLIENTS)]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    # The daemon's process tree only: this process is the load generator.
    rss = peak_rss_mb(daemon.pid)
    for message in errors[:5]:
        print(f"daemon-hit request failed: {message}", file=sys.stderr)
    latencies, failed, attempted = [], 0, 0
    for index, result in enumerate(results):
        attempted += len(plans[index])
        if result is None:  # the client thread itself died
            failed += len(plans[index])
            continue
        latencies.extend(result[0])
        failed += result[2]
        for name, answers in result[1]:
            failed += checker.request("caf", name, answers)
    return Unit(wall, latencies, attempted, failed, rss)


@dataclasses.dataclass
class Pass:
    """One measured pass of a workload: its units and counters."""

    units: List[Unit]
    counts: Dict[str, float]
    #: Processes that serve requests (not pool workers).
    front_pids: Sequence[int]
    sheds: float = 0.0


def run_pass(workload: str, seed: int, seconds: float, checker: Checker,
             template: Optional[Path], work_dir: Path,
             count: Optional[int] = None,
             spans_dir: Optional[Path] = None) -> Pass:
    if workload == "daemon-hit":
        return daemon_pass(seed, seconds, checker, template, work_dir,
                           count, spans_dir)
    counts: Dict[str, float] = {}
    if workload in SUITE_SYSTEM:
        def run_unit(u):
            return suite_unit(workload, seed, u, checker, counts)
    else:
        def run_unit(u):
            return edit_unit(seed, u, checker, template, work_dir, counts)
    uninstall = spans.install(spans_dir) if spans_dir is not None else None
    try:
        units = repeat_units(run_unit, seconds, count)
    finally:
        if uninstall is not None:
            uninstall()
    return Pass(units, counts, [os.getpid()])


def daemon_pass(seed: int, seconds: float, checker: Checker, template: Path,
                work_dir: Path, count: Optional[int],
                spans_dir: Optional[Path]) -> Pass:
    """Units against one daemon, after an untimed pass that sends every
    caf request once, so first-touch costs in the fresh daemon (imports,
    sqlite pages) stay out of the units."""
    from repro.daemon import DaemonClient
    from repro.service import request_for_workload
    tag = "traced" if spans_dir is not None else "measured"
    daemon = Daemon(template, work_dir, tag, spans_dir)
    try:
        with DaemonClient(daemon.addr) as conn:
            for name in workload_names():
                groups = conn.run_batch([request_for_workload(name, "caf")])
                checker.request("caf", name, groups[0])
        before = daemon.stats()
        units = repeat_units(lambda u: daemon_unit(daemon, seed, u, checker),
                             seconds, count)
        after = daemon.stats()
    finally:
        daemon.stop()
    counts: Dict[str, float] = {}
    add_counts(counts, telemetry_counts(after["telemetry"]))
    add_counts(counts, telemetry_counts(before["telemetry"]), -1.0)
    sheds = after["daemon"]["jobs_shed"] - before["daemon"]["jobs_shed"]
    return Pass(units, counts, [os.getpid(), daemon.pid], sheds)


# -- metrics ------------------------------------------------------------------

def unit_metrics(unit: Unit) -> Dict[str, float]:
    done = unit.attempted - unit.failed
    return {
        "wall_s": unit.wall_s,
        "throughput_rps": done / unit.wall_s,
        "req_p50_s": statistics.median(unit.latencies),
        "req_tail_s": tail(unit.latencies)[0],
    }


def end_to_end(setup: List[float], measured: Pass) -> Dict[str, Dict]:
    per_unit = [unit_metrics(u) for u in measured.units]
    out = {"setup_s": {"value": statistics.median(setup), "samples": setup}}
    for name in per_unit[0]:
        samples = [m[name] for m in per_unit]
        out[name] = {"value": statistics.median(samples), "samples": samples}
    # VmHWM only grows, and the daemon keeps every finished job, so a
    # later unit reads higher; the first unit's work is fixed by the
    # seed and does not depend on how many units fit in the run.
    first = measured.units[0].rss_mb
    out["peak_rss_mb"] = {"value": first, "samples": [first]}
    for name, doc in out.items():
        doc["unit"] = END_TO_END[name]
    return out


def probe_sources(workload: str) -> List[tuple]:
    from repro.workloads import ALL_WORKLOADS
    if workload == "edit-stream":
        return [(w.name, golden.edited_source(w.source, 1), w.entry)
                for w in ALL_WORKLOADS]
    return [(w.name, w.source, w.entry) for w in ALL_WORKLOADS]


def probe(workload: str) -> Dict[str, float]:
    """Interpretation without listeners, then with one profiler at a
    time, over every program the workload sent; a profiler's marginal
    cost is its run minus the listener-free run."""
    from repro.analysis import AnalysisContext
    from repro.interp import make_interpreter
    from repro.ir import parse_module, verify_module
    from repro import profiling
    classes = {"edge": profiling.EdgeProfiler,
               "value": profiling.ValueProfiler,
               "points_to": profiling.PointsToProfiler,
               "residue": profiling.ResidueProfiler,
               "lifetime": profiling.LifetimeProfiler,
               "memdep": profiling.MemDepProfiler}
    totals = {p: 0.0 for p in (None,) + PROFILERS}
    for name, source, entry in probe_sources(workload):
        for profiler in totals:
            module = parse_module(source, name=name)
            verify_module(module)
            context = AnalysisContext(module)
            started = time.perf_counter()
            interp = make_interpreter(module, context)
            if profiler is not None:
                listener = classes[profiler]()
                interp.add_listener(listener)
            interp.run(entry)
            if profiler is not None and hasattr(listener, "finish"):
                listener.finish()
            totals[profiler] += time.perf_counter() - started
    out = {"interp.exec_s": totals[None]}
    for p in PROFILERS:
        out[f"profiling.{p}.marginal_s"] = totals[p] - totals[None]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, measured: Pass, traced: Pass,
                  folded: Dict, probed: Dict[str, float]) -> Dict[str, float]:
    n = len(traced.units)
    counts = traced.counts
    self_s = folded["self_s"]
    calls = folded["calls"]
    worker_named = sum(s for pid, s in folded["self_by_pid"].items()
                       if pid not in traced.front_pids)
    busy = counts.get("busy_s", 0.0)
    other = busy - worker_named
    total = sum(self_s.values()) + max(0.0, other)
    out: Dict[str, float] = {}
    for layer in spans.LAYERS:
        out[f"{layer}_s"] = self_s.get(layer, 0.0) / n
        out[f"{layer}_frac"] = _ratio(self_s.get(layer, 0.0), total)
    out["service.worker_other_s"] = other / n
    out["service.worker_other_frac"] = _ratio(max(0.0, other), total)
    out["service.busy_s"] = busy / n
    batches = folded["name_durations"].get("BatchScheduler.run_batch", [0.0])
    out["service.batch_p50_s"] = statistics.median(batches)
    out["clients.loop_max_s"] = folded["max_s"].get("clients.loop", 0.0)
    out.update(probed)
    untraced_wall = statistics.median(u.wall_s for u in measured.units)
    traced_wall = statistics.median(u.wall_s for u in traced.units)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.worker_coverage"] = _ratio(worker_named, busy)
    out["service.parallel_eff"] = _ratio(
        busy, sum(u.wall_s for u in traced.units) * WORKERS)
    out["service.cache_hit_ratio"] = _ratio(
        counts["cache_hits"], counts["cache_hits"] + counts["cache_misses"])
    out["service.profile_reuse_ratio"] = _ratio(
        counts["profile_reuses"], counts["incremental_probes"])
    out["service.prepared_hit_ratio"] = _ratio(
        counts["prepared_hits"],
        counts["prepared_hits"] + counts["prepared_misses"])
    out["service.setup_dup_ratio"] = _ratio(
        counts["prepared_misses"], counts.get("distinct_modules", 0.0))
    out["core.evals_per_query"] = _ratio(counts["module_evals"],
                                         counts["orchestrator_queries"])
    out["core.queries"] = counts["orchestrator_queries"] / n
    out["core.module_evals"] = counts["module_evals"] / n
    out["profiling.runs"] = calls.get("profiling.run", 0) / n
    out["ir.parses"] = sum(folded["name_calls"].get(f"{m}.parse_module", 0)
                           for m in ("worker", "scheduler")) / n
    out["core.builds"] = calls.get("core.build", 0) / n
    out["service.cache_reads"] = calls.get("service.cache_read", 0) / n
    out["service.cache_writes"] = calls.get("service.cache_write", 0) / n
    out["daemon.sheds"] = traced.sheds / n
    for m in module_names():
        out[f"modules.{m}.evals"] = counts.get(f"modules.{m}.evals", 0.0) / n
    if workload == "daemon-hit":
        client_p50 = statistics.median(
            statistics.median(u.latencies) for u in traced.units)
        out["daemon.server_p50_s"] = out["service.batch_p50_s"]
        out["daemon.overhead_p50_s"] = client_p50 - out["service.batch_p50_s"]
    return out


# -- main ---------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, work_dir: Path, checker: Checker) -> Dict:
    env_before = capture_env()
    template = (ensure_template(out_dir, checker)
                if workload in ("daemon-hit", "edit-stream") else None)
    setup = measure_setup(workload, template, work_dir)
    reset_peak_rss()
    measured = run_pass(workload, seed, seconds, checker, template, work_dir)
    n = len(measured.units)
    counts = measured.counts
    result = {"metrics": end_to_end(setup, measured),
              "units": n,
              "tail": tail(measured.units[0].latencies)[1],
              "attempted": sum(u.attempted for u in measured.units),
              "failed": sum(u.failed for u in measured.units),
              # Per unit, so they repeat exactly whatever the unit count.
              "counts": {
                  "requests_per_unit": measured.units[0].attempted,
                  "queries_per_unit": counts["orchestrator_queries"] / n,
                  # Incremental probes that had to profile the edit again.
                  "reprofiles_per_unit": (counts["incremental_probes"]
                                          - counts["profile_reuses"]) / n}}
    if trace:
        spans_dir = work_dir / f"spans-{workload}"
        spans_dir.mkdir()
        traced = run_pass(workload, seed, seconds, checker, template,
                          work_dir, count=len(measured.units),
                          spans_dir=spans_dir)
        folded = spans.fold(spans.read_spans(spans_dir))
        result["layers"] = layer_metrics(workload, measured, traced, folded,
                                         probe(workload))
        result["attempted"] += sum(u.attempted for u in traced.units)
        result["failed"] += sum(u.failed for u in traced.units)
    env_after = capture_env()
    ticks = env_after["total_ticks"] - env_before["total_ticks"]
    result["env"] = {
        "before": env_before, "after": env_after,
        "steal_frac": _ratio(env_after["steal_ticks"]
                             - env_before["steal_ticks"], ticks),
        "noisy": env_before["loadavg"][0] > nproc()}
    return result


def print_workload(workload: str, result: Dict, trace: bool) -> None:
    units = result["units"]
    for name, doc in result["metrics"].items():
        note = {"setup_s": f"median of {len(doc['samples'])} cold starts",
                "req_tail_s": f"{result['tail']} per unit",
                "peak_rss_mb": "after the first unit"}.get(
            name, f"median of {units} unit{'s' if units > 1 else ''}")
        print(f"{workload} {name} {doc['value']:.6g} {doc['unit']}"
              f"  # {note}")
    if trace:
        catalogue = layer_catalogue()
        for name, value in sorted(result["layers"].items()):
            unit = catalogue.get(name, "s")
            print(f"{workload} {name} {value:.6g} {unit}  # traced")
    if result["env"]["noisy"]:
        print(f"{workload} noisy: load average above nproc at start")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="repeat units while another fits (min. one)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").exists():
        print(f"scafbench: no repro package under {SRC}", file=sys.stderr)
        return 2

    workloads = args.workload or list(WORKLOADS)
    args.out.mkdir(parents=True, exist_ok=True)
    if len(workloads) > 1:
        return run_each(args, workloads)
    workload = workloads[0]
    work_dir = args.out / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    checker = Checker()
    try:
        caf_batch(WARMUP, checker)
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), args.out, work_dir, checker)
    finally:
        wait_for_descendants()
        shutil.rmtree(work_dir, ignore_errors=True)
    print_workload(workload, result, bool(args.trace))

    doc = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "git_sha": git_sha(),
           "python": sys.version.split()[0], "nproc": nproc(),
           "workers": WORKERS, "clients": CLIENTS,
           "workloads": {workload: result},
           "correct": not checker.mismatches,
           "mismatches": checker.mismatches,
           "answers_checked": checker.checked}
    write_results(args, [workload], doc)
    for mismatch in checker.mismatches[:20]:
        print(f"GOLDEN MISMATCH {mismatch}", file=sys.stderr)
    if args.trace:
        chosen = {n: (result["layers"][n], u)
                  for n, u in layer_catalogue().items()}
    else:
        chosen = {n: (d["value"], d["unit"])
                  for n, d in result["metrics"].items()}
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in chosen.items()}}))
    return 0 if doc["correct"] else 1


def results_path(args, workloads: Sequence[str]) -> Path:
    suffix = "-trace" if args.trace else ""
    return args.out / (f"results-{'+'.join(workloads)}"
                       f"-seed{args.seed}{suffix}.json")


def write_results(args, workloads: Sequence[str], doc: Dict) -> None:
    path = results_path(args, workloads)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"results: {path}")


def run_each(args, workloads: Sequence[str]) -> int:
    """Several workloads: each in a fresh process, exactly like the
    single-workload runs of BENCHMARK.json (so no workload inherits
    another's memory or warm state), merged into one results file and
    one final line with ``workload/``-prefixed metric names."""
    merged: Optional[Dict] = None
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(args.out)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print("\n".join(lines))
            return proc.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        child = json.loads(lines[-1])
        line["correct"] &= child["correct"]
        line["attempted"] += child["attempted"]
        line["failed"] += child["failed"]
        line["metrics"].update({f"{workload}/{n}": m
                                for n, m in child["metrics"].items()})
        with open(results_path(args, [workload])) as f:
            doc = json.load(f)
        if merged is None:
            merged = doc
        else:
            merged["workloads"].update(doc["workloads"])
            merged["correct"] &= doc["correct"]
            merged["mismatches"] += doc["mismatches"]
            merged["answers_checked"] += doc["answers_checked"]
    write_results(args, workloads, merged)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
