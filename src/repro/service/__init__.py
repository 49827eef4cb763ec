"""The serving layer: batched, parallel, cached dependence queries.

Turns the SCAF reproduction from a library into a serving stack (see
DESIGN.md §5, "Serving layer"):

- :mod:`answers` — the flattened wire/JSON schema shared by the
  service, the persistent cache, and ``repro analyze --json``;
- :mod:`requests` — self-contained :class:`AnalysisRequest` plus the
  version-hash cache keying;
- :mod:`cache` — the on-disk sqlite :class:`ResultCache`;
- :mod:`scheduler` — deduplication, cache probe, and the global
  loop-granular work queue (LPT-ordered, shared across in-flight
  requests), with timeout/crash degradation of single loops;
- :mod:`engine` — the resident work engine behind the queue: the LPT
  heap and one single-task lane per worker;
- :mod:`worker` — loop-task evaluation in pool workers, with a
  worker-resident prepared-module LRU;
- :mod:`telemetry` — latency histograms, cache and utilization
  counters, printable report;
- :mod:`service` — the :class:`DependenceService` facade.
"""

from .answers import (
    LoopAnswer,
    QueryAnswer,
    STATUS_CACHED,
    STATUS_COMPUTED,
    STATUS_FALLBACK,
    fallback_answer,
    inst_label,
    loop_answer_from_dict,
    loop_answer_to_dict,
    summarize_pdg,
)
from .cache import CacheEntryMeta, FootprintHit, ResultCache
from .requests import (
    ANSWER_IRRELEVANT_CONFIG_FIELDS,
    AnalysisRequest,
    TrainingRun,
    config_fingerprint,
    loop_footprint_digest,
    profile_digest,
    system_module_roster,
    system_profilers,
)
from .scheduler import BatchScheduler
from .service import (
    BatchResult,
    DependenceService,
    ServiceConfig,
    request_for_file,
    request_for_workload,
)
from .telemetry import (
    LatencyHistogram,
    ServiceTelemetry,
    TelemetrySnapshot,
    format_report,
)
from .worker import (
    DEFAULT_PREPARED_CACHE_SIZE,
    LoopTask,
    LoopTaskResult,
    PreparedModule,
    build_system,
    executed_function_scope,
    loop_footprint,
    prepare_request,
    prepared_cache_keys,
    reset_prepared_cache,
    run_loop_task,
)

__all__ = [
    "ANSWER_IRRELEVANT_CONFIG_FIELDS", "DEFAULT_PREPARED_CACHE_SIZE",
    "AnalysisRequest", "BatchResult", "BatchScheduler", "CacheEntryMeta",
    "DependenceService", "FootprintHit",
    "LatencyHistogram", "LoopAnswer",
    "LoopTask", "LoopTaskResult", "PreparedModule",
    "QueryAnswer", "ResultCache", "ServiceConfig", "ServiceTelemetry",
    "TelemetrySnapshot", "TrainingRun",
    "STATUS_CACHED", "STATUS_COMPUTED", "STATUS_FALLBACK",
    "build_system", "config_fingerprint", "executed_function_scope",
    "fallback_answer",
    "format_report", "inst_label", "loop_answer_from_dict",
    "loop_answer_to_dict", "loop_footprint", "loop_footprint_digest",
    "prepare_request", "prepared_cache_keys", "profile_digest",
    "request_for_file", "request_for_workload", "reset_prepared_cache",
    "run_loop_task", "summarize_pdg",
    "system_module_roster", "system_profilers",
]
