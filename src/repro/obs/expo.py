"""Prometheus text-format exposition for MetricsRegistry snapshots.

:func:`render_prometheus` turns any
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` document — the
same dict that crosses process boundaries and merges commutatively —
into the Prometheus text exposition format (version 0.0.4), with no
dependency on any Prometheus client library:

- every counter family becomes ``<ns>_<name>_total``;
- every gauge family becomes ``<ns>_<name>`` plus a
  ``<ns>_<name>_max`` high-water series (the registry's gauges carry
  both);
- every latency histogram becomes a native Prometheus histogram:
  cumulative ``<ns>_<name>_bucket{le="..."}`` series over the
  registry's fixed log-spaced bounds, ``+Inf``, ``_sum`` and
  ``_count``.

Labels survive verbatim (``module_evals{module=KillFlowAA}`` renders
as ``repro_module_evals_total{module="KillFlowAA"}``); metric names
are sanitized to the Prometheus charset.  Output is deterministic
(families and series sorted) so tests can golden-file it.

:func:`parse_prometheus` is the matching minimal parser: it
understands exactly what the renderer emits (``# TYPE`` / ``# HELP``
comments, samples with optional labels) and raises :class:`ValueError`
on anything malformed — the CI smoke job scrapes the daemon's
``/metrics`` and round-trips it through this parser as the format
gate.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Mapping, Optional, Tuple

from .metrics import LatencyHistogram, parse_series_key, series_key

__all__ = [
    "parse_prometheus",
    "render_prometheus",
    "sample_value",
    "window_gauges",
]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_FIX = re.compile(r"[^a-zA-Z0-9_]")

#: One exposition sample line: name, optional {labels}, value.
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(.*)\})?"
    r"\s+(-?(?:[0-9.eE+-]+|[Ii]nf|NaN))$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _metric_name(namespace: str, name: str) -> str:
    full = f"{namespace}_{name}" if namespace else name
    if not _NAME_OK.match(full):
        full = _NAME_FIX.sub("_", full)
    return full


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_part(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_LABEL_FIX.sub("_", k)}="{_escape_label(labels[k])}"'
        for k in sorted(labels))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _group(series: Mapping) -> Dict[str, List[Tuple[Dict[str, str], object]]]:
    """Bucket snapshot series by family name, splitting label parts."""
    families: Dict[str, List[Tuple[Dict[str, str], object]]] = {}
    for key, value in series.items():
        name, labels = parse_series_key(key)
        families.setdefault(name, []).append((labels, value))
    for entries in families.values():
        entries.sort(key=lambda e: sorted(e[0].items()))
    return families


def render_prometheus(snapshot: Mapping, *, namespace: str = "repro",
                      extra_gauges: Optional[Mapping[str, float]] = None
                      ) -> str:
    """Render a registry snapshot as Prometheus exposition text.

    ``extra_gauges`` is a flat ``series_key -> value`` mapping merged
    in as additional gauge families — the daemon uses it for values
    it reads at request time (uptime, sessions, queue depth) and for
    the rolling-window percentile gauges that have no registry
    instrument.
    """
    lines: List[str] = []

    for name, entries in sorted(_group(snapshot.get(
            "counters", {})).items()):
        metric = _metric_name(namespace, name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        for labels, value in entries:
            lines.append(f"{metric}{_label_part(labels)} {_fmt(value)}")

    gauge_families = _group(snapshot.get("gauges", {}))
    extra_gauge_families = _group(extra_gauges or {})
    for name in sorted(set(gauge_families) | set(extra_gauge_families)):
        metric = _metric_name(namespace, name)
        lines.append(f"# TYPE {metric} gauge")
        for labels, doc in gauge_families.get(name, ()):
            lines.append(
                f"{metric}{_label_part(labels)} "
                f"{_fmt(doc.get('value', 0))}")
        for labels, value in extra_gauge_families.get(name, ()):
            lines.append(f"{metric}{_label_part(labels)} {_fmt(value)}")
        highs = [(labels, doc) for labels, doc in gauge_families.get(name, ())]
        if highs:
            lines.append(f"# TYPE {metric}_max gauge")
            for labels, doc in highs:
                lines.append(
                    f"{metric}_max{_label_part(labels)} "
                    f"{_fmt(doc.get('max', 0))}")

    for name, entries in sorted(_group(snapshot.get(
            "histograms", {})).items()):
        metric = _metric_name(namespace, name)
        lines.append(f"# TYPE {metric} histogram")
        for labels, doc in entries:
            counts = doc.get("counts", ())
            bounds = _bucket_bounds(len(counts))
            cumulative = 0
            for bound, count in zip(bounds, counts):
                cumulative += count
                le = dict(labels)
                le["le"] = _fmt(bound)
                lines.append(
                    f"{metric}_bucket{_label_part(le)} {cumulative}")
            lines.append(
                f"{metric}_sum{_label_part(labels)} "
                f"{_fmt(float(doc.get('sum_s', 0.0)))}")
            lines.append(
                f"{metric}_count{_label_part(labels)} "
                f"{_fmt(doc.get('total', 0))}")
    return "\n".join(lines) + "\n"


def _bucket_bounds(n_counts: int) -> List[float]:
    bounds = list(LatencyHistogram.BUCKETS)
    # The snapshot's counts list carries one overflow bucket past the
    # fixed bounds; render it as +Inf per the exposition format.
    while len(bounds) < n_counts - 1:
        bounds.append(bounds[-1] * 2 if bounds else 1.0)
    return bounds[:n_counts - 1] + [math.inf]


def window_gauges(window_snapshot: Mapping,
                  prefix: str = "window") -> Dict[str, float]:
    """Flatten a :meth:`RollingWindow.snapshot` document into gauge
    series for :func:`render_prometheus`'s ``extra_gauges``: per-family
    windowed rates plus p50/p95/p99 latency percentile gauges."""
    out: Dict[str, float] = {}
    for key, doc in window_snapshot.get("counters", {}).items():
        name, labels = parse_series_key(key)
        out[series_key(f"{prefix}_{name}_rate", labels)] = doc["rate"]
    for key, doc in window_snapshot.get("histograms", {}).items():
        name, labels = parse_series_key(key)
        for quantile in ("p50_s", "p95_s", "p99_s"):
            out[series_key(f"{prefix}_{name}_{quantile}", labels)] = \
                doc[quantile]
        out[series_key(f"{prefix}_{name}_count", labels)] = doc["count"]
    return out


def parse_prometheus(text: str) -> Dict:
    """Parse exposition text into ``{"types": {family: kind},
    "samples": [(name, labels, value), ...]}``.

    Strict about what it accepts: every non-comment line must match
    the sample grammar, every sample's family must have been declared
    by a preceding ``# TYPE`` line, and no series (name + label set)
    may repeat.  Raises :class:`ValueError` with the offending line.
    """
    types: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    seen = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                if parts[2] in types:
                    raise ValueError(f"duplicate TYPE for {parts[2]}")
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed sample line: {raw!r}")
        name, label_text, value_text = match.groups()
        labels: Dict[str, str] = {}
        if label_text:
            consumed = 0
            for m in _LABEL_RE.finditer(label_text):
                labels[m.group(1)] = (
                    m.group(2).replace('\\"', '"')
                    .replace("\\n", "\n").replace("\\\\", "\\"))
                consumed = m.end()
            rest = label_text[consumed:].strip().strip(",")
            if rest:
                raise ValueError(f"malformed labels in: {raw!r}")
        family = _family_of(name, types)
        if family is None:
            raise ValueError(f"sample {name!r} has no TYPE declaration")
        series = (name, tuple(sorted(labels.items())))
        if series in seen:
            raise ValueError(f"duplicate series: {raw!r}")
        seen.add(series)
        samples.append((name, labels, float(value_text)))
    return {"types": types, "samples": samples}


def _family_of(sample_name: str, types: Mapping[str, str]) -> Optional[str]:
    if sample_name in types:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[:-len(suffix)]
            if types.get(base) == "histogram":
                return base
    return None


def sample_value(parsed: Mapping, name: str,
                 **labels) -> Optional[float]:
    """The value of one series in a :func:`parse_prometheus` result
    (``None`` when absent) — the assertion helper tests and the CI
    smoke use."""
    want = dict(labels)
    for sample_name, sample_labels, value in parsed["samples"]:
        if sample_name == name and sample_labels == want:
            return value
    return None
