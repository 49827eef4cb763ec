"""Wire protocol of the analysis daemon.

Framing is newline-delimited JSON: every message is one JSON object on
one line, UTF-8 encoded.  A client sends ``{"verb": ..., ...}`` and
reads exactly one response line per request — except ``stream``, which
replies with one ``event: "answer"`` line per computed loop followed
by a final ``event: "done"`` line.

Responses always carry ``"ok"``.  Failures are typed::

    {"ok": false, "error": "BUSY", "message": "..."}

so clients can distinguish load shedding (``BUSY``: retry later, the
admission window or global queue is full) from a draining server
(``SHUTTING_DOWN``), malformed input (``BAD_REQUEST``), a frame longer
than :data:`MAX_FRAME_BYTES` (``TOO_LARGE``: the daemon discards the
line and keeps the session), a stale job id (``UNKNOWN_JOB``), an
unsupported verb (``UNKNOWN_VERB``), and server bugs (``INTERNAL``).

Addresses are ``unix:/path/to.sock`` or ``host:port``; a bare path
(anything containing ``/`` or ending in ``.sock``) is taken as a Unix
socket for convenience.

Protocol v2 adds two observability verbs (v1 clients are unaffected —
every v1 verb is unchanged):

- ``{"verb": "metrics"}`` -> ``{"ok": true, "text": <Prometheus
  exposition text>, "content_type": ...}`` — the same document the
  optional ``--metrics-port`` HTTP listener serves at ``/metrics``;
- ``{"verb": "dump"}`` -> ``{"ok": true, "dump": {...}}`` — the
  flight recorder's ring of recent query spans plus the slow-query
  log (see :class:`repro.obs.live.FlightRecorder`).

``hello`` may now carry ``{"tag": <name>}``: a friendly client tag
the daemon uses to label this session's per-client metric series
instead of the ephemeral session id.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Dict, Optional, Sequence, Tuple, Union

from ..core.orchestrator import OrchestratorConfig
from ..service.requests import AnalysisRequest

PROTOCOL_VERSION = 2

#: Default rendezvous for ``repro serve`` / ``repro submit``.
DEFAULT_ADDR = "unix:.repro-daemon.sock"

#: Longest request frame the daemon reads, not counting its newline;
#: a longer one is answered with ``TOO_LARGE``.  Two copies of the 16
#: workloads in one ``submit`` come to about 110 KB.
MAX_FRAME_BYTES = 16 * 1024 * 1024

ERR_BUSY = "BUSY"
ERR_SHUTTING_DOWN = "SHUTTING_DOWN"
ERR_BAD_REQUEST = "BAD_REQUEST"
ERR_TOO_LARGE = "TOO_LARGE"
ERR_UNKNOWN_JOB = "UNKNOWN_JOB"
ERR_UNKNOWN_VERB = "UNKNOWN_VERB"
ERR_INTERNAL = "INTERNAL"


def parse_addr(addr: str) -> Tuple[str, Union[str, Tuple[str, int]]]:
    """``"unix:/p.sock"`` -> ``("unix", "/p.sock")``;
    ``"127.0.0.1:7777"`` -> ``("tcp", ("127.0.0.1", 7777))``."""
    if addr.startswith("unix:"):
        return "unix", addr[len("unix:"):]
    if addr.startswith("tcp:"):
        addr = addr[len("tcp:"):]
    elif "/" in addr or addr.endswith(".sock"):
        return "unix", addr
    host, sep, port = addr.rpartition(":")
    if sep and host and port.isdigit():
        return "tcp", (host, int(port))
    raise ValueError(
        f"bad daemon address {addr!r} (want unix:/path.sock or host:port)")


def encode_message(doc: Dict) -> bytes:
    """One message, one line."""
    return (json.dumps(doc, sort_keys=True, default=str) + "\n").encode()


def decode_message(line: Union[str, bytes]) -> Dict:
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise ValueError("protocol messages must be JSON objects")
    return doc


def error(code: str, message: str, **extra) -> Dict:
    doc = {"ok": False, "error": code, "message": message}
    doc.update(extra)
    return doc


def ok(**fields) -> Dict:
    doc = {"ok": True}
    doc.update(fields)
    return doc


# -- request round-trip ------------------------------------------------------

def request_to_wire(request: AnalysisRequest) -> Dict:
    return {
        "name": request.name,
        "source": request.source,
        "entry": request.entry,
        "system": request.system,
        "loops": list(request.loops),
        "config": (asdict(request.config)
                   if request.config is not None else None),
    }


def request_from_wire(doc: Dict) -> AnalysisRequest:
    config: Optional[OrchestratorConfig] = None
    if doc.get("config") is not None:
        config = OrchestratorConfig(**doc["config"])
    return AnalysisRequest(
        name=doc["name"],
        source=doc["source"],
        entry=doc.get("entry", "main"),
        system=doc.get("system", "scaf"),
        loops=tuple(doc.get("loops", ())),
        config=config,
    )


def requests_to_wire(requests: Sequence[AnalysisRequest]) -> list:
    return [request_to_wire(r) for r in requests]


def requests_from_wire(docs: Sequence[Dict]) -> list:
    return [request_from_wire(d) for d in docs]
