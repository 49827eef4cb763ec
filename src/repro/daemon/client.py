"""Synchronous client library for the analysis daemon.

:class:`DaemonClient` is what ``repro submit`` / ``repro batch
--daemon`` / ``repro stats --daemon`` and the daemon benchmark use: a
plain blocking socket speaking the NDJSON protocol.  One client is one
server-side session; its in-flight jobs share the per-session
admission window, and closing the socket sweeps whatever it still had
queued.

Not thread-safe: one :class:`DaemonClient` per thread (the protocol
interleaves request/response lines on one stream).
"""

from __future__ import annotations

import socket
from typing import Callable, Dict, List, Optional, Sequence

from ..service.answers import LoopAnswer, loop_answer_from_dict
from ..service.requests import AnalysisRequest
from . import protocol
from .protocol import DEFAULT_ADDR, decode_message, encode_message


class DaemonError(RuntimeError):
    """A typed failure reply from the daemon."""

    def __init__(self, code: str, message: str, doc: Optional[Dict] = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.doc = doc or {}

    @property
    def busy(self) -> bool:
        return self.code == protocol.ERR_BUSY

    @property
    def shutting_down(self) -> bool:
        return self.code == protocol.ERR_SHUTTING_DOWN

    @property
    def too_large(self) -> bool:
        """The request frame exceeded the daemon's
        :data:`~repro.daemon.protocol.MAX_FRAME_BYTES`."""
        return self.code == protocol.ERR_TOO_LARGE


class DaemonClient:
    """One session against a running ``repro serve``."""

    def __init__(self, addr: str = DEFAULT_ADDR,
                 timeout_s: Optional[float] = None,
                 tag: Optional[str] = None):
        self.addr = addr
        self.tag = tag
        kind, target = protocol.parse_addr(addr)
        if kind == "unix":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout_s or 10.0)
            self._sock.connect(target)
        else:
            self._sock = socket.create_connection(
                target, timeout=timeout_s or 10.0)
        # Analysis can take a while; block indefinitely after connect
        # unless the caller bounded us.
        self._sock.settimeout(timeout_s)
        self._rfile = self._sock.makefile("rb")
        if tag:
            # Register the friendly tag for per-client attribution.
            self._rpc({"verb": "hello", "tag": tag})

    # -- plumbing ------------------------------------------------------------

    def _send(self, doc: Dict) -> None:
        self._sock.sendall(encode_message(doc))

    def _recv(self) -> Dict:
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return decode_message(line)

    def _rpc(self, doc: Dict) -> Dict:
        """One request line, one response line; raises on typed errors."""
        self._send(doc)
        reply = self._recv()
        if not reply.get("ok"):
            raise DaemonError(reply.get("error", "INTERNAL"),
                              reply.get("message", ""), reply)
        return reply

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- verbs ---------------------------------------------------------------

    def ping(self) -> Dict:
        return self._rpc({"verb": "ping"})

    def submit(self, requests: Sequence[AnalysisRequest]) -> str:
        """Enqueue a batch; returns the job id.  Raises
        :class:`DaemonError` with ``.busy`` on admission shedding."""
        reply = self._rpc({"verb": "submit",
                           "requests": protocol.requests_to_wire(requests)})
        return reply["job"]

    def poll(self, job: str) -> Dict:
        return self._rpc({"verb": "poll", "job": job})

    def stream(self, job: str,
               on_answer: Optional[Callable[[Dict], None]] = None) -> Dict:
        """Block until the job finishes, invoking ``on_answer`` with
        each per-loop answer dict as the daemon computes it.  Returns
        the final ``done`` frame."""
        self._send({"verb": "stream", "job": job})
        while True:
            reply = self._recv()
            if not reply.get("ok"):
                raise DaemonError(reply.get("error", "INTERNAL"),
                                  reply.get("message", ""), reply)
            if reply.get("event") == "answer":
                if on_answer is not None:
                    on_answer(reply["answer"])
                continue
            return reply

    def cancel(self, job: str) -> Dict:
        return self._rpc({"verb": "cancel", "job": job})

    def stats(self) -> Dict:
        return self._rpc({"verb": "stats"})["stats"]

    def metrics(self) -> str:
        """The daemon's Prometheus exposition text (protocol v2)."""
        return self._rpc({"verb": "metrics"})["text"]

    def dump(self) -> Dict:
        """The daemon's flight-recorder dump (protocol v2)."""
        return self._rpc({"verb": "dump"})["dump"]

    def recycle(self) -> Dict:
        return self._rpc({"verb": "recycle"})

    def shutdown(self) -> Dict:
        """Ask the daemon to drain and exit; idempotent."""
        return self._rpc({"verb": "shutdown"})

    # -- conveniences --------------------------------------------------------

    def run_batch(self, requests: Sequence[AnalysisRequest],
                  on_answer: Optional[Callable[[Dict], None]] = None
                  ) -> List[List[LoopAnswer]]:
        """Submit + stream to completion; answers parallel the
        requests, exactly like ``DependenceService.run_batch``."""
        job = self.submit(requests)
        done = self.stream(job, on_answer=on_answer)
        if done.get("status") != "done":
            raise DaemonError(
                protocol.ERR_INTERNAL,
                f"job {job} ended {done.get('status')}: "
                f"{done.get('message', '')}", done)
        return [[loop_answer_from_dict(d) for d in group]
                for group in done["answers"] or []]


def daemon_available(addr: str = DEFAULT_ADDR) -> bool:
    """True if something answering the protocol listens at ``addr``."""
    try:
        with DaemonClient(addr, timeout_s=2.0) as client:
            return bool(client.ping().get("ok"))
    except (OSError, ValueError, DaemonError, ConnectionError):
        return False
