"""HTTP/SSE surface over a :class:`~repro.serve.service.SimulationService`.

Stdlib only: ``http.server.ThreadingHTTPServer`` with one handler thread
per connection, which is exactly the shape SSE needs — each subscriber
parks its thread on its own bounded bus queue while the single service
worker thread runs simulations undisturbed.

Routes
------
====================================  =================================
``GET  /``                            the single-file dashboard
``GET  /healthz``                     liveness probe
``POST /jobs``                        submit a job spec (JSON body)
``GET  /jobs``                        list jobs
``GET  /jobs/<id>``                   one job record
``GET  /jobs/<id>/results``           terminal job's per-cell results
``GET  /jobs/<id>/events``            SSE stream scoped to one job
``GET  /events``                      SSE firehose (every bus event)
``GET  /metrics``                     Prometheus text exposition
====================================  =================================

Transport: connections are kept alive and every accepted socket has
``TCP_NODELAY`` set.  A response leaves as two writes (headers, then
body) and an SSE frame as one small write; with Nagle's algorithm on, a
small write waits while an earlier one is unacknowledged, and the client
delays its ACK (40 ms minimum on Linux).  A request body the handler
refuses (missing, unparseable or oversized ``Content-Length``) is left
unread, so that answer closes the connection rather than parse the
leftover bytes as the next request.

SSE framing: each bus event becomes ``event: <type>`` / ``id: <seq>`` /
``data: <json>`` blocks; ``: ping`` comments keep idle connections alive.
Streams accept ``?limit=N`` (close after N bus events) and ``?idle=S``
(close after S seconds without an event) so tests and curl sessions
terminate deterministically.  A stream always opens with a synthetic
``state`` event carrying the current job record (or, on the firehose,
the service stats), so late subscribers see terminal jobs immediately.

Wall-clock readings here are confined to connection plumbing (idle
timeouts, heartbeat pacing) — they never feed a simulation, which is why
this module is on the wall-clock allowlist of
``tests/test_determinism_sources.py``.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.serve.dashboard import DASHBOARD_HTML
from repro.serve.service import SimulationService

__all__ = ["ServeHTTPServer", "make_server"]

#: consumer-side poll granularity; also bounds heartbeat latency.
_POLL_S = 0.25
#: seconds between ``: ping`` comments on an otherwise idle stream.
_HEARTBEAT_S = 5.0
#: largest ``POST`` body read; a bigger one is answered 413 unread.
_MAX_BODY_BYTES = 1 << 20


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a reference to the service."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: SimulationService) -> None:
        super().__init__(address, _Handler)
        self.service = service


def make_server(
    service: SimulationService, host: str = "127.0.0.1", port: int = 8321
) -> ServeHTTPServer:
    """Bind (but do not start) the HTTP server; port 0 picks a free port."""
    return ServeHTTPServer((host, port), service)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # StreamRequestHandler.setup() sets TCP_NODELAY on each connection
    disable_nagle_algorithm = True
    # quiet: one log line per request is noise under SSE + polling tests
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send_json(self, payload: dict, status: int = 200, close: bool = False) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")  # sets close_connection
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, content_type: str, status: int = 200) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, close: bool = False) -> None:
        self._send_json({"error": message}, status=status, close=close)

    def _read_body(self) -> Optional[bytes]:
        """The request body, or None once a refusal has been sent.

        A refused body stays unread, so the refusal closes the connection.
        """
        raw = self.headers.get("Content-Length", "").strip()
        length = int(raw) if raw.isascii() and raw.isdigit() else 0
        if length > _MAX_BODY_BYTES:
            self._error(413, f"body exceeds {_MAX_BODY_BYTES} bytes", close=True)
            return None
        if length == 0:
            self._error(400, "POST needs a JSON body with a Content-Length", close=True)
            return None
        return self.rfile.read(length)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        try:
            if not parts:
                self._send_text(DASHBOARD_HTML, "text/html; charset=utf-8")
            elif parts == ["healthz"]:
                self._send_json({"ok": True})
            elif parts == ["metrics"]:
                self._send_text(
                    self.service.prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif parts == ["events"]:
                self._stream(job_id=None, query=query)
            elif parts == ["jobs"]:
                self._send_json(
                    {"jobs": [job.to_dict() for job in self.service.store.list()]}
                )
            elif len(parts) == 2 and parts[0] == "jobs":
                job = self.service.store.get(parts[1])
                if job is None:
                    self._error(404, f"no such job {parts[1]!r}")
                else:
                    self._send_json(job.to_dict())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
                if self.service.store.get(parts[1]) is None:
                    self._error(404, f"no such job {parts[1]!r}")
                else:
                    self._stream(job_id=parts[1], query=query)
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "results":
                results = self.service.job_results(parts[1])
                if results is None:
                    self._error(404, f"no terminal job {parts[1]!r}")
                else:
                    self._send_json(results)
            else:
                self._error(404, f"unknown path {url.path!r}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to clean up

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["jobs"]:
                body = self._read_body()
                if body is None:
                    return
                try:
                    spec = json.loads(body)
                except ValueError as exc:
                    self._error(400, f"body is not JSON: {exc}")
                    return
                try:
                    job, created = self.service.submit(spec)
                except ValueError as exc:
                    self._error(400, str(exc))
                    return
                self._send_json(
                    {"job": job.to_dict(), "created": created},
                    status=201 if created else 200,
                )
            else:
                # the body is unread: close rather than parse it as a request
                self._error(404, f"unknown path {url.path!r}", close=True)
        except (BrokenPipeError, ConnectionResetError):
            pass

    # ------------------------------------------------------------------
    # SSE
    # ------------------------------------------------------------------
    def _stream(self, job_id: Optional[str], query: dict) -> None:
        """Fan bus events to this connection until limit/idle/disconnect.

        The subscription's queue is bounded: if this thread stalls (slow
        client, dead TCP peer not yet detected), ``publish`` drops events
        for this subscriber only and counts them — the simulation worker
        never waits on us.
        """

        def _int_param(name: str, default: Optional[int]) -> Optional[int]:
            raw = query.get(name, [None])[0]
            return default if raw is None else max(1, int(raw))

        def _float_param(name: str, default: Optional[float]) -> Optional[float]:
            raw = query.get(name, [None])[0]
            return default if raw is None else max(0.1, float(raw))

        try:
            limit = _int_param("limit", None)
            idle_s = _float_param("idle", None)
        except ValueError:
            self._error(400, "limit/idle must be numeric")
            return

        service = self.service
        sub = service.bus.subscribe(job=job_id)
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-store")
            self.send_header("Connection", "close")
            self.end_headers()

            # Opening state frame: late subscribers see where things stand.
            if job_id is not None:
                job = service.store.get(job_id)
                state = {"job": None if job is None else job.to_dict()}
            else:
                state = {
                    "stats": service.bus.stats(),
                    "jobs": [j.to_dict() for j in service.store.list()],
                }
            self._write_frame("state", 0, state)

            sent = 0
            last_activity = time.monotonic()
            last_beat = last_activity
            while limit is None or sent < limit:
                event = sub.get(timeout=_POLL_S)
                now = time.monotonic()
                if event is None:
                    if idle_s is not None and now - last_activity > idle_s:
                        break
                    if now - last_beat > _HEARTBEAT_S:
                        self.wfile.write(b": ping\n\n")
                        self.wfile.flush()
                        last_beat = now
                    continue
                self._write_frame(event["type"], event["seq"], event)
                sent += 1
                last_activity = last_beat = now
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # disconnect is the normal way an SSE stream ends
        finally:
            service.bus.unsubscribe(sub)

    def _write_frame(self, event_type: str, seq: int, payload: dict) -> None:
        data = json.dumps(payload, sort_keys=True)
        frame = f"event: {event_type}\nid: {seq}\ndata: {data}\n\n"
        self.wfile.write(frame.encode("utf-8"))
        self.wfile.flush()
