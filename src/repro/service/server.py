"""Localhost HTTP front end for the job service (``repro serve``).

A deliberately boring, stdlib-only surface over the supervisor:

* ``POST /jobs``    — submit a job spec; 202 (queued/running), 200
  (already done — idempotent resubmission), 400/429/503 per the error
  taxonomy in ``repro.common.errors``
* ``GET /jobs/<id>``— job status; done jobs embed the result document
* ``GET /jobs?watch=<id>[,<id>...]&timeout_s=N`` — long-poll: blocks
  until at least one watched job is terminal (those docs, results
  embedded) or the timeout elapses (``{"jobs": {}, "pending": [...]}``)
  — the streaming feed that lets sweep clients stop fixed-interval
  polling
* ``GET /healthz``  — liveness (200 while the process serves requests)
* ``GET /readyz``   — readiness (503 while draining or reject-only)
* ``GET /stats``    — supervisor counters, queue depth, level
* ``POST /drain``   — begin a graceful drain (also wired to
  SIGTERM/SIGINT by ``repro serve``)

Every error body is ``{"error": {"code", "message"[, "retry_after_s"]}}``
with the retry hint mirrored in a ``Retry-After`` header, so generic
HTTP clients and ``repro.service.client`` see the same taxonomy.
"""

from __future__ import annotations

import json
import logging
import math
import signal
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import (BadRequestError, JobNotFoundError,
                                 ServiceError)
from repro.service.jobs import JobSpec
from repro.service.supervisor import Supervisor

_log = logging.getLogger(__name__)

#: Submission bodies above this are refused outright (a job spec is a
#: few hundred bytes; anything larger is a mistake or an attack).
MAX_BODY_BYTES = 1 << 20

#: Per-request ceiling on the long-poll watch window: a client asking
#: for more gets clamped, so a handler thread can never be parked
#: indefinitely by one request (clients re-issue to keep watching).
MAX_WATCH_S = 60.0


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the supervisor attached to the server."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def supervisor(self) -> Supervisor:
        return self.server.supervisor  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        _log.debug("%s %s", self.address_string(), fmt % args)

    # -- plumbing ------------------------------------------------------

    def _send_json(self, status: int, doc: Dict[str, Any],
                   retry_after_s: Optional[float] = None) -> None:
        body = json.dumps(doc, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            self.send_header("Retry-After",
                             str(max(1, math.ceil(retry_after_s))))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_doc(self, err: ServiceError) -> None:
        self._send_json(err.http_status, {"error": err.to_doc()},
                        retry_after_s=err.retry_after_s)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise BadRequestError(f"request body of {length} bytes "
                                  f"exceeds {MAX_BODY_BYTES}")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise BadRequestError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except ValueError as err:
            raise BadRequestError(f"request body is not valid JSON: "
                                  f"{err}")

    def _dispatch(self, handler) -> None:
        try:
            status, doc = handler()
            self._send_json(status, doc)
        except ServiceError as err:
            self._send_error_doc(err)
        except Exception as err:  # noqa: BLE001 - HTTP boundary
            _log.exception("unhandled error serving %s %s",
                           self.command, self.path)
            self._send_error_doc(ServiceError(
                f"{type(err).__name__}: {err}"))

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_post)

    def _split_path(self) -> Tuple[str, Dict[str, str]]:
        """``self.path`` as ``(path, query)`` with the last value
        winning for repeated query keys."""
        parts = urllib.parse.urlsplit(self.path)
        query = {key: values[-1] for key, values
                 in urllib.parse.parse_qs(parts.query).items()}
        return parts.path, query

    def _route_get(self) -> Tuple[int, Dict[str, Any]]:
        supervisor = self.supervisor
        path, query = self._split_path()
        if path == "/healthz":
            return 200, {"ok": True}
        if path == "/readyz":
            if supervisor.draining:
                raise _not_ready("draining")
            if supervisor.level == "reject":
                raise _not_ready("rejecting")
            return 200, {"ready": True, "level": supervisor.level}
        if path == "/stats":
            return 200, supervisor.stats()
        if path == "/jobs":
            return self._route_watch(query)
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            doc = supervisor.status(job_id)
            if doc["status"] == "done":
                result = supervisor.result_doc(job_id)
                if result is not None:
                    doc["result"] = result
            return 200, doc
        raise JobNotFoundError(f"no route for GET {path}")

    def _route_watch(self, query: Dict[str, str]
                     ) -> Tuple[int, Dict[str, Any]]:
        """Long-poll ``GET /jobs?watch=``: park the handler thread on
        the supervisor's change condition until a watched job lands."""
        watch = query.get("watch", "")
        job_ids = [job_id for job_id in watch.split(",") if job_id]
        if not job_ids:
            raise BadRequestError("GET /jobs needs ?watch=<job id>"
                                  "[,<job id>...]")
        try:
            timeout_s = float(query.get("timeout_s", "30"))
        except ValueError:
            raise BadRequestError("timeout_s must be a number")
        timeout_s = min(max(timeout_s, 0.0), MAX_WATCH_S)
        done = self.supervisor.wait_for(job_ids, timeout_s=timeout_s)
        for job_id, doc in done.items():
            if doc["status"] == "done":
                result = self.supervisor.result_doc(job_id)
                if result is not None:
                    doc["result"] = result
        return 200, {"jobs": done,
                     "pending": [job_id for job_id in job_ids
                                 if job_id not in done]}

    def _route_post(self) -> Tuple[int, Dict[str, Any]]:
        supervisor = self.supervisor
        path, _query = self._split_path()
        if path == "/jobs":
            spec = JobSpec.from_doc(self._read_body())
            doc = supervisor.submit(spec)
            return (200 if doc["status"] == "done" else 202), doc
        if path == "/drain":
            threading.Thread(target=supervisor.drain,
                             name="repro-service-drain",
                             daemon=True).start()
            return 202, {"draining": True}
        raise JobNotFoundError(f"no route for POST {path}")


def _not_ready(why: str) -> ServiceError:
    from repro.common.errors import DrainingError, RejectingError
    cls = DrainingError if why == "draining" else RejectingError
    return cls(f"not ready: {why}", retry_after_s=1.0)


class ServiceServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` carrying its supervisor."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 supervisor: Supervisor) -> None:
        super().__init__(address, ServiceHandler)
        self.supervisor = supervisor


def serve(supervisor: Supervisor, host: str = "127.0.0.1",
          port: int = 8321,
          install_signal_handlers: bool = True) -> None:
    """Run the service until it drains (SIGTERM/SIGINT/``POST /drain``).

    Blocks the calling thread.  The supervisor is started if its worker
    thread is not already running.
    """
    server = ServiceServer((host, port), supervisor)
    supervisor.start()
    done = threading.Event()

    def _shutdown(reason: str) -> None:
        _log.info("drain requested (%s)", reason)
        supervisor.drain(wait=True)
        done.set()
        # shutdown() must come from another thread than serve_forever's
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(
                signum,
                lambda _s, _f, s=signum: threading.Thread(
                    target=_shutdown, args=(signal.Signals(s).name,),
                    daemon=True).start())
    _log.info("repro service listening on http://%s:%d (root %s)",
              host, port, supervisor.root)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        if not done.is_set():
            supervisor.drain(wait=True)
        supervisor.close()
        server.server_close()
