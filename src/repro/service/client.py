"""HTTP client for the job service, with taxonomy-aware retries.

``ServiceClient`` speaks the error taxonomy documented in
``repro.common.errors``: transient conditions (connection refused while
the service restarts, 429 backpressure, 503 drain/reject) are retried
with capped exponential backoff plus deterministic jitter, always
honoring the server's ``retry_after_s`` hint when one is present;
permanent conditions (400 bad spec, 404, job failures) surface
immediately as the matching ``ServiceError`` subclass.

Jitter is drawn from a client-owned seeded ``random.Random`` — never
the global RNG — so client behaviour in tests is reproducible and the
simulator's determinism lint stays clean.  The ``jitter_seed``
constructor argument (default ``0``) seeds that RNG, which feeds the
retry backoff in ``_request``, so two clients built with the same seed
replay the exact same timing decisions — pass distinct seeds to
desynchronize a fleet, or a fixed one to make a test's retry schedule
deterministic.

``wait`` long-polls the server's watch endpoint (``GET /jobs?watch=``),
so the server does the waiting and the client never sleeps between
status requests.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from repro.common.errors import (DrainingError, JobFailedError,
                                 QueueFullError, QuotaExceededError,
                                 RejectingError, ServiceError)
from repro.service.jobs import JobSpec
from repro.sim.results import SimResult

#: Errors worth retrying: the condition is expected to clear.
_TRANSIENT = (QueueFullError, QuotaExceededError, RejectingError,
              DrainingError)

#: Per-request watch window ``wait`` asks the server for.  Matches the
#: server's clamp (``server.MAX_WATCH_S``) order of magnitude while
#: keeping each HTTP request short enough to notice a dying server.
WATCH_SLICE_S = 10.0


class ServiceClient:
    """Thin, retrying client for one service endpoint.

    ``jitter_seed`` makes every timing decision this client takes (the
    retry jitter) a deterministic function of the seed — see the module
    docs.
    """

    def __init__(self, base_url: str = "http://127.0.0.1:8321",
                 retries: int = 8, backoff_s: float = 0.1,
                 backoff_cap_s: float = 5.0,
                 jitter_seed: int = 0,
                 timeout_s: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.timeout_s = timeout_s
        self._rng = random.Random(jitter_seed)

    # -- transport -----------------------------------------------------

    def _request_once(self, method: str, path: str,
                      body: Optional[Dict[str, Any]],
                      timeout_s: Optional[float] = None
                      ) -> Dict[str, Any]:
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(
                    request,
                    timeout=self.timeout_s if timeout_s is None
                    else timeout_s) as response:
                return json.loads(response.read().decode())
        except urllib.error.HTTPError as err:
            payload = err.read().decode(errors="replace")
            try:
                doc = json.loads(payload).get("error", {})
            except ValueError:
                doc = {"code": "internal",
                       "message": f"HTTP {err.code}: {payload[:200]}"}
            raise ServiceError.from_doc(doc) from None
        except urllib.error.URLError as err:
            raise ConnectionError(
                f"{method} {path}: {err.reason}") from err

    def _delay(self, attempt: int,
               retry_after_s: Optional[float]) -> float:
        backoff = min(self.backoff_cap_s,
                      self.backoff_s * (2 ** attempt))
        # full jitter (deterministic RNG): desynchronizes a fleet of
        # clients hammering a freshly restarted service
        delay = backoff * (0.5 + 0.5 * self._rng.random())
        if retry_after_s is not None:
            delay = max(delay, float(retry_after_s))
        return delay

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 timeout_s: Optional[float] = None) -> Dict[str, Any]:
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body,
                                          timeout_s=timeout_s)
            except _TRANSIENT as err:
                if attempt >= self.retries:
                    raise
                delay = self._delay(attempt, err.retry_after_s)
            except ConnectionError:
                if attempt >= self.retries:
                    raise
                delay = self._delay(attempt, None)
            attempt += 1
            time.sleep(delay)

    # -- API -----------------------------------------------------------

    def submit(self, spec: JobSpec) -> Dict[str, Any]:
        return self._request("POST", "/jobs", spec.to_doc())

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def readyz(self) -> Dict[str, Any]:
        return self._request("GET", "/readyz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def drain(self) -> Dict[str, Any]:
        return self._request("POST", "/drain", {})

    def watch(self, job_ids: List[str],
              timeout_s: float = WATCH_SLICE_S) -> Dict[str, Any]:
        """One long-poll of ``GET /jobs?watch=``: blocks server-side up
        to ``timeout_s`` and returns ``{job_id: terminal status doc}``
        for every watched job that is already ``done``/``failed`` —
        empty when the window elapsed with nothing terminal.  Raises
        ``JobNotFoundError`` if any watched id is unknown to the server.
        """
        watch = ",".join(job_ids)
        doc = self._request(
            "GET", f"/jobs?watch={watch}&timeout_s={timeout_s:g}",
            # the HTTP request must outlive the server-side park
            timeout_s=timeout_s + self.timeout_s)
        return doc.get("jobs", {})

    def _finish(self, job_id: str,
                doc: Dict[str, Any]) -> Dict[str, Any]:
        if doc["status"] == "failed":
            failure = doc.get("failure", {})
            raise JobFailedError(
                f"job {job_id[:16]} failed "
                f"({failure.get('kind', 'error')}): "
                f"{failure.get('message', '')}")
        return doc

    def wait(self, job_id: str,
             timeout_s: float = 120.0) -> Dict[str, Any]:
        """Block until the job reaches ``done`` or ``failed``.

        Long-polls the watch endpoint in ``WATCH_SLICE_S`` windows; the
        server parks each request until the job is terminal or the
        window elapses.  Raises ``JobFailedError`` on failure and
        ``TimeoutError`` if the deadline passes first.  Waiting survives
        a service restart mid-job: connection errors inside ``_request``
        retry, and the replayed job keeps its id.
        """
        deadline = time.monotonic() + timeout_s  # repro: allow-wall-clock
        while True:
            remaining = deadline \
                - time.monotonic()  # repro: allow-wall-clock
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id[:16]} still pending after "
                    f"{timeout_s}s")
            done = self.watch([job_id],
                              timeout_s=min(WATCH_SLICE_S, remaining))
            if job_id in done:
                return self._finish(job_id, done[job_id])

    def run(self, spec: JobSpec,
            timeout_s: float = 120.0) -> SimResult:
        """Submit + wait + decode: the service-side equivalent of
        ``run_simulation(config, workload)``, idempotent and
        crash-tolerant."""
        doc = self.submit(spec)
        job_id = doc["job"]
        if doc["status"] != "done":
            doc = self.wait(job_id, timeout_s=timeout_s)
        if "result" not in doc:
            doc = self.job(job_id)
        if "result" not in doc:
            raise JobFailedError(f"job {job_id[:16]} is done but its "
                                 f"result is missing from the store")
        return SimResult.from_dict(doc["result"])
