"""HTTP surface + client: routes, the wire error taxonomy, and
backpressure, against an in-process ``ServiceServer`` on an ephemeral
port."""

import threading
import time

import pytest

from repro.common.errors import (BadRequestError, DrainingError,
                                 JobNotFoundError, QueueFullError,
                                 RejectingError, ServiceError)
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.service.server import ServiceServer
from repro.service.supervisor import Supervisor

SPEC = JobSpec(workload="mcf_r", scheme="unsafe", instructions=300,
               threads=1)


@pytest.fixture()
def service(tmp_path):
    """(supervisor, client) around a live server; worker started."""
    supervisor = Supervisor(str(tmp_path / "service"), jobs=1,
                            fsync=False, heartbeat_s=0.02)
    server = ServiceServer(("127.0.0.1", 0), supervisor)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    supervisor.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}",
                           retries=2, backoff_s=0.01, timeout_s=10.0)
    try:
        yield supervisor, client
    finally:
        server.shutdown()
        server.server_close()
        supervisor.drain(wait=True, timeout_s=10.0)
        supervisor.close()


def test_health_and_readiness(service):
    supervisor, client = service
    assert client.healthz() == {"ok": True}
    ready = client.readyz()
    assert ready["ready"] is True
    assert ready["level"] == "full"


def test_submit_wait_and_idempotent_resubmit(service):
    supervisor, client = service
    result = client.run(SPEC, timeout_s=60.0)
    assert result.cycles > 0
    assert result.workload_name == "mcf_r"
    # resubmission: 200 done immediately, result embedded on GET
    doc = client.submit(SPEC)
    assert doc["status"] == "done"
    full = client.job(doc["job"])
    assert full["result"]["cycles"] == result.cycles
    assert supervisor.counters["idempotent_hits"] >= 1


def test_error_taxonomy_crosses_the_wire(service):
    _supervisor, client = service
    with pytest.raises(BadRequestError) as bad:
        client.submit(JobSpec(workload="nosuch_r"))
    assert bad.value.code == "invalid-request"
    with pytest.raises(JobNotFoundError) as missing:
        client.job("0" * 64)
    assert missing.value.code == "not-found"
    with pytest.raises(JobNotFoundError):
        client.job("")  # routes to GET /jobs/ -> no such route
    # malformed JSON body -> 400 with a structured error doc
    with pytest.raises(BadRequestError):
        client._request_once("POST", "/jobs", None)


def test_unknown_spec_field_rejected(service):
    _supervisor, client = service
    import json
    import urllib.request
    request = urllib.request.Request(
        client.base_url + "/jobs",
        data=json.dumps({"workload": "mcf_r", "wat": 1}).encode(),
        method="POST", headers={"Content-Type": "application/json"})
    with pytest.raises(Exception) as excinfo:
        urllib.request.urlopen(request, timeout=10.0)
    assert excinfo.value.code == 400


def test_queue_full_is_429_with_retry_after(tmp_path):
    # worker never started, capacity 1: the second distinct job trips
    # admission control
    supervisor = Supervisor(str(tmp_path / "svc"), jobs=1,
                            queue_capacity=1, fsync=False)
    server = ServiceServer(("127.0.0.1", 0), supervisor)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}",
                           retries=0, timeout_s=10.0)
    try:
        client.submit(SPEC)
        other = JobSpec(workload="mcf_r", scheme="unsafe",
                        instructions=301, threads=1)
        with pytest.raises(QueueFullError) as excinfo:
            client.submit(other)
        assert excinfo.value.code == "queue-full"
        assert excinfo.value.retry_after_s >= 1
    finally:
        server.shutdown()
        server.server_close()
        supervisor.close()


def test_drain_flips_readiness_and_refuses_jobs(service):
    supervisor, client = service
    assert client.drain() == {"draining": True}
    supervisor.drain(wait=True, timeout_s=10.0)  # join the async drain
    with pytest.raises(DrainingError) as not_ready:
        client._request_once("GET", "/readyz", None)
    assert not_ready.value.code == "draining"
    with pytest.raises(DrainingError):
        client._request_once("POST", "/jobs", SPEC.to_doc())
    assert client.healthz() == {"ok": True}  # alive, just not ready


def test_stats_endpoint(service):
    supervisor, client = service
    stats = client.stats()
    assert stats["level"] == "full"
    assert stats["queue_capacity"] == 64
    assert "counters" in stats


def test_reject_probe_lifts_ladder_back_to_full(service):
    """At the bottom rung nothing runs, so no success can climb the
    ladder: only the watchdog's reject-level probe lifts the service
    to ``serial``.  Jobs that then succeed climb it back to ``full``
    with no restart."""
    supervisor, client = service
    with supervisor._lock:
        supervisor.probe_after_s = 1.0
        supervisor.recover_after = 1
        for _ in range(3 * supervisor.degrade_after):
            supervisor._note_failure("timeout")
    assert supervisor.level == "reject"
    # no retries: a retry would outwait the probe timer and see the
    # recovered service instead of the rejection
    blunt = ServiceClient(client.base_url, retries=0, timeout_s=10.0)
    with pytest.raises(RejectingError):
        blunt.submit(JobSpec(workload="mcf_r", instructions=200,
                             threads=1))

    deadline = time.monotonic() + 10.0
    while supervisor.level == "reject" and time.monotonic() < deadline:
        time.sleep(0.02)
    assert supervisor.level == "serial", "the recovery probe never fired"

    for instructions in (210, 220):
        spec = JobSpec(workload="mcf_r", instructions=instructions,
                       threads=1)
        assert client.run(spec, timeout_s=60.0).cycles > 0
    assert supervisor.level == "full"
    assert supervisor.counters["recoveries"] == 3


def test_client_backoff_honors_retry_after():
    client = ServiceClient("http://127.0.0.1:1", retries=0,
                           backoff_s=0.1, backoff_cap_s=5.0)
    assert client._delay(0, None) <= 0.1
    assert client._delay(0, 2.5) >= 2.5  # server hint is a floor
    assert client._delay(20, None) <= 5.0  # cap beats exponent
    # deterministic jitter: same seed, same schedule
    a = ServiceClient("http://x", jitter_seed=7)
    b = ServiceClient("http://x", jitter_seed=7)
    assert [a._delay(i, None) for i in range(5)] \
        == [b._delay(i, None) for i in range(5)]


def test_wire_error_doc_roundtrip():
    err = QueueFullError("full up", retry_after_s=3.25)
    clone = ServiceError.from_doc(err.to_doc())
    assert isinstance(clone, QueueFullError)
    assert clone.retry_after_s == 3.25
    assert str(clone) == "full up"
    fallback = ServiceError.from_doc({"code": "never-heard-of-it",
                                      "message": "?"})
    assert type(fallback) is ServiceError
