"""The streaming results feed (long-poll ``GET /jobs?watch=``), the
client's watch-based ``wait``, and per-tenant quotas crossing the HTTP
boundary."""

import threading

import pytest

from repro.common.errors import (BadRequestError, JobNotFoundError,
                                 QuotaExceededError)
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.service.server import ServiceServer
from repro.service.supervisor import Supervisor

SPEC = JobSpec(workload="mcf_r", scheme="unsafe", instructions=300,
               threads=1)


def start_server(supervisor):
    server = ServiceServer(("127.0.0.1", 0), supervisor)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


@pytest.fixture()
def service(tmp_path):
    """(supervisor, client) around a live server; worker started."""
    supervisor = Supervisor(str(tmp_path / "service"), jobs=1,
                            fsync=False, heartbeat_s=0.02)
    server, url = start_server(supervisor)
    supervisor.start()
    client = ServiceClient(url, retries=2, backoff_s=0.01,
                           timeout_s=10.0)
    try:
        yield supervisor, client
    finally:
        server.shutdown()
        server.server_close()
        supervisor.drain(wait=True, timeout_s=10.0)
        supervisor.close()


@pytest.fixture()
def idle_service(tmp_path):
    """A service whose worker is *not* running: jobs stay queued, which
    pins down pending/timeout behavior deterministically."""
    supervisor = Supervisor(str(tmp_path / "idle"), jobs=1, fsync=False,
                            tenant_capacity=1)
    server, url = start_server(supervisor)
    client = ServiceClient(url, retries=0, timeout_s=10.0)
    try:
        yield supervisor, client
    finally:
        server.shutdown()
        server.server_close()
        supervisor.close()


class TestWatchEndpoint:
    def test_watch_returns_terminal_doc_with_result(self, service):
        _supervisor, client = service
        job_id = client.submit(SPEC)["job"]
        done = client.watch([job_id], timeout_s=30.0)
        assert set(done) == {job_id}
        assert done[job_id]["status"] == "done"
        assert done[job_id]["result"]["cycles"] > 0

    def test_wait_prefers_watch_and_never_polls(self, service,
                                                monkeypatch):
        _supervisor, client = service
        job_id = client.submit(SPEC)["job"]

        def no_poll(job_id):
            raise AssertionError("wait polled GET /jobs/<id>")

        monkeypatch.setattr(client, "job", no_poll)
        doc = client.wait(job_id, timeout_s=60.0)
        assert doc["status"] == "done"
        assert doc["result"]["cycles"] > 0

    def test_wait_times_out_on_a_pending_job(self, idle_service):
        _supervisor, client = idle_service
        job_id = client.submit(SPEC)["job"]
        with pytest.raises(TimeoutError):
            client.wait(job_id, timeout_s=0.2)

    def test_watch_timeout_reports_pending(self, idle_service):
        _supervisor, client = idle_service
        job_id = client.submit(SPEC)["job"]
        doc = client._request(
            "GET", f"/jobs?watch={job_id}&timeout_s=0.1")
        assert doc["jobs"] == {}
        assert doc["pending"] == [job_id]

    def test_watch_unknown_job_is_404(self, service):
        _supervisor, client = service
        with pytest.raises(JobNotFoundError):
            client._request_once(
                "GET", f"/jobs?watch={'0' * 64}&timeout_s=0.1", None)

    def test_watch_without_ids_is_400(self, service):
        _supervisor, client = service
        with pytest.raises(BadRequestError):
            client._request_once("GET", "/jobs?watch=", None)
        with pytest.raises(BadRequestError):
            client._request_once(
                "GET", "/jobs?watch=abc&timeout_s=soon", None)


class TestTenantQuotas:
    def test_quota_crosses_the_wire(self, idle_service):
        """tenant_capacity=1: a tenant's second distinct pending job is
        refused with the documented 429 ``quota-exceeded``; another
        tenant still gets in; resubmission of the queued job dedups
        instead of double-counting against the quota."""
        _supervisor, client = idle_service
        first = JobSpec(workload="mcf_r", instructions=301, threads=1,
                        tenant="alice")
        second = JobSpec(workload="mcf_r", instructions=302, threads=1,
                         tenant="alice")
        third = JobSpec(workload="mcf_r", instructions=303, threads=1,
                        tenant="bob")
        assert client.submit(first)["status"] == "queued"
        with pytest.raises(QuotaExceededError) as refused:
            client.submit(second)
        assert refused.value.code == "quota-exceeded"
        assert refused.value.retry_after_s is not None
        assert client.submit(third)["status"] == "queued"
        # idempotent resubmission of a queued job is not a quota event
        assert client.submit(first)["status"] == "queued"

    def test_queued_status_carries_backpressure_hint(self, idle_service):
        _supervisor, client = idle_service
        doc = client.submit(SPEC)
        assert doc["status"] == "queued"
        assert doc["retry_after_s"] > 0
