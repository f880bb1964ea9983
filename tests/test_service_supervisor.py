"""Supervisor lifecycle: idempotent submission, journal replay, the
degradation ladder, and drain semantics — all in-process (the
subprocess kill/restart campaign lives in ``test_service_crash.py``).
"""

import time

import pytest

from repro.common.errors import (BadRequestError, DrainingError,
                                 JobNotFoundError, RejectingError)
from repro.service.jobs import JobSpec
from repro.service.journal import Journal
from repro.service.supervisor import DEGRADATION_LADDER, Supervisor

SPEC = JobSpec(workload="mcf_r", scheme="unsafe", instructions=300,
               threads=1)


def make_supervisor(tmp_path, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("fsync", False)
    kwargs.setdefault("heartbeat_s", 0.02)
    return Supervisor(str(tmp_path / "service"), **kwargs)


def wait_done(supervisor, job_id, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        doc = supervisor.status(job_id)
        if doc["status"] in ("done", "failed"):
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id[:16]} still "
                         f"{doc['status']} after {timeout_s}s")


def test_submit_runs_to_done(tmp_path):
    supervisor = make_supervisor(tmp_path)
    try:
        supervisor.start()
        doc = supervisor.submit(SPEC)
        assert doc["status"] in ("queued", "running")
        done = wait_done(supervisor, doc["job"])
        assert done["status"] == "done"
        assert done["cycles"] > 0
        result = supervisor.result_doc(doc["job"])
        assert result is not None
        assert result["cycles"] == done["cycles"]
        assert supervisor.counters["completed"] == 1
    finally:
        supervisor.drain(wait=True, timeout_s=10.0)
        supervisor.close()


def test_resubmission_is_idempotent_with_zero_resimulation(tmp_path):
    supervisor = make_supervisor(tmp_path)
    try:
        supervisor.start()
        job_id = supervisor.submit(SPEC)["job"]
        wait_done(supervisor, job_id)
        simulated = supervisor.counters["executor_simulated"]
        again = supervisor.submit(SPEC)
        assert again["job"] == job_id
        assert again["status"] == "done"
        assert supervisor.counters["idempotent_hits"] == 1
        assert supervisor.counters["executor_simulated"] == simulated
    finally:
        supervisor.drain(wait=True, timeout_s=10.0)
        supervisor.close()


def test_submit_while_queued_deduplicates(tmp_path):
    supervisor = make_supervisor(tmp_path)  # never started: stays queued
    try:
        first = supervisor.submit(SPEC)
        assert first["status"] == "queued"
        second = supervisor.submit(SPEC)
        assert second["job"] == first["job"]
        assert supervisor.counters["deduplicated"] == 1
        assert len(supervisor.queue) == 1
    finally:
        supervisor.close()


def test_bad_spec_rejected_before_journaling(tmp_path):
    supervisor = make_supervisor(tmp_path)
    try:
        with pytest.raises(BadRequestError):
            supervisor.submit(JobSpec(workload="nosuch_r"))
        with pytest.raises(BadRequestError):
            supervisor.submit(JobSpec(workload="mcf_r",
                                      chaos={"bogus_knob": 1}))
        assert supervisor.counters["submitted"] == 0
        with pytest.raises(JobNotFoundError):
            supervisor.status("not-a-job")
    finally:
        supervisor.close()


def test_draining_refuses_submission(tmp_path):
    supervisor = make_supervisor(tmp_path)
    try:
        supervisor.start()
        supervisor.drain(wait=True, timeout_s=10.0)
        with pytest.raises(DrainingError) as excinfo:
            supervisor.submit(SPEC)
        assert excinfo.value.retry_after_s is not None
    finally:
        supervisor.close()


def test_journal_replay_resumes_queued_jobs(tmp_path):
    # incarnation 1: accept the job but die before running it
    first = make_supervisor(tmp_path)
    job_id = first.submit(SPEC)["job"]
    first.close()  # no drain: simulates an abrupt death

    # incarnation 2: replay must re-queue it, then run it to done
    second = make_supervisor(tmp_path)
    try:
        assert second.counters["replayed_jobs"] == 1
        assert second.status(job_id)["status"] == "queued"
        second.start()
        assert wait_done(second, job_id)["status"] == "done"
    finally:
        second.drain(wait=True, timeout_s=10.0)
        second.close()

    # incarnation 3: the finished job survives as done; resubmission is
    # an idempotent hit with zero simulation
    third = make_supervisor(tmp_path)
    try:
        assert third.status(job_id)["status"] == "done"
        doc = third.submit(SPEC)
        assert doc["status"] == "done"
        assert third.counters["executor_simulated"] == 0
        assert third.result_doc(job_id)["cycles"] == doc["cycles"]
    finally:
        third.close()


def test_recover_compacts_journal_to_snapshots(tmp_path):
    first = make_supervisor(tmp_path)
    first.submit(SPEC)
    first.close()
    second = make_supervisor(tmp_path)
    second.close()
    records = Journal(str(tmp_path / "service" / "journal.jsonl"),
                      fsync=False).replay()
    assert records, "recovery must leave a compacted journal"
    assert all(r["type"] == "snapshot" for r in records)


def test_degradation_ladder_walks_down_and_back(tmp_path):
    supervisor = make_supervisor(tmp_path, jobs=4, degrade_after=2,
                                 recover_after=2)
    try:
        assert supervisor.level == "full"
        assert supervisor._level_jobs() == 4
        for expected in ("reduced", "serial", "reject"):
            supervisor._note_failure("timeout")
            supervisor._note_failure("timeout")
            assert supervisor.level == expected
        assert supervisor.level == DEGRADATION_LADDER[-1]
        assert supervisor._level_jobs() == 0
        assert supervisor.counters["degradations"] == 3
        with pytest.raises(RejectingError):
            supervisor.submit(SPEC)
        # consecutive successes climb back one rung at a time
        supervisor._note_success()
        supervisor._note_success()
        assert supervisor.level == "serial"
        assert supervisor._level_jobs() == 1
        supervisor._note_success()
        supervisor._note_success()
        assert supervisor.level == "reduced"
        assert supervisor._level_jobs() == 2
        assert supervisor.counters["recoveries"] == 2
        # a lone failure resets the success streak but does not degrade
        supervisor._note_failure("error")
        supervisor._note_success()
        assert supervisor.level == "reduced"
    finally:
        supervisor.close()


def test_level_shift_and_stop_leave_no_pool_workers(tmp_path):
    """A level shift retires the executor and its pool (without waiting
    on a batch still running there); stopping the supervisor stops the
    current one."""
    def alive(processes, within_s=10.0):
        deadline = time.monotonic() + within_s
        while any(process.is_alive() for process in processes) \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        return [process for process in processes if process.is_alive()]

    supervisor = make_supervisor(tmp_path, jobs=4, degrade_after=1)
    try:
        supervisor.start()
        assert wait_done(supervisor,
                         supervisor.submit(SPEC)["job"])["status"] == "done"
        old = list(supervisor._executor._pool._processes.values())
        assert len(old) == 4
        supervisor._note_failure("timeout")
        assert supervisor.level == "reduced"
        assert supervisor._executor is None
        assert alive(old) == []
        spec = JobSpec(workload="mcf_r", scheme="fence-ep",
                       instructions=300, threads=1)
        assert wait_done(supervisor,
                         supervisor.submit(spec)["job"])["status"] == "done"
        new = list(supervisor._executor._pool._processes.values())
        assert len(new) == 2
    finally:
        supervisor.drain(wait=True, timeout_s=10.0)
        supervisor.close()
    assert supervisor._executor is None
    assert [process for process in new if process.is_alive()] == []


def test_warm_cache_satisfies_submission_without_worker(tmp_path):
    from repro.sim.runner import ExperimentCache
    # a prior batch run shared this cache directory
    cache = ExperimentCache(
        cache_dir=str(tmp_path / "service" / "cache"))
    config, workload = SPEC.resolve()
    expected = cache.run(config, workload)

    supervisor = make_supervisor(tmp_path)  # worker never started
    try:
        doc = supervisor.submit(SPEC)
        assert doc["status"] == "done"
        assert doc["cycles"] == expected.cycles
        assert supervisor.counters["idempotent_hits"] == 1
    finally:
        supervisor.close()


def test_stats_shape(tmp_path):
    supervisor = make_supervisor(tmp_path)
    try:
        supervisor.submit(SPEC)
        stats = supervisor.stats()
        assert stats["level"] == "full"
        assert stats["draining"] is False
        assert stats["jobs_by_status"] == {"queued": 1}
        assert stats["queue_depth"] == 1
        assert stats["counters"]["submitted"] == 1
    finally:
        supervisor.close()
