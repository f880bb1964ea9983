"""Admission queue: priority order, dedup, backpressure, and the
fair-share / per-tenant quota layer."""

import threading

import pytest

from repro.common.errors import QueueFullError, QuotaExceededError
from repro.service.queue import DEFAULT_TENANT, AdmissionQueue


def test_priority_order_with_fifo_within_class():
    queue = AdmissionQueue(capacity=8)
    queue.push("bulk-1", 10)
    queue.push("bulk-2", 10)
    queue.push("interactive", 0)
    queue.push("default", 5)
    order = [queue.pop(timeout_s=0) for _ in range(4)]
    assert order == ["interactive", "default", "bulk-1", "bulk-2"]


def test_push_deduplicates_queued_ids():
    queue = AdmissionQueue(capacity=8)
    assert queue.push("job", 5) is True
    assert queue.push("job", 0) is False  # already queued, even if
    assert len(queue) == 1                # resubmitted more urgently
    assert "job" in queue
    assert queue.pop(timeout_s=0) == "job"
    assert "job" not in queue
    # once popped, the id is admissible again (retry after failure)
    assert queue.push("job", 5) is True


def test_capacity_rejects_with_retry_after():
    queue = AdmissionQueue(capacity=2, job_seconds=lambda: 1.5)
    queue.push("a", 5)
    queue.push("b", 5)
    with pytest.raises(QueueFullError) as excinfo:
        queue.push("c", 5)
    err = excinfo.value
    assert err.http_status == 429
    assert err.code == "queue-full"
    # the hint scales with the backlog in front of the next slot
    assert err.retry_after_s == pytest.approx(2 * 1.5)
    assert "queue-full" in str(err.to_doc())
    # a slot freeing up makes the same push admissible
    queue.pop(timeout_s=0)
    assert queue.push("c", 5) is True


def test_pop_timeout_returns_none():
    queue = AdmissionQueue(capacity=2)
    assert queue.pop(timeout_s=0) is None
    assert queue.pop(timeout_s=0.01) is None


def test_pop_batch_drains_in_priority_order():
    queue = AdmissionQueue(capacity=8)
    for job_id, priority in (("c", 10), ("a", 0), ("b", 5)):
        queue.push(job_id, priority)
    assert queue.pop_batch(2) == ["a", "b"]
    assert queue.pop_batch(2) == ["c"]
    assert queue.pop_batch(2) == []


def test_snapshot_lists_drain_order():
    queue = AdmissionQueue(capacity=8)
    queue.push("bulk", 10)
    queue.push("urgent", 0)
    assert queue.snapshot() == [(0, "urgent"), (10, "bulk")]


def test_fair_share_alternates_between_tenants():
    """Equal-priority backlogs from two tenants drain round-robin, not
    first-come-takes-all — one tenant's bulk sweep cannot starve
    another's."""
    queue = AdmissionQueue(capacity=16)
    for index in range(3):
        queue.push(f"a{index}", 10, tenant="alice")
    for index in range(3):
        queue.push(f"b{index}", 10, tenant="bob")
    order = [queue.pop(timeout_s=0) for _ in range(6)]
    assert order == ["a0", "b0", "a1", "b1", "a2", "b2"]


def test_priority_still_beats_fair_share():
    queue = AdmissionQueue(capacity=16)
    queue.push("bulk-a", 10, tenant="alice")
    queue.push("bulk-b", 10, tenant="bob")
    queue.push("urgent-b", 0, tenant="bob")
    assert queue.pop(timeout_s=0) == "urgent-b"


def test_single_tenant_keeps_exact_priority_fifo():
    # the single-tenant contract: one tenant degenerates to (priority, seq)
    queue = AdmissionQueue(capacity=8)
    queue.push("bulk-1", 10)
    queue.push("interactive", 0)
    queue.push("bulk-2", 10)
    assert [queue.pop(timeout_s=0) for _ in range(3)] == \
        ["interactive", "bulk-1", "bulk-2"]


def test_tenant_quota_rejects_with_429():
    queue = AdmissionQueue(capacity=16, tenant_capacity=2,
                           job_seconds=lambda: 1.0)
    queue.push("a1", 5, tenant="alice")
    queue.push("a2", 5, tenant="alice")
    with pytest.raises(QuotaExceededError) as excinfo:
        queue.push("a3", 5, tenant="alice")
    err = excinfo.value
    assert err.http_status == 429
    assert err.code == "quota-exceeded"
    assert err.retry_after_s is not None
    # the quota is per tenant: another tenant is unaffected
    assert queue.push("b1", 5, tenant="bob") is True
    # and draining one of alice's jobs reopens her quota
    queue.pop(timeout_s=0)
    assert queue.push("a3", 5, tenant="alice") is True


def test_dedup_spans_tenants():
    # job identity is content-addressed; tenant is accounting only, so
    # the same id resubmitted under another tenant is still a dup
    queue = AdmissionQueue(capacity=8)
    assert queue.push("job", 5, tenant="alice") is True
    assert queue.push("job", 5, tenant="bob") is False
    assert len(queue) == 1


def test_depth_and_tenants_accounting():
    queue = AdmissionQueue(capacity=8)
    queue.push("a1", 5, tenant="alice")
    queue.push("b1", 5, tenant="bob")
    queue.push("plain", 5)
    assert queue.depth("alice") == 1
    assert queue.depth(DEFAULT_TENANT) == 1
    assert queue.tenants() == {"alice": 1, "bob": 1, DEFAULT_TENANT: 1}
    queue.pop(timeout_s=0)
    assert sum(queue.tenants().values()) == 2


def test_snapshot_merges_tenant_heaps_in_drain_order():
    queue = AdmissionQueue(capacity=8)
    queue.push("bulk", 10, tenant="alice")
    queue.push("urgent", 0, tenant="bob")
    assert queue.snapshot() == [(0, "urgent"), (10, "bulk")]


def test_wake_all_releases_blocked_pop():
    queue = AdmissionQueue(capacity=2)
    results = []

    def blocked_pop():
        results.append(queue.pop(timeout_s=5.0))

    thread = threading.Thread(target=blocked_pop)
    thread.start()
    queue.wake_all()
    thread.join(timeout=2.0)
    assert not thread.is_alive()
    assert results == [None]
