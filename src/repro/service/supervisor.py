"""The supervisor: journaled job lifecycle over the self-healing executor.

PR 3 made individual *tasks* self-healing (SIGALRM budgets, pool
rebuilds, rolling checkpoints); the supervisor closes the remaining gap
— the death of the coordinator itself.  Every job transition is
journaled write-ahead (``repro.service.journal``), so a ``kill -9`` of
the whole service loses nothing an acknowledged submitter cares about:
a fresh supervisor replays the journal, re-queues pending and
interrupted jobs (``Task(resume=True)`` continues from their rolling
checkpoints), and serves completed jobs straight from the
content-addressed ``ResultStore`` with zero re-simulation.

Above the executor's per-task healing sit four service-level defenses:

* **admission control** — a bounded priority queue
  (``repro.service.queue``) rejects overload with a retry-after hint
  instead of growing without bound;
* **heartbeat watchdog** — a thread that notices jobs stuck past
  ``stuck_after_s`` of wall clock (beyond the per-task SIGALRM, which
  cannot fire on the supervisor's own worker thread) and feeds the
  degradation ladder;
* **staged degradation** — consecutive failures walk the service down a
  ladder of ``full pool → reduced pool → serial → reject-only``;
  consecutive successes (or a reject-level probe timer) walk it back
  up.  Degraded levels trade throughput for stability, never
  correctness: results are bit-identical at any level;
* **graceful drain** — SIGTERM/SIGINT (or ``POST /drain``) stops
  admission, asks in-flight jobs to pause at their next checkpoint
  boundary (the executor's cooperative ``drain_flag``), journals them
  as requeued, and exits; the next incarnation resumes them from those
  checkpoints bit-identically.
"""

from __future__ import annotations

import collections
import logging
import os
import threading
import time
from typing import Any, Dict, List, Optional

from repro.common.errors import (DrainingError, JobNotFoundError,
                                 RejectingError)
from repro.service.jobs import JobSpec
from repro.service.journal import Journal, reduce_records
from repro.service.queue import (DEFAULT_JOB_SECONDS, DEFAULT_TENANT,
                                 AdmissionQueue)
from repro.sim.executor import Executor, Task
from repro.sim.runner import ExperimentCache

_log = logging.getLogger(__name__)

#: The degradation ladder, most to least capable.  Worker counts for the
#: first three rungs are derived from the configured ``jobs``; the last
#: rung runs nothing and rejects all submissions while probing.
DEGRADATION_LADDER = ("full", "reduced", "serial", "reject")

#: Journal appends between periodic compactions.
COMPACT_EVERY = 256


class Supervisor:
    """Crash-tolerant job lifecycle around one ``Executor``."""

    def __init__(self, root: str, jobs: int = 2,
                 queue_capacity: int = 64,
                 timeout_s: Optional[float] = None,
                 retries: int = 1,
                 worker_memory_mb: Optional[int] = None,
                 checkpoint_interval: Optional[int] = None,
                 heartbeat_s: float = 0.25,
                 stuck_after_s: float = 300.0,
                 degrade_after: int = 3,
                 recover_after: int = 3,
                 probe_after_s: float = 10.0,
                 fsync: bool = True,
                 tenant_capacity: Optional[int] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.worker_memory_mb = worker_memory_mb
        self.checkpoint_interval = checkpoint_interval
        self.heartbeat_s = heartbeat_s
        self.stuck_after_s = stuck_after_s
        self.degrade_after = degrade_after
        self.recover_after = recover_after
        self.probe_after_s = probe_after_s

        self.journal = Journal(os.path.join(self.root, "journal.jsonl"),
                               fsync=fsync)
        self.cache = ExperimentCache(
            cache_dir=os.path.join(self.root, "cache"))
        self.checkpoint_dir = os.path.join(self.root, "checkpoints")
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        self.drain_flag = os.path.join(self.root, "drain.flag")
        self.queue = AdmissionQueue(queue_capacity,
                                    job_seconds=self._avg_job_seconds,
                                    tenant_capacity=tenant_capacity)

        self._lock = threading.RLock()
        #: Signaled (under ``_lock``) on every job state transition;
        #: the long-poll watch endpoint (``wait_for``) sleeps on it.
        self._changed = threading.Condition(self._lock)
        self._state: Dict[str, Dict[str, Any]] = {}
        self._specs: Dict[str, JobSpec] = {}
        self._inflight: Dict[str, float] = {}
        self._stuck_flagged: set = set()
        self._durations: collections.deque = collections.deque(maxlen=32)
        self._level_index = 0
        self._level_entered = 0.0
        self._consecutive_failures = 0
        self._consecutive_successes = 0
        self._executor: Optional[Executor] = None
        self._draining = threading.Event()
        self._stop = threading.Event()
        self._worker: Optional[threading.Thread] = None
        self._watchdog: Optional[threading.Thread] = None
        self._started = time.monotonic()  # repro: allow-wall-clock
        self.counters = collections.Counter()
        self._recover()

    # ------------------------------------------------------------------
    # Crash recovery (journal replay)
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild queue/state from the journal left by a previous
        incarnation, then compact it.  Jobs last seen ``running`` were
        interrupted by the crash: they re-enter the queue with
        ``resume=True`` so their rolling checkpoints are picked up."""
        try:
            os.unlink(self.drain_flag)  # a stale flag would insta-drain
        except OSError:
            pass
        state = reduce_records(self.journal.replay())
        replayed = 0
        for job_id in sorted(state):
            entry = state[job_id]
            spec_doc = entry.get("spec")
            if spec_doc is not None:
                try:
                    self._specs[job_id] = JobSpec.from_doc(spec_doc)
                except Exception:  # noqa: BLE001 - old/foreign spec
                    _log.warning("journal: job %s has an unresolvable "
                                 "spec; dropping", job_id[:16])
                    continue
            if entry["status"] == "running":
                entry["status"] = "queued"
                entry["resume"] = True
            self._state[job_id] = entry
            if entry["status"] == "queued":
                if job_id not in self._specs:
                    _log.warning("journal: queued job %s has no spec; "
                                 "dropping", job_id[:16])
                    entry["status"] = "failed"
                    entry["failure"] = {"kind": "error",
                                        "message": "spec lost"}
                    continue
                self.queue.push(job_id, entry.get("priority", 0),
                                tenant=self._tenant_of(job_id))
                replayed += 1
        if replayed:
            _log.info("journal replay: %d unfinished job(s) re-queued",
                      replayed)
        self.counters["replayed_jobs"] = replayed
        self.journal.compact(self._state)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._worker = threading.Thread(target=self._worker_loop,
                                        name="repro-service-worker",
                                        daemon=True)
        self._watchdog = threading.Thread(target=self._watchdog_loop,
                                          name="repro-service-watchdog",
                                          daemon=True)
        self._worker.start()
        self._watchdog.start()

    def drain(self, wait: bool = True,
              timeout_s: Optional[float] = None) -> None:
        """Graceful shutdown: refuse new work, checkpoint + requeue
        in-flight jobs, stop the threads.  Idempotent."""
        self._draining.set()
        with open(self.drain_flag, "w", encoding="utf-8") as fh:
            fh.write("draining\n")
        self.queue.wake_all()
        if wait and self._worker is not None:
            self._worker.join(timeout_s)
        self._stop.set()
        if wait and self._watchdog is not None:
            self._watchdog.join(min(timeout_s or 5.0, 5.0))

    def close(self) -> None:
        self._stop.set()
        self._draining.set()
        self.queue.wake_all()
        self._retire_executor(wait=False)
        self.journal.close()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def level(self) -> str:
        return DEGRADATION_LADDER[self._level_index]

    def _tenant_of(self, job_id: str) -> str:
        spec = self._specs.get(job_id)
        return spec.tenant if spec is not None else DEFAULT_TENANT

    # ------------------------------------------------------------------
    # Submission / status (called from HTTP handler threads)
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> Dict[str, Any]:
        """Idempotently admit one job; returns its status doc.

        Raises ``BadRequestError`` (unresolvable spec),
        ``QueueFullError`` (backpressure), ``DrainingError`` or
        ``RejectingError`` (degraded to reject-only).
        """
        config, workload = spec.resolve()
        job_id = spec.job_id()
        with self._lock:
            entry = self._state.get(job_id)
            if entry is not None and entry["status"] == "done":
                self.counters["idempotent_hits"] += 1
                return self._status_doc(job_id, entry)
            if entry is not None and entry["status"] in ("queued",
                                                         "running"):
                self.counters["deduplicated"] += 1
                return self._status_doc(job_id, entry)
        if self._draining.is_set():
            raise DrainingError("service is draining; resubmit to the "
                                "next incarnation",
                                retry_after_s=self.queue.retry_after_s())
        if self.level == "reject":
            raise RejectingError(
                "service degraded to reject-only; probing for recovery",
                retry_after_s=max(self.probe_after_s, 1.0))
        # a result computed by an earlier batch run sharing this cache
        # directory satisfies the job with zero simulation
        cached = self.cache.peek(config, workload)
        with self._lock:
            if cached is not None:
                self.counters["idempotent_hits"] += 1
                entry = {"status": "done", "spec": spec.to_doc(),
                         "priority": spec.priority, "attempts": 0,
                         "resume": False, "cycles": cached.cycles}
                self.journal.append("submitted", job_id,
                                    {"spec": spec.to_doc(),
                                     "priority": spec.priority})
                self.journal.append("done", job_id,
                                    {"cycles": cached.cycles,
                                     "cached": True})
                self._state[job_id] = entry
                self._changed.notify_all()
                return self._status_doc(job_id, entry)
            admitted = self.queue.push(job_id, spec.priority,
                                       tenant=spec.tenant)
            if admitted:
                self.counters["submitted"] += 1
                entry = {"status": "queued", "spec": spec.to_doc(),
                         "priority": spec.priority, "attempts": 0,
                         "resume": False}
                # write-ahead: the 202 the caller sends after this line
                # is backed by a durable record
                self.journal.append("submitted", job_id,
                                    {"spec": spec.to_doc(),
                                     "priority": spec.priority})
                self._state[job_id] = entry
                self._specs[job_id] = spec
            else:
                entry = self._state[job_id]
            return self._status_doc(job_id, entry)

    def status(self, job_id: str) -> Dict[str, Any]:
        with self._lock:
            entry = self._state.get(job_id)
            if entry is None:
                raise JobNotFoundError(f"no such job: {job_id}")
            return self._status_doc(job_id, entry)

    def result_doc(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The stored ``SimResult`` document of a done job (job ids are
        the store's content-addressed keys), or ``None``."""
        store = self.cache.store
        result = store.get(job_id) if store is not None else None
        return result.to_dict() if result is not None else None

    def wait_for(self, job_ids: List[str],
                 timeout_s: float = 30.0) -> Dict[str, Dict[str, Any]]:
        """Long-poll primitive behind ``GET /jobs?watch=``: block until
        at least one of ``job_ids`` is terminal (``done``/``failed``),
        then return every terminal one's status doc; ``{}`` when
        ``timeout_s`` elapses first.  Raises ``JobNotFoundError`` for an
        id that was never submitted here (the watcher is confused —
        tell it now rather than stalling it for the full timeout)."""
        timeout_s = max(timeout_s, 0.0)
        deadline = time.monotonic() + timeout_s  # repro: allow-wall-clock
        with self._changed:
            while True:
                done: Dict[str, Dict[str, Any]] = {}
                for job_id in job_ids:
                    entry = self._state.get(job_id)
                    if entry is None:
                        raise JobNotFoundError(f"no such job: {job_id}")
                    if entry["status"] in ("done", "failed"):
                        done[job_id] = self._status_doc(job_id, entry)
                if done:
                    return done
                remaining = deadline \
                    - time.monotonic()  # repro: allow-wall-clock
                if remaining <= 0 or self._stop.is_set():
                    return {}
                # bounded wait slices double as a liveness backstop
                # should a transition ever miss its notify
                self._changed.wait(min(remaining, 0.5))

    def _status_doc(self, job_id: str,
                    entry: Dict[str, Any]) -> Dict[str, Any]:
        doc = {"job": job_id, "status": entry["status"],
               "priority": entry.get("priority", 0),
               "attempts": entry.get("attempts", 0)}
        if entry.get("resume"):
            doc["resume"] = True
        if entry["status"] == "queued":
            # poll-backoff hint: clients scale their next poll to the
            # backlog instead of hammering at a fixed interval
            doc["retry_after_s"] = self.queue.retry_after_s()
        if "cycles" in entry:
            doc["cycles"] = entry["cycles"]
        if "failure" in entry:
            doc["failure"] = entry["failure"]
        spec_doc = entry.get("spec")
        if spec_doc:
            doc["spec"] = spec_doc
        return doc

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            by_status = collections.Counter(
                entry["status"] for entry in self._state.values())
            inflight = sorted(self._inflight)
            counters = dict(self.counters)
        return {
            "level": self.level,
            "draining": self.draining,
            "jobs_by_status": dict(by_status),
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "queue_tenants": self.queue.tenants(),
            "inflight": [job[:16] for job in inflight],
            "avg_job_seconds": round(self._avg_job_seconds(), 3),
            "uptime_s": round(
                time.monotonic()  # repro: allow-wall-clock
                - self._started, 3),
            "counters": counters,
        }

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    def _level_jobs(self) -> int:
        return {"full": self.jobs,
                "reduced": max(1, self.jobs // 2),
                "serial": 1}.get(self.level, 0)

    def _avg_job_seconds(self) -> float:
        durations = list(self._durations)
        if not durations:
            return DEFAULT_JOB_SECONDS
        return sum(durations) / len(durations)

    def _make_executor(self) -> Executor:
        level_jobs = max(1, self._level_jobs())
        return Executor(
            jobs=level_jobs, timeout_s=self.timeout_s, cache=self.cache,
            retries=self.retries,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_interval=self.checkpoint_interval,
            worker_memory_mb=self.worker_memory_mb,
            drain_flag=self.drain_flag)

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            if self._draining.is_set():
                break
            if self.level == "reject":
                time.sleep(self.heartbeat_s)
                continue
            job_id = self.queue.pop(timeout_s=0.2)
            if job_id is None:
                continue
            batch = [job_id] + self.queue.pop_batch(
                self._level_jobs() - 1)
            self._run_batch(batch)
        self._requeue_leftovers()
        self._retire_executor(wait=True)

    def _retire_executor(self, wait: bool) -> None:
        """Drop the executor and stop its pool's workers."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.close(wait=wait)

    def _run_batch(self, batch: List[str]) -> None:
        tasks: List[Task] = []
        started = time.monotonic()  # repro: allow-wall-clock
        with self._lock:
            if self._executor is None:
                self._executor = self._make_executor()
            executor = self._executor
            for job_id in batch:
                entry = self._state[job_id]
                spec = self._specs[job_id]
                config, workload = spec.resolve()
                attempt = entry.get("attempts", 0) + 1
                self.journal.append("running", job_id,
                                    {"attempt": attempt})
                entry["status"] = "running"
                entry["attempts"] = attempt
                self._inflight[job_id] = started
                tasks.append(Task(job_id, config, workload,
                                  resume=bool(entry.get("resume"))))
        outcome = executor.run_tasks(tasks)
        elapsed = time.monotonic() - started  # repro: allow-wall-clock
        with self._lock:
            for key in ("simulated", "cache_hits", "retries",
                        "pool_rebuilds"):
                self.counters[f"executor_{key}"] += outcome.stats[key]
            for job_id in batch:
                self._inflight.pop(job_id, None)
                self._stuck_flagged.discard(job_id)
                entry = self._state[job_id]
                if job_id in outcome.results:
                    result = outcome.results[job_id]
                    self.journal.append("done", job_id,
                                        {"cycles": result.cycles})
                    entry["status"] = "done"
                    entry["resume"] = False
                    entry["cycles"] = result.cycles
                    self.counters["completed"] += 1
                    self._durations.append(max(elapsed / len(batch),
                                               1e-3))
                    self._note_success()
                elif job_id in outcome.drained:
                    cycle = outcome.drained[job_id]
                    self.journal.append("requeued", job_id,
                                        {"checkpoint_cycle": cycle})
                    entry["status"] = "queued"
                    entry["resume"] = True
                    entry["checkpoint_cycle"] = cycle
                    self.counters["requeued"] += 1
                    if not self._draining.is_set():
                        self.queue.push(job_id, entry.get("priority", 0),
                                        tenant=self._tenant_of(job_id))
                else:
                    failure = next(f for f in outcome.failures
                                   if f.label == job_id)
                    self.journal.append(
                        "failed", job_id,
                        {"kind": failure.kind,
                         "message": failure.message[:500],
                         "attempts": failure.attempts})
                    entry["status"] = "failed"
                    entry["failure"] = {"kind": failure.kind,
                                        "message": failure.message[:500]}
                    self.counters["failed"] += 1
                    self._note_failure(failure.kind)
            if self.journal.appends_since_compact >= COMPACT_EVERY:
                self.journal.compact(self._state)
                self.counters["compactions"] += 1
            self._changed.notify_all()  # wake long-poll watchers

    def _requeue_leftovers(self) -> None:
        """On drain: anything still queued stays journaled as queued —
        nothing to do but surface the count (replay re-queues them)."""
        with self._lock:
            leftover = sum(1 for entry in self._state.values()
                           if entry["status"] == "queued")
        if leftover:
            _log.info("drain: %d queued job(s) left for the next "
                      "incarnation", leftover)

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------

    def _note_success(self) -> None:
        self._consecutive_failures = 0
        if self._level_index == 0:
            return
        self._consecutive_successes += 1
        if self._consecutive_successes >= self.recover_after:
            self._shift_level(-1, "consecutive successes")

    def _note_failure(self, kind: str) -> None:
        self._consecutive_successes = 0
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.degrade_after \
                and self._level_index < len(DEGRADATION_LADDER) - 1:
            self._shift_level(+1, f"consecutive {kind} failures")

    def _shift_level(self, delta: int, why: str) -> None:
        previous = self.level
        self._level_index = min(max(self._level_index + delta, 0),
                                len(DEGRADATION_LADDER) - 1)
        self._level_entered = time.monotonic()  # repro: allow-wall-clock
        self._consecutive_failures = 0
        self._consecutive_successes = 0
        # rebuilt at the new width; the old pool stops once any batch
        # still running on it has finished
        self._retire_executor(wait=False)
        key = "degradations" if delta > 0 else "recoveries"
        self.counters[key] += 1
        _log.warning("service level %s -> %s (%s)", previous,
                     self.level, why)

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------

    def _watchdog_loop(self) -> None:
        while not self._stop.is_set():
            time.sleep(self.heartbeat_s)
            now = time.monotonic()  # repro: allow-wall-clock
            with self._lock:
                for job_id, since in list(self._inflight.items()):
                    if now - since < self.stuck_after_s \
                            or job_id in self._stuck_flagged:
                        continue
                    self._stuck_flagged.add(job_id)
                    self.counters["watchdog_stuck"] += 1
                    _log.warning("watchdog: job %s in flight for "
                                 "%.1fs (budget %.1fs)", job_id[:16],
                                 now - since, self.stuck_after_s)
                    self._note_failure("stuck")
                if self.level == "reject" \
                        and now - self._level_entered \
                        >= self.probe_after_s:
                    self._shift_level(-1, "recovery probe")
