"""Parallel experiment execution and the persistent result store.

Sweeps are embarrassingly parallel: every (config, workload) cell is an
independent, deterministic simulation.  This module provides

* ``cache_key`` — a content-addressed identity for one experiment:
  sha256 over the canonical config dict, the workload *content*
  fingerprint (not its name), and the cache format version;
* ``ResultStore`` — an on-disk, content-addressed store of ``SimResult``
  JSON documents, shared between processes and across runs, with a
  per-entry integrity checksum (corrupt entries are quarantined, not
  silently re-simulated forever);
* ``Executor`` — a *self-healing* process-pool engine whose pool stays
  warm across batches: per-task timeouts, failure isolation, retry of
  transient failures with capped exponential backoff, resume of
  interrupted/timed-out tasks from periodic simulation checkpoints
  (``repro.sim.checkpoint``), recovery from killed workers by
  rebuilding the pool, and graceful degradation to serial execution
  when the pool keeps breaking.

Determinism: simulations are pure functions of (config, workload), so
results are bit-identical whatever ``jobs`` is — the executor only
changes *when* each cell is computed, never *what* it computes.  The
test suite asserts this (``tests/test_executor.py``), including across
worker crashes and checkpoint resumes (``docs/resilience.md``).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import signal
import tempfile
import threading
import time
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.common.errors import CheckpointError, DeadlockError
from repro.common.params import SystemConfig
from repro.isa.trace import Workload
from repro.sim.results import SimResult

_log = logging.getLogger(__name__)

#: Bump when the on-disk payload or the simulator's observable behaviour
#: changes; old entries become unreachable (different keys) not corrupt.
#: v2: entries carry an integrity ``checksum`` over the result document.
CACHE_FORMAT_VERSION = 2

#: Simulated cycles between rolling checkpoints when the executor runs
#: with a ``checkpoint_dir`` and the caller gave no explicit interval.
DEFAULT_CHECKPOINT_INTERVAL = 2_000

#: True only inside a process-pool worker (set by the pool initializer).
#: The chaos engine's process-fault injection (``crash_at_cycle`` /
#: ``stall_at_cycle``) is gated on this so a degraded-to-serial executor
#: — or any direct ``System.run`` — never kills the caller's process.
IN_POOL_WORKER = False

#: Attempt number (1-based) of the task currently running in this
#: process; threaded through ``_run_task`` because environment changes
#: do not reach already-forked pool workers.
CURRENT_ATTEMPT = 1


def _mark_pool_worker() -> None:
    global IN_POOL_WORKER
    IN_POOL_WORKER = True


def _init_pool_worker(memory_mb: Optional[int] = None) -> None:
    """Pool-worker initializer: mark the process and, when a ceiling is
    configured, cap its address space with ``RLIMIT_AS`` so a runaway
    simulation dies as a ``MemoryError`` inside the worker (a retryable
    "oom" task failure) instead of inviting the kernel OOM killer to
    shoot the host.  Only ever applied inside pool workers — the serial
    path shares the caller's process, where a ceiling would be a
    landmine for the embedding application."""
    _mark_pool_worker()
    if memory_mb is None:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return
    limit = int(memory_mb) << 20
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (OSError, ValueError):  # pragma: no cover - platform refusal
        _log.warning("executor: cannot apply RLIMIT_AS of %d MiB in "
                     "worker %d", memory_mb, os.getpid())


# canonical config JSON is memoized per config value: sweeps reuse a
# handful of configs across hundreds of workload cells.  ``SystemConfig``
# is a frozen dataclass, so equal configs share one bounded entry.
@lru_cache(maxsize=1024)
def _config_json(config: SystemConfig) -> str:
    return json.dumps(config.to_dict(), sort_keys=True)


def cache_key(config: SystemConfig, workload: Workload) -> str:
    """Content-addressed identity of one experiment.

    Keyed on what the simulation *consumes* — the full config and the
    actual trace content — never on the workload's display name, so two
    same-named workloads with different traces can never alias (and two
    identically-generated workloads always share a cache entry).
    """
    h = hashlib.sha256()
    h.update(f"repro-cache-v{CACHE_FORMAT_VERSION}\n".encode())
    h.update(_config_json(config).encode())
    h.update(b"\n")
    h.update(workload.fingerprint.encode())
    return h.hexdigest()


def _result_checksum(doc_text: str) -> str:
    """Integrity checksum over the result document's canonical JSON
    (``json.dumps(doc, sort_keys=True)``)."""
    return hashlib.sha256(doc_text.encode()).hexdigest()


class ResultStore:
    """Persistent content-addressed store of simulation results.

    Layout: ``<root>/v<FORMAT>/<key[:2]>/<key>.json`` — two-level fanout
    keeps directories small on big sweeps.  Writes go through a temp
    file + ``os.replace`` so concurrent writers (pool workers, parallel
    CI jobs) can only ever produce complete entries.

    Every entry carries a sha256 checksum of its result document.  A
    corrupt entry (unparseable, wrong format marker, checksum mismatch,
    undecodable result) behaves like a miss, and the damaged file is
    moved — once — to ``<root>/quarantine/`` for postmortems instead of
    being re-read and re-rejected on every future lookup.
    """

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        self._dir = os.path.join(self.root, f"v{CACHE_FORMAT_VERSION}")

    def _path(self, key: str) -> str:
        return os.path.join(self._dir, key[:2], f"{key}.json")

    @contextmanager
    def _write_lock(self):
        """Advisory ``flock`` serializing mutations to this store.

        Readers never lock (atomic renames guarantee they only ever see
        complete entries), but two *processes* sharing one
        ``REPRO_CACHE_DIR`` can otherwise interleave a ``put`` with a
        concurrent ``_quarantine`` of the same key: writer A replaces a
        fresh entry at the exact moment writer B, holding a stale
        corrupt read, renames that fresh file into ``quarantine/``.
        Holding the store lock across the read-verdict-to-rename window
        closes that race.  Falls back to lock-free (pure atomic-rename
        discipline, still crash-safe) where ``fcntl`` is unavailable.
        """
        if fcntl is None:
            yield
            return
        os.makedirs(self.root, exist_ok=True)
        fd = os.open(os.path.join(self.root, ".lock"),
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing releases the flock

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def _read_entry(self, key: str
                    ) -> Tuple[Optional[SimResult], Optional[str]]:
        """Read + validate ``key``'s entry: ``(result, corrupt_reason)``.
        ``(None, None)`` is a plain miss (no file)."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError:
            return None, None
        except ValueError:
            return None, "unparseable JSON"
        if not isinstance(payload, dict) \
                or payload.get("format") != CACHE_FORMAT_VERSION:
            return None, "format marker mismatch"
        if payload.get("checksum") != _result_checksum(
                json.dumps(payload.get("result", {}), sort_keys=True)):
            return None, "checksum mismatch"
        try:
            return SimResult.from_dict(payload["result"]), None
        except Exception as err:  # noqa: BLE001 - corrupt data boundary
            return None, f"undecodable result ({type(err).__name__})"

    def _quarantine(self, key: str, reason: str) -> None:
        """Move ``key``'s damaged file into ``<root>/quarantine/``.

        Runs under the store write lock and *re-validates* first: with
        two processes sharing a store, the corrupt bytes this process
        read may have been atomically replaced by a concurrent writer's
        good entry between read and rename — quarantining that would
        evict a valid result.  Re-checking under the lock (which every
        ``put`` also holds across its rename) makes the rename hit only
        entries that are still corrupt.
        """
        with self._write_lock():
            _result, still_corrupt = self._read_entry(key)
            if still_corrupt is None:
                return  # replaced by a good entry (or already gone)
            src = self._path(key)
            quarantine_dir = os.path.join(self.root, "quarantine")
            dst = os.path.join(quarantine_dir, os.path.basename(src))
            try:
                os.makedirs(quarantine_dir, exist_ok=True)
                os.replace(src, dst)
            except OSError:
                return
        _log.warning("result store: quarantined corrupt entry %s -> %s "
                     "(%s)", src, dst, reason)

    def get(self, key: str) -> Optional[SimResult]:
        """Load the stored result for ``key``; ``None`` when absent or
        corrupt.  Corrupt entries are quarantined (see class docs)."""
        result, corrupt_reason = self._read_entry(key)
        if corrupt_reason is not None:
            self._quarantine(key, corrupt_reason)
        return result

    def put(self, key: str, result: SimResult) -> None:
        directory = os.path.dirname(self._path(key))
        os.makedirs(directory, exist_ok=True)
        # the result document is serialized once: its text is both the
        # checksum's input and the payload's "result" member, spliced in
        # where ``json.dump(payload, sort_keys=True)`` would put it
        doc_text = json.dumps(result.to_dict(), sort_keys=True)
        text = (f'{{"checksum": "{_result_checksum(doc_text)}", '
                f'"format": {CACHE_FORMAT_VERSION}, '
                f'"key": {json.dumps(key)}, "result": {doc_text}}}')
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            with self._write_lock():
                os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def keys(self) -> List[str]:
        found = []
        if not os.path.isdir(self._dir):
            return found
        for sub in sorted(os.listdir(self._dir)):
            subdir = os.path.join(self._dir, sub)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(".json"):
                    found.append(name[:-len(".json")])
        return found

    def __len__(self) -> int:
        return len(self.keys())


class Task:
    """One sweep cell: run ``workload`` under ``config``.

    ``resume=True`` asks the very first attempt to resume from an
    existing rolling checkpoint (when the executor has a
    ``checkpoint_dir`` and one is present) instead of starting at cycle
    zero — the job service sets it when replaying jobs that a previous
    service incarnation journaled as running or drained.  Without it
    only retry attempts consult checkpoints, preserving the historical
    fresh-start semantics of batch sweeps.
    """

    __slots__ = ("label", "config", "workload", "timeout_s", "resume")

    def __init__(self, label: str, config: SystemConfig,
                 workload: Workload,
                 timeout_s: Optional[float] = None,
                 resume: bool = False) -> None:
        self.label = label
        self.config = config
        self.workload = workload
        self.timeout_s = timeout_s
        self.resume = resume


class TaskFailure:
    """An isolated task failure: the batch continues without it.

    ``attempts`` is how many times the executor tried the task before
    giving up; ``dump`` carries the structured deadlock diagnostic
    (``System.diagnostic_dump``) when the failure was a ``DeadlockError``.
    """

    __slots__ = ("label", "kind", "message", "attempts", "dump")

    def __init__(self, label: str, kind: str, message: str,
                 attempts: int = 1, dump: Optional[Dict] = None) -> None:
        self.label = label
        self.kind = kind          # "error"|"timeout"|"interrupted"|"oom"
        self.message = message
        self.attempts = attempts
        self.dump = dump

    def __repr__(self) -> str:
        return f"TaskFailure({self.label!r}, {self.kind}: {self.message})"


class ExecutorOutcome:
    """Results and failures of one ``Executor.run_tasks`` batch.

    ``drained`` maps the label of every task that was *paused* by a
    cooperative drain (``Executor(drain_flag=...)``) to the simulated
    cycle its rolling checkpoint covers — those tasks neither succeeded
    nor failed; resubmitting them with ``Task(resume=True)`` continues
    from the checkpoint bit-identically.
    """

    __slots__ = ("results", "failures", "stats", "drained")

    def __init__(self, results: Dict[str, SimResult],
                 failures: List[TaskFailure],
                 stats: Dict[str, int],
                 drained: Optional[Dict[str, int]] = None) -> None:
        self.results = results
        self.failures = failures
        self.stats = stats
        self.drained = drained if drained is not None else {}

    def result(self, label: str) -> SimResult:
        for failure in self.failures:
            if failure.label == label:
                raise RuntimeError(
                    f"task {label!r} failed ({failure.kind}): "
                    f"{failure.message}")
        if label in self.drained:
            raise RuntimeError(
                f"task {label!r} was drained at cycle "
                f"{self.drained[label]}; resubmit with resume=True")
        return self.results[label]


class _TaskTimeout(BaseException):
    """Raised by the SIGALRM handler when a task's wall-clock budget is
    spent.  Derives from ``BaseException`` so the broad ``except
    Exception`` isolation layers the alarm may interrupt — e.g. the
    pickle wrapper in ``snapshot_system``, whose checkpoint can be
    mid-write when the alarm fires — cannot swallow it into a
    non-retryable error; only ``_run_task`` catches it, as a timeout."""


class _TaskDrained(BaseException):
    """Raised by ``_simulate`` when a cooperative drain paused the task
    at a checkpoint boundary.  ``BaseException`` for the same reason as
    ``_TaskTimeout``: no isolation layer may swallow it — only
    ``_run_task`` catches it, as a "drained" outcome."""

    def __init__(self, cycle: int) -> None:
        self.cycle = cycle
        super().__init__(f"drained at cycle {cycle}")


def _alarm_handler(_signum, _frame):
    raise _TaskTimeout()


@contextmanager
def _task_alarm(timeout_s: Optional[float]):
    """SIGALRM-backed wall-clock budget for one task.

    The teardown order is load-bearing: the pending alarm is cancelled
    *before* the previous handler is restored.  Restoring first leaves a
    window where a still-armed alarm fires into the restored handler —
    for back-to-back serial tasks that would abort the *next* task (or
    kill the process outright under the default disposition).

    ``signal.signal`` only works from the main thread; when the serial
    path runs inside a worker *thread* (the job service's supervisor),
    the alarm is skipped and stuck-task protection falls to the
    supervisor's heartbeat watchdog instead.  Pool workers are
    unaffected — their tasks run on the worker process's main thread.
    """
    if timeout_s is None or not hasattr(signal, "SIGALRM") \
            or threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.alarm(max(1, int(timeout_s)))
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _simulate(config: SystemConfig, workload: Workload, meta: Dict,
              checkpoint_path: Optional[str],
              checkpoint_interval: Optional[int],
              resume: bool = False,
              drain_flag: Optional[str] = None) -> SimResult:
    """Run one cell, through the checkpointing path when enabled.

    On a retry (``meta["attempt"] > 1``) — or on a first attempt with
    ``resume=True`` (journal replay after a service restart) — a valid
    rolling checkpoint left by a previous attempt/incarnation is resumed
    instead of restarting from cycle zero; a missing or corrupt
    checkpoint falls back to a fresh run.  Sanitized configs always run
    fresh — they cannot be checkpointed (``repro.sim.checkpoint``).

    With a ``drain_flag``, the checkpoint loop pauses at the first
    checkpoint boundary after the flag file appears and this raises
    ``_TaskDrained`` — the rolling checkpoint is deliberately *kept* so
    a later attempt resumes it.
    """
    # deferred import: repro.sim.runner imports this module
    from repro.sim.runner import collect_result, run_simulation
    if checkpoint_path is None or config.sanitize:
        return run_simulation(config, workload)
    from repro.sim.checkpoint import load_checkpoint, run_with_checkpoints
    from repro.sim.system import System
    system = None
    if (meta["attempt"] > 1 or resume) and os.path.exists(checkpoint_path):
        try:
            system = load_checkpoint(checkpoint_path)
            meta["resumed_from"] = system.cycles
        except CheckpointError as err:
            _log.warning("executor: discarding unusable checkpoint %s "
                         "(%s); restarting task from cycle 0",
                         checkpoint_path, err)
            system = None
    if system is None:
        system = System(config, workload)
        system.mem.warm(workload)
    run_with_checkpoints(
        system, checkpoint_path,
        checkpoint_interval or DEFAULT_CHECKPOINT_INTERVAL,
        stop_flag=drain_flag)
    if not system.done:
        raise _TaskDrained(system.cycles)
    try:
        os.unlink(checkpoint_path)
    except OSError:
        pass
    return collect_result(system)


def _run_task(label: str, config: SystemConfig, workload: Workload,
              timeout_s: Optional[float], attempt: int = 1,
              checkpoint_path: Optional[str] = None,
              checkpoint_interval: Optional[int] = None,
              resume: bool = False,
              drain_flag: Optional[str] = None,
              ) -> Tuple[str, str, object, Dict]:
    """Run one task, in a pool worker (via ``_run_pooled``) or on the
    serial path, with identical semantics at any ``jobs``.  Never
    raises: failures are reported as ('error'|'timeout'|'oom'|'drained',
    message) so one bad cell cannot take down the batch or the pool.
    The fourth element is attempt metadata: ``attempt`` (1-based),
    ``resumed_from`` (checkpoint cycle or None), ``checkpoint_cycle``
    for drained tasks and, for deadlocks, the diagnostic ``dump``."""
    global CURRENT_ATTEMPT
    CURRENT_ATTEMPT = attempt
    meta: Dict = {"attempt": attempt, "resumed_from": None}
    try:
        with _task_alarm(timeout_s):
            result = _simulate(config, workload, meta,
                               checkpoint_path, checkpoint_interval,
                               resume, drain_flag)
        return (label, "ok", result, meta)
    except _TaskTimeout:
        return (label, "timeout", f"exceeded {timeout_s}s", meta)
    except _TaskDrained as drained:
        meta["checkpoint_cycle"] = drained.cycle
        return (label, "drained",
                f"paused by drain at cycle {drained.cycle}", meta)
    except MemoryError:
        return (label, "oom",
                "worker exhausted its memory ceiling (RLIMIT_AS)", meta)
    except DeadlockError as err:
        meta["dump"] = err.dump
        return (label, "error", f"DeadlockError: {err}", meta)
    except Exception as err:  # noqa: BLE001 - isolation boundary
        return (label, "error", f"{type(err).__name__}: {err}", meta)


#: A pool worker's last decoded workload and the blob it came from.  A
#: batch ships each distinct workload as one pickled blob, and a worker
#: usually runs several of its cells in a row, so it decodes (and
#: compiles) the trace graph once per run of equal blobs.  Keyed on the
#: blob, not the fingerprint: two workloads of equal content but
#: different names share a fingerprint, yet ``SimResult.workload_name``
#: comes from the object.
_LAST_DECODED: Optional[Tuple[bytes, Workload]] = None


def _run_pooled(label: str, config: SystemConfig, workload_blob: bytes,
                *args) -> Tuple[str, str, object, Dict]:
    """Pool-worker entry point: decode the workload blob (or reuse the
    last one) and run the task through ``_run_task``."""
    global _LAST_DECODED
    if _LAST_DECODED is None or _LAST_DECODED[0] != workload_blob:
        _LAST_DECODED = (workload_blob, pickle.loads(workload_blob))
    return _run_task(label, config, _LAST_DECODED[1], *args)


class Executor:
    """Fans batches of sweep tasks over a process pool, self-healing.

    * deduplicates by ``cache_key`` — a batch naming the same
      experiment twice simulates it once;
    * consults/feeds an ``ExperimentCache`` (in-process memo + optional
      persistent ``ResultStore``) before and after simulating;
    * isolates failures: a raising or deadlocked worker yields a
      ``TaskFailure``, never an exception out of ``run_tasks``;
    * retries transient failures: timed-out tasks up to ``retries``
      extra attempts, and tasks interrupted by a dying worker (SIGKILL,
      OOM) at least once, with capped exponential backoff between retry
      rounds — resuming from the task's rolling checkpoint when a
      ``checkpoint_dir`` is configured;
    * keeps one process pool warm across ``run_tasks`` calls: the pool
      is forked on first use and its workers stay up until ``close()``,
      the end of a ``with`` block, or the executor being dropped;
    * recovers from a broken process pool by building a fresh pool for
      the next round, and degrades to in-process serial execution after
      ``pool_failure_limit`` consecutive breaks;
    * is deterministic: the returned mapping depends only on the tasks,
      never on ``jobs``, completion order, or how many
      faults were healed along the way (a resumed run is bit-identical
      to a fresh one — see ``repro.sim.checkpoint``).
    """

    def __init__(self, jobs: int = 1, timeout_s: Optional[float] = None,
                 cache: Optional["ExperimentCache"] = None,
                 retries: int = 0, backoff_s: float = 0.05,
                 backoff_cap_s: float = 2.0,
                 pool_failure_limit: int = 3,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_interval: Optional[int] = None,
                 worker_memory_mb: Optional[int] = None,
                 drain_flag: Optional[str] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if pool_failure_limit < 1:
            raise ValueError("pool_failure_limit must be >= 1")
        if worker_memory_mb is not None and worker_memory_mb < 1:
            raise ValueError("worker_memory_mb must be >= 1")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.cache = cache
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.pool_failure_limit = pool_failure_limit
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = checkpoint_interval
        #: Off by default.  Applied as RLIMIT_AS inside pool workers
        #: only; the serial path never caps the embedding process.
        self.worker_memory_mb = worker_memory_mb
        #: Cooperative-drain flag file: when it exists, checkpointing
        #: tasks pause at the next checkpoint boundary ("drained").
        self.drain_flag = drain_flag
        self._pool_breaks = 0
        self._degraded = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_finalizer: Optional[weakref.finalize] = None
        #: Serializes pool creation + submission against ``close()``,
        #: which the job service may call from its watchdog thread.
        self._pool_lock = threading.Lock()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, wait: bool = True) -> None:
        """Stop the pool's workers.  ``wait=False`` returns at once and
        lets any batch still running on the pool finish; a later
        ``run_tasks`` forks a fresh pool.  Idempotent."""
        with self._pool_lock:
            pool = self._pool
            self._pool = None
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
        if pool is not None:
            pool.shutdown(wait=wait)

    def _open_pool(self) -> ProcessPoolExecutor:
        """The warm pool, forked on first use (caller holds the lock)."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_init_pool_worker,
                initargs=(self.worker_memory_mb,))
            # a dropped executor stops its workers too; the callback
            # holds the pool, never the executor
            self._pool_finalizer = weakref.finalize(
                self, self._pool.shutdown, True)
        return self._pool

    def _retry_budget(self, status: str) -> int:
        """Extra attempts allowed after a failure of ``status``.

        An interruption (the worker died under the task) is always worth
        one retry even at ``retries=0``: the task itself did nothing
        wrong, and a checkpoint may make the retry nearly free.  An OOM
        under a worker memory ceiling is treated the same way — the
        ceiling is an environmental policy, and a retry resuming from a
        checkpoint taken before the blow-up can finish within it.  Plain
        errors are deterministic — retrying replays the same exception.
        """
        if status in ("interrupted", "oom"):
            return max(self.retries, 1)
        if status == "timeout":
            return self.retries
        return 0

    def _backoff_delay(self, round_index: int) -> float:
        return min(self.backoff_cap_s,
                   self.backoff_s * (2 ** (round_index - 1)))

    def _checkpoint_args(self, key: str
                         ) -> Tuple[Optional[str], Optional[int]]:
        if self.checkpoint_dir is None:
            return None, None
        path = os.path.join(self.checkpoint_dir, f"{key}.ckpt")
        return path, self.checkpoint_interval

    def run_tasks(self, tasks: Iterable[Task],
                  cache: Optional["ExperimentCache"] = None,
                  ) -> ExecutorOutcome:
        tasks = list(tasks)
        cache = cache if cache is not None else self.cache
        # the last key is a constant 0, kept because the repository
        # benchmark's sweep counters (``perfbench/``) still read it
        stats = {"tasks": len(tasks), "cache_hits": 0, "simulated": 0,
                 "deduplicated": 0, "failed": 0, "retries": 0,
                 "resumed": 0, "pool_rebuilds": 0, "degraded_serial": 0,
                 "drained": 0, "lockstep_batches": 0}
        results: Dict[str, SimResult] = {}
        failures: List[TaskFailure] = []
        drained: Dict[str, int] = {}
        # resolve cache hits and deduplicate identical experiments
        pending: Dict[str, Task] = {}       # key -> representative task
        by_key: Dict[str, List[Task]] = {}  # key -> every task wanting it
        for task in tasks:
            key = cache_key(task.config, task.workload)
            by_key.setdefault(key, []).append(task)
            if key in pending:
                stats["deduplicated"] += 1
                continue
            hit = cache.peek(task.config, task.workload) \
                if cache is not None else None
            if hit is not None:
                stats["cache_hits"] += 1
                for waiting in by_key[key]:
                    results[waiting.label] = hit
                continue
            pending[key] = task
        # simulate the misses; failed-but-retryable tasks roll into the
        # next round with an incremented attempt number
        attempt: Dict[str, int] = {key: 1 for key in pending}
        remaining = dict(pending)
        round_index = 0
        while remaining:
            if round_index:
                delay = self._backoff_delay(round_index)
                if delay > 0:
                    time.sleep(delay)
            round_index += 1
            retry_round: Dict[str, Task] = {}
            for key, outcome in self._execute(remaining, attempt, stats):
                label, status, payload, meta = outcome
                if meta.get("resumed_from") is not None:
                    stats["resumed"] += 1
                if status == "ok":
                    stats["simulated"] += 1
                    if cache is not None:
                        task = pending[key]
                        cache.insert(task.config, task.workload, payload)
                    for waiting in by_key[key]:
                        results[waiting.label] = payload
                elif status == "drained":
                    # not a failure: the task paused at a checkpoint
                    # boundary because a drain was requested; the caller
                    # resubmits it with resume=True
                    stats["drained"] += 1
                    cycle = meta.get("checkpoint_cycle", 0)
                    for waiting in by_key[key]:
                        drained[waiting.label] = cycle
                elif attempt[key] <= self._retry_budget(status):
                    stats["retries"] += 1
                    attempt[key] += 1
                    retry_round[key] = pending[key]
                    _log.warning("executor: task %r attempt %d %s (%s); "
                                 "retrying", label, meta.get("attempt", 1),
                                 status, payload)
                else:
                    stats["failed"] += 1
                    for waiting in by_key[key]:
                        failures.append(TaskFailure(
                            waiting.label, status, payload,
                            attempts=attempt[key],
                            dump=meta.get("dump")))
            remaining = retry_round
        return ExecutorOutcome(results, failures, stats, drained)

    def _execute(self, pending: Dict[str, Task],
                 attempt: Dict[str, int], stats: Dict[str, int]):
        """Yield (key, worker outcome) for every pending task.

        Pool-worker deaths surface as synthetic ``interrupted`` outcomes
        (``concurrent.futures`` fails *every* unfinished future when a
        worker dies, so siblings of the killed task are interrupted,
        not failed).  Each broken pool counts toward degradation; past
        ``pool_failure_limit`` breaks, execution continues serially
        in-process — slower, but immune to pool-level faults.
        """
        if not pending:
            return

        def timeout_of(task: Task) -> Optional[float]:
            return task.timeout_s if task.timeout_s is not None \
                else self.timeout_s

        if self.jobs == 1 or self._degraded:
            for key, task in pending.items():
                path, interval = self._checkpoint_args(key)
                yield key, _run_task(task.label, task.config,
                                     task.workload, timeout_of(task),
                                     attempt[key], path, interval,
                                     task.resume, self.drain_flag)
            return
        # each distinct workload is pickled once per batch; workers
        # receive the blob and decode it once per run of equal blobs
        blobs: Dict[Workload, bytes] = {}
        futures = {}
        with self._pool_lock:
            pool = self._open_pool()
            try:
                for key, task in pending.items():
                    blob = blobs.get(task.workload)
                    if blob is None:
                        blob = blobs[task.workload] = pickle.dumps(
                            task.workload, protocol=pickle.HIGHEST_PROTOCOL)
                    path, interval = self._checkpoint_args(key)
                    futures[key] = pool.submit(
                        _run_pooled, task.label, task.config, blob,
                        timeout_of(task), attempt[key], path, interval,
                        task.resume, self.drain_flag)
            except BrokenExecutor:
                pass  # broke while idle: unsubmitted tasks are interrupted
        broken = False
        try:
            for key, task in pending.items():
                try:
                    if key not in futures:
                        raise BrokenExecutor("pool broke before submission")
                    outcome = futures[key].result()
                except BrokenExecutor:
                    broken = True
                    outcome = (task.label, "interrupted",
                               "worker process died before the task "
                               "completed", {"attempt": attempt[key]})
                except Exception as err:  # noqa: BLE001 - isolation
                    outcome = (task.label, "error",
                               f"{type(err).__name__}: {err}",
                               {"attempt": attempt[key]})
                yield key, outcome
        finally:
            # left early (the caller raised): queued work must not run
            # into the next batch on the warm pool
            for future in futures.values():
                future.cancel()
        if broken:
            self.close()  # the next round forks a fresh pool
            stats["pool_rebuilds"] += 1
            self._pool_breaks += 1
            if not self._degraded \
                    and self._pool_breaks >= self.pool_failure_limit:
                self._degraded = True
                stats["degraded_serial"] = 1
                _log.warning("executor: process pool broke %d time(s); "
                             "degrading to serial execution",
                             self._pool_breaks)
