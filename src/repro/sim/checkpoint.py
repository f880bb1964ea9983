"""Checkpoint/resume for whole simulations.

A checkpoint is the pickled ``System`` object graph — cores (ROB, LSQ,
write buffers, pinning controller), caches, directory, network, pending
events, and, for chaos runs, the fault injector's RNG and backoff state.
Everything the next cycle depends on lives in that graph, so a resumed
run is *bit-identical* to an uninterrupted one (asserted per scheme by
``tests/test_checkpoint.py``).

Format 3 splits the payload into an *immutable* part and a *run-state*
part.  The trace graph — ``Workload``, its ``Trace`` objects, and every
``MicroOp`` — dominates the old deep pickle but never changes after
construction, so the writer serializes it once per workload (memoized
weakly) and replaces every reference from run state with a persistent
id ``(thread, index)`` into that graph.  A rolling checkpoint then
re-serializes only the mutable machine state (ROB entries, queues,
cache tags, pending events): near-free snapshots whose cost scales with
the in-flight window, not the trace length.  The specialized engine's
derived arrays (``repro.isa.compiled``) are never checkpoint state —
``System.__getstate__`` drops the engine and it is rebuilt lazily after
a restore.

Format 4 keeps that split but snapshots the struct-of-arrays core
state: per-uop status is ``ColumnState`` array columns (which pickle as
flat buffers, not per-entry object graphs), the ROB window and the
LQ/SQ are handle rings, and the work-lists are plain index lists.
Run-state snapshots are both smaller and faster to take/restore than
v3's (measured per scheme in ``BENCH_hotloop.json``).

Two deliberate restrictions:

* A sanitized system (``config.sanitize``) cannot be checkpointed: the
  sanitizer shadows instance methods with closures and keys state by
  object identity, neither of which survives a pickle round trip.
  ``save_checkpoint`` raises ``CheckpointError`` instead of writing a
  checkpoint that would silently drop invariant checking on resume.
* Checkpoint files carry ``CHECKPOINT_FORMAT_VERSION``; a mismatch (or a
  truncated/corrupt file) raises ``CheckpointError`` rather than
  resuming from state the current simulator no longer understands.

Writes are atomic (temp file + ``os.replace``): a worker killed
mid-write leaves the previous checkpoint intact, which is exactly the
property the self-healing executor (``repro.sim.executor``) relies on to
resume SIGKILLed or timed-out tasks.
"""

from __future__ import annotations

import io
import os
import pickle
import tempfile
import weakref
from typing import Dict, Optional, Tuple

from repro.common.errors import CheckpointError
from repro.isa.trace import Workload

#: Bump whenever simulator state layout changes incompatibly; resuming
#: from an old checkpoint then fails loudly instead of corrupting a run.
#: 2: the core grew event-driven wakeup state (``_wake_pending``,
#: ``_waiting_stalled``, the VP frontier) and the pinning controller
#: its episode-denial map.
#: 3: split immutable trace graph / mutable run state (persistent-id
#: externalization above); v2 whole-graph checkpoints no longer restore.
#: 4: struct-of-arrays core state — per-uop status lives in
#: ``ColumnState`` array columns, the ROB/LQ/SQ are handle rings, the
#: work-lists are index lists, and the VP frontier dict became a flag
#: column plus counter.  v3 object-per-entry checkpoints no longer
#: restore (no silent migration; re-run from the trace instead).
#: 5: adversarial-trace support — ``MicroOp`` grew ``guard``/``probe``
#: slots, ``Trace`` its NOP-twin table (twins join the externalized
#: immutable graph below), and the DOM/STT schemes their mutation
#: flags.  v4 checkpoints no longer restore.
#: 6: construction in proportion to touched state — a ``CacheArray``
#: restores only its occupied sets (the rest share one empty set) and a
#: ``CacheShadowTable`` entry holds only the records it has ever used.
#: v5 checkpoints no longer restore.
CHECKPOINT_FORMAT_VERSION = 6

#: Per-workload memo of the serialized immutable part and the
#: ``id(object) -> persistent id`` table.  Weak keys: the memo must not
#: keep finished workloads alive.  The id-keyed table is safe because
#: the (strongly referenced) workload pins every trace and uop for at
#: least as long as its memo entry exists.
_IMMUTABLE_MEMO: "weakref.WeakKeyDictionary[Workload, Tuple[bytes, Dict[int, tuple]]]" = \
    weakref.WeakKeyDictionary()


def _immutable_part(workload: Workload) -> Tuple[bytes, Dict[int, tuple]]:
    memo = _IMMUTABLE_MEMO.get(workload)
    if memo is None:
        table: Dict[int, tuple] = {
            id(workload): ("workload",)}  # repro: allow-id-ordering
        for t, trace in enumerate(workload.traces):
            table[id(trace)] = ("trace", t)  # repro: allow-id-ordering
            for i, uop in enumerate(trace):
                table[id(uop)] = ("uop", t, i)  # repro: allow-id-ordering
            for i, twin in trace.twins.items():
                table[id(twin)] = ("twin", t, i)  # repro: allow-id-ordering
        blob = pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL)
        memo = (blob, table)
        _IMMUTABLE_MEMO[workload] = memo
    return memo


class _StatePickler(pickle.Pickler):
    """Pickles run state, externalizing the immutable trace graph."""

    def __init__(self, file, table: Dict[int, tuple]) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._table = table

    def persistent_id(self, obj):
        return self._table.get(id(obj))  # repro: allow-id-ordering


class _StateUnpickler(pickle.Unpickler):
    """Resolves persistent ids against a freshly restored workload."""

    def __init__(self, file, workload: Workload) -> None:
        super().__init__(file)
        self._workload = workload

    def persistent_load(self, pid):
        kind = pid[0]
        if kind == "uop":
            return self._workload.traces[pid[1]][pid[2]]
        if kind == "twin":
            return self._workload.traces[pid[1]].twins[pid[2]]
        if kind == "trace":
            return self._workload.traces[pid[1]]
        if kind == "workload":
            return self._workload
        raise CheckpointError(f"unknown persistent id {pid!r}")


def snapshot_system(system) -> bytes:
    """In-memory checkpoint: the serialized system, ready to restore."""
    if system.sanitizer is not None:
        raise CheckpointError(
            "cannot checkpoint a sanitized system: the sanitizer wraps "
            "instance methods with closures that do not survive "
            "pickling; run with sanitize=False to checkpoint")
    workload_blob, table = _immutable_part(system.workload)
    buffer = io.BytesIO()
    try:
        _StatePickler(buffer, table).dump(system)
    except Exception as err:
        raise CheckpointError(
            f"system state is not serializable: "
            f"{type(err).__name__}: {err}") from err
    payload = {"format": CHECKPOINT_FORMAT_VERSION,
               "cycle": system.cycles,
               "workload": workload_blob,
               "state": buffer.getvalue()}
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def restore_system(blob: bytes):
    """Rebuild a ``System`` from ``snapshot_system`` output."""
    try:
        payload = pickle.loads(blob)
    except Exception as err:
        raise CheckpointError(
            f"corrupt checkpoint: {type(err).__name__}: {err}") from err
    if not isinstance(payload, dict) \
            or payload.get("format") != CHECKPOINT_FORMAT_VERSION:
        found = payload.get("format") if isinstance(payload, dict) \
            else type(payload).__name__
        raise CheckpointError(
            f"checkpoint format {found!r} does not match "
            f"{CHECKPOINT_FORMAT_VERSION}")
    try:
        workload = pickle.loads(payload["workload"])
        return _StateUnpickler(io.BytesIO(payload["state"]),
                               workload).load()
    except CheckpointError:
        raise
    except Exception as err:
        raise CheckpointError(
            f"corrupt checkpoint: {type(err).__name__}: {err}") from err


def save_checkpoint(system, path: str) -> None:
    """Atomically write ``system``'s checkpoint to ``path``."""
    blob = snapshot_system(system)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_checkpoint(path: str):
    """Load a checkpoint written by ``save_checkpoint``."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: "
                              f"{err}") from err
    return restore_system(blob)


def run_with_checkpoints(system, path: str, interval: int,
                         max_cycles: int = 50_000_000,
                         stop_flag: Optional[str] = None) -> int:
    """Run ``system`` to completion, refreshing a rolling checkpoint at
    ``path`` every ``interval`` simulated cycles; returns total cycles.

    The checkpoint always reflects a clean cycle boundary, so a process
    killed at any wall-clock moment can resume from ``path`` and finish
    with bit-identical statistics.

    ``stop_flag`` is the cooperative-drain hook used by the job service
    (``repro.service``): when a file exists at that path, the loop
    returns at the next checkpoint boundary *after* writing the rolling
    checkpoint, leaving ``system.done`` false.  The caller decides what
    a drained, checkpointed, unfinished system means — the service
    re-queues the job and a later attempt (possibly in a fresh process)
    resumes from ``path`` bit-identically.
    """
    if interval < 1:
        raise CheckpointError(f"checkpoint interval must be >= 1, "
                              f"not {interval}")
    while not system.done:
        system.run(max_cycles, stop_cycle=system.cycles + interval)
        if not system.done:
            save_checkpoint(system, path)
            if stop_flag is not None and os.path.exists(stop_flag):
                break
    return system.cycles
