"""System assembly; ``run`` drives the engine (``repro.sim.engine``) and
``run_reference`` is the frozen oracle loop it is checked against."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.common.errors import ConfigError, DeadlockError
from repro.common.events import EventQueue
from repro.common.params import SystemConfig
from repro.core.pipeline import Core, RetireProgress
from repro.isa.trace import Workload
from repro.mem.coherence import CoherentMemory


class BarrierManager:
    """Global rendezvous for BARRIER uops in multithreaded workloads.

    A barrier releases once every participating core has arrived; arrival
    happens when the barrier uop reaches the head of its core's ROB, so a
    released barrier can never be squashed.  A released barrier's arrival
    set is dropped immediately — only the (tiny) set of released ids is
    retained for the rest of the run, so memory stays bounded by the
    number of *distinct* barriers, not by arrivals.

    A release re-arms every core's ``_wake_pending`` flag: the release
    happens synchronously inside the *last* arriving core's retire stage
    (not through the event queue), so it is exactly the kind of
    cross-core mutation the quiet/wakeup contract requires to be
    flagged.  The multi-core run loop relies on this to skip ticks of
    cores parked on a notified barrier (``repro.sim.engine``); under
    ``run_reference`` the extra wake is inert.
    """

    __slots__ = ("num_cores", "_arrived", "_released", "_cores")

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self._arrived: Dict[int, Set[int]] = {}
        self._released: Set[int] = set()
        self._cores: List[Core] = []   # backref, set by System.__init__

    def arrive(self, barrier_id: int, core_id: int) -> None:
        if barrier_id in self._released:
            return
        arrived = self._arrived.setdefault(barrier_id, set())
        arrived.add(core_id)
        if len(arrived) >= self.num_cores:
            self._released.add(barrier_id)
            del self._arrived[barrier_id]
            for core in self._cores:
                core._wake_pending = True

    def released(self, barrier_id: int) -> bool:
        return barrier_id in self._released


class System:
    """A configured multicore machine bound to one workload."""

    def __init__(self, config: SystemConfig, workload: Workload) -> None:
        config.validate()
        if workload.num_threads != config.num_cores:
            raise ConfigError(
                f"workload has {workload.num_threads} threads but the "
                f"system has {config.num_cores} cores")
        self.config = config
        self.workload = workload
        self.events = EventQueue()
        self.mem = CoherentMemory(config, self.events)
        self.barriers = BarrierManager(config.num_cores)
        self.progress = RetireProgress()
        self.cores: List[Core] = [
            Core(core_id, config, trace, self.mem, self.events,
                 self.barriers, progress=self.progress)
            for core_id, trace in enumerate(workload.traces)]
        self.barriers._cores = self.cores
        self.cycles = 0
        self.sanitizer: Optional["Sanitizer"] = None
        if config.sanitize:
            # deferred import: the verify subsystem is optional tooling
            from repro.verify.sanitizer import Sanitizer
            self.sanitizer = Sanitizer(self)
            self.sanitizer.attach()
        self.chaos = None
        if config.chaos is not None:
            # deferred import: fault injection is optional tooling
            from repro.chaos.engine import ChaosEngine
            self.chaos = ChaosEngine(config.chaos, self)
            if self.sanitizer is not None:
                # wrap before install so even the first scheduled fault
                # event goes through the trace-recording shims
                self.sanitizer.attach_chaos(self.chaos)
            self.chaos.install()
        # the run loop (repro.sim.engine), built by the first ``run``
        self._engine = None

    def __getstate__(self):
        # the engine is a web of closures over live component state —
        # derived, unpicklable, and cheap to recompile after a restore
        state = self.__dict__.copy()
        state.pop("_engine", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._engine = None

    def run(self, max_cycles: int = 50_000_000,
            stop_cycle: Optional[int] = None) -> int:
        """Run to completion of every trace; returns the cycle reached.

        ``stop_cycle`` pauses the run once that cycle has been simulated
        (instead of running to completion) so a checkpoint can be taken
        (``repro.sim.checkpoint``); calling ``run`` again resumes from
        ``self.cycles`` and the stitched run is bit-identical to an
        uninterrupted one.

        Every configuration runs on the specialized engine
        (``repro.sim.engine``), built on the first call; it is bit-exact
        against ``run_reference`` (asserted by the tests and by every
        ``repro bench`` hot-loop cell).
        """
        if self._engine is None:
            from repro.sim.engine import build_engine
            self._engine = build_engine(self)
        cycle = self._engine.run(max_cycles, stop_cycle)
        if self.sanitizer is not None and self.done:
            self.sanitizer.finish()
        return cycle

    def run_reference(self, max_cycles: int = 50_000_000) -> int:
        """The unoptimized run loop: full per-cycle core scan, O(cores)
        retired summation, and unguarded per-stage calls via
        ``Core.tick_reference``.  Kept as the validation baseline for the
        engine behind ``run`` — same simulated behaviour, measurably
        slower (``python -m repro bench`` reports the ratio)."""
        cycle = 0
        last_progress_cycle = 0
        last_retired = -1
        deadlock_window = self.config.deadlock_cycles
        cores = self.cores
        events = self.events
        while True:
            cycle += 1
            events.run_until(cycle)
            all_done = True
            for core in cores:
                if not core.done:
                    core.tick_reference(cycle)
                    if not core.done:
                        all_done = False
            if all_done:
                break
            retired = sum(core.retired for core in cores)
            if retired != last_retired:
                last_retired = retired
                last_progress_cycle = cycle
            elif cycle - last_progress_cycle > deadlock_window:
                detail = "; ".join(repr(core) for core in cores
                                   if not core.done)
                raise DeadlockError(cycle, detail,
                                    dump=self.diagnostic_dump(cycle))
            if cycle >= max_cycles:
                raise DeadlockError(cycle, "max_cycles exceeded",
                                    dump=self.diagnostic_dump(cycle))
        self.cycles = cycle
        if self.sanitizer is not None:
            self.sanitizer.finish()
        return cycle

    @property
    def total_retired(self) -> int:
        return sum(core.retired for core in self.cores)

    @property
    def done(self) -> bool:
        """Every trace has fully retired (nothing left to simulate)."""
        return all(core.done for core in self.cores)

    def diagnostic_dump(self, cycle: Optional[int] = None) -> Dict:
        """Structured snapshot of the stuck (or paused) machine, attached
        to ``DeadlockError`` so postmortems don't need a rerun: per-core
        ROB head and oldest-load state, the earliest pending events, and
        pin/CPT occupancy (inside each core's ``debug_state``)."""
        return {
            "cycle": self.cycles if cycle is None else cycle,
            "retired_total": self.total_retired,
            "pending_events": self.events.pending_summary(),
            "busy_lines": [hex(line)
                           for line in sorted(self.mem._busy_lines)],
            "cores": [core.debug_state() for core in self.cores],
        }
