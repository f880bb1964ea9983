"""Runtime invariant sanitizer for the live simulator.

Enabled with ``SystemConfig(sanitize=True)``.  ``System`` then builds one
:class:`Sanitizer` and attaches it; the sanitizer wraps a handful of
instance methods on the memory system, the cores, and the pinning
controllers, re-verifying on every event the invariants the Pinned Loads
security argument rests on:

* **pin-safety** — a pinned line is never the target of a completed
  remote invalidation or eviction (L1 victim, inclusive back-invalidation,
  or remote ``Inv``/``Inv*``); this is the paper's §5.1.1/§5.1.3 theorem.
* **pin balance** — ``_pin``/``_unpin`` pair up exactly per ROB entry, and
  the controller's per-line refcounts always sum to ``pinned_total``.
* **pin order** — a load is only pinned after every older load in the LQ
  is already MCV-safe (the strict program-order chain of §5).
* **EP capacity** — under Early Pinning the ground-truth pinned lines per
  L1 set never exceed the associativity, and per directory set never
  exceed ``W_d`` (the guarantee the CSTs exist to provide, §5.1.4).
* **write-buffer precondition** — ``_write_buffer_ok`` holds at the
  moment of every pin (§5.1.2, the Figure 4 deadlock condition).
* **CPT occupancy** — a non-ideal Cannot-Pin Table never exceeds its
  capacity and its occupancy accounting never goes negative.
* **VP conditions** — whenever a load's Visibility Point is declared
  reached, the conditions of the configured threat model actually hold.
* **callback discipline** — every ``on_complete`` callback handed to the
  memory system fires at most once; unfired callbacks at end of run are
  tallied (in-flight fills of squashed wrong-path loads are legal).

A violation raises :class:`repro.common.errors.InvariantViolation`
carrying the suffix of the sanitizer's event trace, so the failing
interleaving can be reconstructed.

The instrumentation is instance-attribute wrapping plus one per-tick
hook (``check_tick``) that the run loop calls after every tick of a
sanitized system, which it then never fast-forwards.  Nothing on the
hot path changes when ``sanitize`` is off (see
``benchmarks/test_sanitizer_overhead.py`` for the measured cost when on).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from repro.common.errors import InvariantViolation
from repro.common.params import PinningMode, ThreatModel
from repro.common.stats import StatSet

#: Length of the retained event-trace suffix attached to violations.
TRACE_DEPTH = 64


class Sanitizer:
    """Per-system invariant checker; see the module docstring."""

    def __init__(self, system) -> None:
        self.system = system
        self.config = system.config
        self.stats = StatSet()
        self.trace: Deque[Tuple[int, str]] = deque(maxlen=TRACE_DEPTH)
        self._pin_depth: Dict[int, int] = {}    # id(entry) -> pin count
        self._callbacks_live = 0

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _record(self, what: str) -> None:
        self.trace.append((self.system.events.now, what))
        self.stats.bump("events_checked")

    def _fail(self, invariant: str, detail: str) -> None:
        raise InvariantViolation(
            invariant, detail, cycle=self.system.events.now,
            trace=[f"@{cycle}: {what}" for cycle, what in self.trace])

    def attach(self) -> None:
        """Wrap the instrumented instance methods.  Idempotence is not
        needed: ``System`` calls this exactly once at construction."""
        mem = self.system.mem
        self._wrap_mem(mem)
        for core in self.system.cores:
            self._wrap_core(core)

    def attach_chaos(self, chaos) -> None:
        """Record injected faults in the event trace (``System`` calls
        this when a chaos engine is installed *after* ``attach``).  A
        pin-safety violation under fault injection then shows the
        provoking fault right next to the offending eviction — which is
        also how the campaign's ``evict-pinned`` mutant self-test proves
        the sanitizer is actually watching the forced-eviction path."""
        orig_l1 = chaos._force_l1_eviction
        orig_llc = chaos._force_llc_eviction
        orig_spike = chaos._wb_spike_start

        def force_l1_eviction():
            self._record("chaos force-evict L1")
            return orig_l1()

        def force_llc_eviction():
            self._record("chaos force-evict LLC")
            return orig_llc()

        def wb_spike_start():
            self._record("chaos wb-spike")
            return orig_spike()

        chaos._force_l1_eviction = force_l1_eviction
        chaos._force_llc_eviction = force_llc_eviction
        chaos._wb_spike_start = wb_spike_start

    def finish(self) -> None:
        """End-of-run accounting (no violations raised here)."""
        self.stats.set("callbacks_unfired", self._callbacks_live)

    # ------------------------------------------------------------------
    # Memory-system instrumentation
    # ------------------------------------------------------------------

    def _pinner_of(self, core_id: int, line: int) -> bool:
        controller = self.system.cores[core_id].controller
        return line in controller._pinned_counts

    def _wrap_mem(self, mem) -> None:
        orig_inv = mem._remote_invalidate
        orig_evict = mem._evict_l1
        orig_load = mem.load
        orig_store = mem.store

        def remote_invalidate(core_id, line, dir_entry):
            self._record(f"inv core={core_id} line={line:#x}")
            if self._pinner_of(core_id, line):
                self._fail(
                    "pin-safety",
                    f"remote invalidation of line {line:#x} reached core "
                    f"{core_id} while that core pins it (a pinned sharer "
                    f"must answer Defer)")
            return orig_inv(core_id, line, dir_entry)

        def evict_l1(core_id, victim):
            self._record(f"evict core={core_id} line={victim:#x}")
            if self._pinner_of(core_id, victim):
                self._fail(
                    "pin-safety",
                    f"L1 eviction of line {victim:#x} on core {core_id} "
                    f"while that core pins it (victim selection must "
                    f"skip pinned lines)")
            return orig_evict(core_id, victim)

        def load(core_id, line, on_complete):
            self._record(f"load core={core_id} line={line:#x}")
            return orig_load(core_id, line,
                             self._guard_callback(on_complete,
                                                  f"load {line:#x} of "
                                                  f"core {core_id}"))

        def store(core_id, line, on_complete):
            self._record(f"store core={core_id} line={line:#x}")
            return orig_store(core_id, line,
                              self._guard_callback(on_complete,
                                                   f"store {line:#x} of "
                                                   f"core {core_id}"))

        mem._remote_invalidate = remote_invalidate
        mem._evict_l1 = evict_l1
        mem.load = load
        mem.store = store

    def _guard_callback(self, on_complete, label: str):
        fired = [False]
        self._callbacks_live += 1

        def guarded(cycle: int) -> None:
            if fired[0]:
                self._fail(
                    "callback-once",
                    f"on_complete of {label} fired a second time")
            fired[0] = True
            self._callbacks_live -= 1
            on_complete(cycle)

        return guarded

    # ------------------------------------------------------------------
    # Core / controller instrumentation
    # ------------------------------------------------------------------

    def _wrap_core(self, core) -> None:
        controller = core.controller
        orig_pin = controller._pin
        orig_unpin = controller._unpin
        orig_on_inval = core.on_invalidation
        orig_on_evicted = core.on_line_evicted
        orig_note_vp = core.note_vp_reached
        orig_cpt_insert = controller.cpt.insert
        orig_cpt_remove = controller.cpt.remove
        cpt = controller.cpt

        def on_invalidation(line):
            if line in controller._pinned_counts:
                self._fail(
                    "pin-safety",
                    f"core {core.core_id} lost its copy of pinned line "
                    f"{line:#x} to an invalidation")
            return orig_on_inval(line)

        def on_line_evicted(line):
            if line in controller._pinned_counts:
                self._fail(
                    "pin-safety",
                    f"core {core.core_id} lost its copy of pinned line "
                    f"{line:#x} to an eviction")
            return orig_on_evicted(line)

        def pin(entry):
            self._record(f"pin core={core.core_id} idx={entry.index} "
                         f"line={entry.line:#x}")
            self._check_pin_preconditions(core, controller, entry)
            depth = self._pin_depth.get(id(entry), 0)
            if depth != 0 or entry.pinned:
                self._fail(
                    "pin-balance",
                    f"load #{entry.index} of core {core.core_id} pinned "
                    f"twice without an intervening unpin")
            self._pin_depth[id(entry)] = 1
            result = orig_pin(entry)
            self._check_pin_capacity(core, controller, entry)
            return result

        def unpin(entry):
            self._record(f"unpin core={core.core_id} idx={entry.index} "
                         f"line={entry.line:#x}")
            if self._pin_depth.pop(id(entry), 0) != 1 or not entry.pinned:
                self._fail(
                    "pin-balance",
                    f"unpin of load #{entry.index} on core "
                    f"{core.core_id} without a matching pin")
            result = orig_unpin(entry)
            self._check_pin_accounting(core, controller)
            return result

        def note_vp_reached(entry):
            fresh = entry.vp_cycle is None
            if fresh and entry.line is not None:
                self._record(f"vp core={core.core_id} idx={entry.index}")
                self._check_vp_conditions(core, entry)
            return orig_note_vp(entry)

        def cpt_insert(line, writer=None):
            self._record(f"cpt+ core={core.core_id} line={line:#x}")
            result = orig_cpt_insert(line, writer=writer)
            self._check_cpt(core, cpt)
            return result

        def cpt_remove(line):
            self._record(f"cpt- core={core.core_id} line={line:#x}")
            result = orig_cpt_remove(line)
            self._check_cpt(core, cpt)
            return result

        core.on_invalidation = on_invalidation
        core.on_line_evicted = on_line_evicted
        core.note_vp_reached = note_vp_reached
        controller._pin = pin
        controller._unpin = unpin
        controller.cpt.insert = cpt_insert
        controller.cpt.remove = cpt_remove

    # ------------------------------------------------------------------
    # The checks themselves
    # ------------------------------------------------------------------

    def _check_pin_preconditions(self, core, controller, entry) -> None:
        for older in core.lq:
            if older.index >= entry.index:
                break
            if not older.squashed and not older.mcv_safe:
                self._fail(
                    "pin-order",
                    f"core {core.core_id} pins load #{entry.index} while "
                    f"older load #{older.index} is not yet MCV-safe")
        if not controller._write_buffer_ok(entry):
            self._fail(
                "pin-wb",
                f"core {core.core_id} pins load #{entry.index} although "
                f"the yet-to-complete older stores overflow the write "
                f"buffer (Figure 4 deadlock window)")

    def _check_pin_capacity(self, core, controller, entry) -> None:
        """EP only: the CSTs must have kept ground-truth occupancy within
        the real structures' capacity (§5.1.4)."""
        params = self.config.pinning
        if params.mode is not PinningMode.EARLY or params.infinite_cst:
            return
        mem = core.mem
        line = entry.line
        l1_set = mem.l1_set_of(line)
        pinned_in_set = controller._l1_set_lines.get(l1_set, ())
        if len(pinned_in_set) > self.config.l1d.ways:
            self._fail(
                "cst-capacity",
                f"core {core.core_id} pins {len(pinned_in_set)} lines in "
                f"L1 set {l1_set} but the set only has "
                f"{self.config.l1d.ways} ways")
        dir_key = mem.slice_and_set_of(line)
        pinned_in_dir = controller._dir_set_lines.get(dir_key, ())
        if len(pinned_in_dir) > params.w_d:
            self._fail(
                "cst-capacity",
                f"core {core.core_id} pins {len(pinned_in_dir)} lines in "
                f"directory set {dir_key} but only W_d={params.w_d} are "
                f"reserved per core")

    def _check_pin_accounting(self, core, controller) -> None:
        counts = controller._pinned_counts
        if any(count <= 0 for count in counts.values()) \
                or controller.pinned_total != sum(counts.values()) \
                or controller.pinned_total < 0:
            self._fail(
                "pin-accounting",
                f"core {core.core_id} pin refcounts are inconsistent: "
                f"total={controller.pinned_total} counts={dict(counts)}")

    def _check_cpt(self, core, cpt) -> None:
        if not cpt.ideal and len(cpt) > cpt.capacity:
            self._fail(
                "cpt-occupancy",
                f"core {core.core_id} CPT holds {len(cpt)} lines, over "
                f"its capacity of {cpt.capacity}")
        if cpt._occupancy_sum < 0 or len(cpt) < 0:
            self._fail(
                "cpt-occupancy",
                f"core {core.core_id} CPT occupancy accounting went "
                f"negative")

    def _check_vp_conditions(self, core, entry) -> None:
        """Re-verify the declared Visibility Point against ground truth."""
        vp = core.vp_state
        index = entry.index
        level = self.config.threat_model.level
        if not entry.addr_ready:
            self._fail("vp-conditions",
                       f"load #{index} reached its VP before its own "
                       f"address was generated")
        if entry.forwarded:
            return      # store-forwarded loads never read a cache line
        if not vp.unresolved_branches.none_below(index):
            self._fail("vp-conditions",
                       f"load #{index} reached its VP under an "
                       f"unresolved older branch")
        if level >= ThreatModel.ALIAS.level \
                and not vp.unknown_addr_stores.none_below(index):
            self._fail("vp-conditions",
                       f"load #{index} reached its VP inside the "
                       f"aliasing window of an older store")
        if level >= ThreatModel.EXCEPT.level \
                and not vp.unknown_addr_memops.none_below(index):
            self._fail("vp-conditions",
                       f"load #{index} reached its VP inside the "
                       f"exception window of an older memory op")
        if level >= ThreatModel.MCV.level \
                and not self._mcv_condition_ok(core, entry):
            self._fail("vp-conditions",
                       f"load #{index} reached its VP without being "
                       f"MCV-safe")

    def _mcv_condition_ok(self, core, entry) -> bool:
        if entry.mcv_safe:
            return True
        vp = core.vp_state
        if vp.unretired_loads.none_below(entry.index) \
                or core.rob.is_head(entry):
            return True     # oldest-load exemption / conservative head
        if self.config.pinning.mode is not PinningMode.NONE:
            # Late Pinning authorization: the VP passes downstream before
            # the pin lands, but only with every older load already safe
            return all(older.mcv_safe or older.squashed
                       for older in core.lq
                       if older.index < entry.index)
        return False

    def check_tick(self, core) -> None:
        """Per-tick invariants; the run loop (``repro.sim.engine``)
        calls this after every tick of every live core."""
        controller = core.controller
        if len(core.write_buffer) > core.write_buffer.capacity:
            self._fail(
                "write-buffer-bound",
                f"core {core.core_id} write buffer holds "
                f"{len(core.write_buffer)} entries, over its capacity of "
                f"{core.write_buffer.capacity}")
        counts = controller._pinned_counts
        if controller.pinned_total != sum(counts.values()):
            self._fail(
                "pin-accounting",
                f"core {core.core_id} pinned_total="
                f"{controller.pinned_total} disagrees with refcounts "
                f"{dict(counts)}")
        self._check_cpt(core, controller.cpt)
