"""The Pinned Loads controller: Late and Early Pinning (paper §5).

The controller walks the load queue in program order each cycle and tries
to make the first not-yet-MCV-safe load safe.  A load becomes MCV-safe by:

* the oldest-load exemption — under the aggressive TSO implementation the
  oldest load in the ROB can never be MCV-squashed (§3.3), so it passes the
  VP downstream without consuming pin resources;
* **pinning** — guaranteeing its line can be neither invalidated (deferral,
  §5.1.1) nor evicted (denial, §5.1.3) until retirement.

A load may be pinned only if (paper invariants):

1. it has met every VP condition except no-MCV (branches resolved, no
   aliasing window, no exception risk, own address generated);
2. all older loads are already MCV-safe (strict program-order pinning);
3. no older MFENCE / LOCK / barrier is in flight;
4. the write buffer can hold every yet-to-complete older store (§5.1.2);
5. its line is not in the Cannot-Pin Table, and the CPT has not overflowed;
6. *Early Pinning only*: the L1 CST and the directory/LLC CST both grant
   space (§5.1.4) — then the load is pinned even before issuing;
7. *Late Pinning only*: the load's data response has arrived, proving the
   caches had space (§5.2.1).

LQ IDs are allocated from a wide tag (24 bits by default); on wraparound
the controller drains — stops pinning until every pinned load retires —
then clears the CSTs and restarts (§6.2).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.common.params import PinningMode
from repro.common.stats import StatSet
from repro.core.rob import FLAG_MCV_SAFE, ROBEntry
from repro.pinning.cpt import CannotPinTable
from repro.pinning.cst import CacheShadowTable
from repro.pinning.recording import L1TagPinRecord

#: "No live value" sentinel for hoisted LazyMinSet mins (above any index).
_NO_MIN = 1 << 62


class PinnedLoadsController:
    """Per-core pinning logic shared by the LP and EP designs.

    Quiet/wakeup contract (the engine's quiet bound,
    ``repro.sim.engine._make_quiet``): ``tick`` is a pure
    function of state that only changes through event-mediated or
    flagged transitions — coherence messages (CPT inserts/clears,
    invalidations), fills (LP data arrival), retires and squashes
    (releases, write-buffer and serializing windows), and dispatches
    (LQ ID allocation).  Every one of those re-arms the core's
    ``_wake_pending`` flag, so the optimized run loop may skip the
    controller's tick whenever the flag is clear: rerunning the pin
    chain on unchanged state denies the same load for the same reason
    and pins nothing.  Denial statistics are therefore counted per
    *episode* — once per (load, reason) — never per retry tick, so they
    are identical whether the chain reruns every cycle (the reference
    loop) or only on wakeups (the engine).
    """

    # "__dict__" stays in the slots: the opt-in invariant sanitizer
    # shadows ``_pin``/``_unpin`` on the instance
    __slots__ = (
        "core", "config", "params", "mode", "stats", "cpt",
        "l1_tag_record", "_lq_id_limit", "_next_lq_id", "_live_lq",
        "_draining", "_pinned_counts", "pinned_total", "_l1_set_lines",
        "_dir_set_lines", "_cst_denied_seen", "_denied_reasons",
        "l1_cst", "dir_cst", "__dict__",
    )

    def __init__(self, core) -> None:
        self.core = core
        self.config = core.config
        self.params = core.config.pinning
        self.mode: PinningMode = self.params.mode
        self.stats = StatSet()
        self.cpt = CannotPinTable(
            self.params.cpt_entries, ideal=self.params.ideal_cpt,
            reservation_queue=self.params.cpt_reservation_queue)
        self.l1_tag_record = (L1TagPinRecord()
                              if self.params.pin_record == "l1tag" else None)
        self._lq_id_limit = 1 << self.params.lq_id_tag_bits
        self._next_lq_id = 0
        self._live_lq: Dict[int, ROBEntry] = {}
        self._draining = False
        self._pinned_counts: Dict[int, int] = {}
        self.pinned_total = 0
        # ground truth for CST false-positive accounting (§9.2.1)
        self._l1_set_lines: Dict[int, Set[int]] = {}
        self._dir_set_lines: Dict[Tuple[int, int], Set[int]] = {}
        # loads whose CST denial was already counted (a denied pin retries
        # every cycle; stats count denial *episodes*, not retries)
        self._cst_denied_seen: Set[int] = set()
        # same episode rule for the pin-chain denial reasons, keyed by
        # LQ ID: retry counts would depend on how often the chain runs,
        # which the optimized loop deliberately reduces
        self._denied_reasons: Dict[int, Set[str]] = {}
        self.l1_cst = CacheShadowTable(
            self.params.l1_cst_entries, self.params.l1_cst_records,
            self._live_line_of, infinite=self.params.infinite_cst)
        self.dir_cst = CacheShadowTable(
            self.params.dir_cst_entries, self.params.dir_cst_records,
            self._live_line_of, infinite=self.params.infinite_cst)

    # ------------------------------------------------------------------
    # LQ ID management (wide tag + wraparound drain)
    # ------------------------------------------------------------------

    def _live_line_of(self, lq_id: int) -> Optional[int]:
        """CST staleness check: line pinned under this LQ ID, or None."""
        entry = self._live_lq.get(lq_id)
        if entry is None or not entry.pinned:
            return None
        return entry.line

    def on_load_dispatch(self, entry: ROBEntry) -> None:
        if self.mode is PinningMode.NONE:
            return
        if self._next_lq_id >= self._lq_id_limit:
            self._draining = True
            self.stats.bump("lq_id_wraparounds")
            self._next_lq_id = 0
        while self._next_lq_id in self._live_lq:
            self._next_lq_id += 1
        entry.lq_id = self._next_lq_id
        self._live_lq[self._next_lq_id] = entry
        self._next_lq_id += 1

    def _release(self, entry: ROBEntry) -> None:
        lq_id = entry.lq_id
        if lq_id is not None:
            self._live_lq.pop(lq_id, None)
            self._cst_denied_seen.discard(lq_id)
            self._denied_reasons.pop(lq_id, None)
        if entry.pinned:
            self._unpin(entry)

    def on_load_retire(self, entry: ROBEntry) -> None:
        self._release(entry)

    def on_load_squash(self, entry: ROBEntry) -> None:
        if entry.pinned:
            # a pinned load is unsquashable by construction; this counter
            # must stay at zero (asserted by the test suite)
            self.stats.bump("pinned_squashed")
        self._release(entry)

    # ------------------------------------------------------------------
    # Pin/unpin bookkeeping
    # ------------------------------------------------------------------

    def has_pinned(self, line: int) -> bool:
        return line in self._pinned_counts

    def _pin(self, entry: ROBEntry) -> None:
        line = entry.line
        entry.pinned = True
        entry.mcv_safe = True
        count = self._pinned_counts.get(line, 0)
        self._pinned_counts[line] = count + 1
        self.pinned_total += 1
        self.stats.bump("pins")
        if self.l1_tag_record is not None:
            in_l1 = self.core.mem.l1_hit(self.core.core_id, line)
            self.l1_tag_record.on_pin(line, entry.lq_id, line_in_l1=in_l1)
        if count == 0:
            mem = self.core.mem
            self._l1_set_lines.setdefault(mem.l1_set_of(line), set()).add(line)
            self._dir_set_lines.setdefault(mem.slice_and_set_of(line),
                                           set()).add(line)
        self.core.note_vp_reached(entry)

    def _unpin(self, entry: ROBEntry) -> None:
        line = entry.line
        entry.pinned = False
        if self.l1_tag_record is not None:
            self.l1_tag_record.on_unpin(line, entry.lq_id)
        remaining = self._pinned_counts.get(line, 0) - 1
        self.pinned_total -= 1
        if remaining <= 0:
            self._pinned_counts.pop(line, None)
            mem = self.core.mem
            lines = self._l1_set_lines.get(mem.l1_set_of(line))
            if lines is not None:
                lines.discard(line)
            lines = self._dir_set_lines.get(mem.slice_and_set_of(line))
            if lines is not None:
                lines.discard(line)
        else:
            self._pinned_counts[line] = remaining

    # ------------------------------------------------------------------
    # Per-cycle pin chain
    # ------------------------------------------------------------------

    def tick(self) -> None:
        if self.mode is PinningMode.NONE:
            return
        if self._draining:
            if self.pinned_total == 0:
                self._draining = False
                self.l1_cst.clear()
                self.dir_cst.clear()
            else:
                return
        lq = self.core.lq
        if lq._tail == lq._head:
            return
        # The pin chain never mutates the VP condition sets (it marks
        # ``mcv_safe``/``vp_cycle`` and touches CST/CPT state only), so
        # each set's min is read once per chain run instead of once per
        # ``none_below`` probe per load.  The pre-MCV conditions
        # (branches + alias + exception windows, per
        # ``conditions_before_mcv`` at the EXCEPT level) merge into one
        # bound: they are all side-effect-free index compares.
        vp = self.core.vp_state
        m = vp.unresolved_branches.min()
        bound = m if m is not None else _NO_MIN
        m = vp.unknown_addr_stores.min()
        if m is not None and m < bound:
            bound = m
        m = vp.unknown_addr_memops.min()
        if m is not None and m < bound:
            bound = m
        m = vp.serializing.min()
        ser_bound = m if m is not None else _NO_MIN
        m = vp.unretired_loads.min()
        url_bound = m if m is not None else _NO_MIN
        ring = lq._ring
        qmask = lq._qmask
        for pos in range(lq._head, lq._tail):
            load = ring[pos & qmask]
            if load.cols.flags[load.slot] & FLAG_MCV_SAFE:
                continue
            if not self._try_make_safe(load, bound, ser_bound, url_bound):
                break

    def _try_make_safe(self, load: ROBEntry, bound: int, ser_bound: int,
                       url_bound: int) -> bool:
        """Try to make the first non-safe load MCV-safe.  Returns True when
        the chain may continue to the next (younger) load this cycle.
        The bounds are the chain-constant set mins hoisted by ``tick``
        (``_NO_MIN`` when the set is empty)."""
        # forwarded loads never read a cache line: trivially MCV-safe
        if load.forwarded and load.performed:
            load.mcv_safe = True
            self.core.note_vp_reached(load)
            return True
        index = load.index
        if not load.addr_ready or bound < index:
            return False
        if ser_bound < index:
            self._deny(load, "pin_denied_serializing")
            return False
        # oldest-load exemption: no pin resources needed (§3.3)
        if self.params.aggressive_tso and url_bound >= index:
            load.mcv_safe = True
            self.stats.bump("oldest_exemptions")
            self.core.note_vp_reached(load)
            return True
        if self.cpt.pinning_blocked:
            self._deny(load, "pin_denied_cpt_blocked")
            return False
        if load.line in self.cpt:
            self._deny(load, "pin_denied_cpt")
            return False
        if not self._write_buffer_ok(load):
            self._deny(load, "pin_denied_wb")
            return False
        if self.mode is PinningMode.EARLY:
            return self._early_pin(load)
        return self._late_pin(load)

    def _deny(self, load: ROBEntry, reason: str) -> None:
        """Count a pin-chain denial once per (load, reason) episode.  A
        denied pin retries on every chain run; how often the chain runs
        is a property of the run *loop* (every cycle under the reference
        loop, wakeups only under the optimized one), so per-retry counts
        would not be loop-invariant."""
        reasons = self._denied_reasons.setdefault(load.lq_id, set())
        if reason not in reasons:
            reasons.add(reason)
            self.stats.bump(reason)

    def _write_buffer_ok(self, load: ROBEntry) -> bool:
        """§5.1.2: every yet-to-complete store older than the load must fit
        in the write buffer, or the Figure 4 deadlock becomes possible.
        The SQ is program-ordered, so the older-store count stops at the
        first younger store."""
        index = load.index
        older_sq_stores = 0
        for store in self.core.sq:
            if store.index >= index:
                break
            older_sq_stores += 1
        write_buffer = self.core.write_buffer
        return older_sq_stores + len(write_buffer._entries) \
            <= write_buffer.capacity

    # -- Early Pinning -------------------------------------------------

    def _early_pin(self, load: ROBEntry) -> bool:
        line = load.line
        mem = self.core.mem
        l1_set = mem.l1_set_of(line)
        slice_id, dir_set = mem.slice_and_set_of(line)
        # linear placement keys: regular set strides rotate uniformly
        # through the CST entries (see cst._hash_key)
        dir_key = dir_set * self.config.num_slices + slice_id
        if not self.l1_cst.try_pin(line, l1_set, load.lq_id):
            self._account_false_positive(
                load, "l1", self._l1_set_lines.get(l1_set, ()), line,
                self.config.l1d.ways)
            return False
        if not self.dir_cst.try_pin(line, dir_key, load.lq_id):
            self.l1_cst.cancel(line, l1_set, load.lq_id)
            self._account_false_positive(
                load, "dir", self._dir_set_lines.get((slice_id, dir_set),
                                                     ()),
                line, self.params.w_d)
            return False
        self._cst_denied_seen.discard(load.lq_id)
        self.stats.bump("cst_pin_episodes")
        self._pin(load)
        return True

    def _account_false_positive(self, load: ROBEntry, which: str,
                                pinned_lines, line: int,
                                capacity: int) -> None:
        """A CST denial is a false positive when the real structure still
        has room (or already holds the line) — §9.2.1's metric.  Counted
        once per denial episode (a denied pin retries every cycle)."""
        if load.lq_id in self._cst_denied_seen:
            return
        self._cst_denied_seen.add(load.lq_id)
        self.stats.bump(f"cst_{which}_denials")
        if line in pinned_lines or len(pinned_lines) < capacity:
            self.stats.bump(f"cst_{which}_false_positives")

    # -- Late Pinning ----------------------------------------------------

    def _late_pin(self, load: ROBEntry) -> bool:
        if load.performed:
            # e.g. the load already executed speculatively under DOM/STT;
            # its line is still resident (else it would have been squashed)
            self._pin(load)
            return True
        if load.parked:
            # data arrived but pinning failed then; retried in lp_retry()
            return False
        if load.outstanding:
            return False
        if not load.addr_ready or load.issued:
            return False
        # authorize the issue; the pin happens on data arrival
        self.core.issue_load_for_pinning(load)
        return False

    def on_pinned_fill(self, load: ROBEntry) -> None:
        """An already-pinned load's data arrived: in the §6.1.2 design the
        MSHR's Pinned bit is copied into the L1 tag."""
        if self.l1_tag_record is not None:
            self.l1_tag_record.on_fill(load.line)

    def lp_data_arrived(self, load: ROBEntry) -> bool:
        """A Late-Pinning-authorized load's data arrived.  Pin it if the
        CPT still allows; otherwise the core parks the load (the data is in
        the L1 but is not consumed until the pin succeeds)."""
        if self._draining or self.cpt.pinning_blocked \
                or load.line in self.cpt:
            self.stats.bump("lp_pin_deferred_on_arrival")
            return False
        self._pin(load)
        return True

    # ------------------------------------------------------------------
    # CorePort delegation
    # ------------------------------------------------------------------

    def cpt_insert(self, line: int, writer: Optional[int] = None) -> None:
        self.cpt.insert(line, writer=writer)

    def cpt_clear(self, line: int) -> None:
        self.cpt.remove(line)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def false_positive_rate(self, which: str) -> float:
        """False-positive denial episodes per pin episode (§9.2.1)."""
        episodes = (self.stats["cst_pin_episodes"]
                    + self.stats["cst_l1_denials"]
                    + self.stats["cst_dir_denials"])
        if not episodes:
            return 0.0
        return self.stats[f"cst_{which}_false_positives"] / episodes
