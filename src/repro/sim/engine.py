"""The production run loop: per-core specialized closures over
struct-of-arrays core state.

``System.run`` always runs here.  ``build_engine`` compiles each core's
trace once (``repro.isa.compiled``) and closes a dedicated ``tick`` /
``quiet_until`` pair over the core's hot state (``_specialize_core``):

* every scheme flag, threat-model level, latency, and capacity is bound
  once as a closure constant, so the inner loop carries no per-cycle
  attribute/property chains and no per-cycle scheme dispatch;
* the mutable core state the closures chase is struct-of-arrays too
  (``repro.core.rob.ColumnState``): status/deps/VP state are ``array``
  columns indexed by ``index & mask``, the ROB window and the LQ/SQ are
  rings with O(1) head/tail arithmetic, and the ready/waiting work-lists
  are plain index lists — native int sorts, flags-read skip tests, and
  no entry-object dereference until a uop actually issues;
* the per-uop object probes on the dispatch and quiet paths
  (``uop.is_load`` property calls, ``OpClass`` identity ladders) become
  single byte-array reads indexed by the cursor the core already keeps;
* store-to-load forwarding scans the SQ ring *backward* from the tail,
  so the youngest matching store is the first hit, and the VP frontier
  is a candidate-flag column scan over the LQ ring gated by a counter;
* the pre-VP issue-mode test is inlined per defense family: fence
  (post-VP only), DOM (post-VP or L1 hit), STT (post-VP or untainted
  address), unsafe (always), instead of two virtual calls per load per
  scan — with the STT root-liveness probe reduced to window-bounds
  integer compares against the VP column.

Variants are chosen per core at build time from what the engine can
observe, never from an option:

* adversarial traces (``Trace.has_transient``) dispatch through a
  wrapper that applies the NOP-twin substitution of
  ``Core._dispatch_stage`` to the core's private copy of the trace rows;
* defenses without a specialized issue loop (invisible speculation) and
  mutated defenses (``SystemConfig.defense_mutation``) issue loads
  through the generic ``Core._issue_waiting_loads`` — the scheme hooks
  decide, so a weakened hook is always honored;
* with a sanitizer attached, every tick is followed by the sanitizer's
  per-tick check and the quiet bound is 0, so every cycle is ticked and
  checked.

Behaviour is bit-exact against the frozen ``run_reference`` oracle
(``Core.tick_reference``): same event schedule (the tie break is the
queue's insertion sequence, so the engine issues exactly the calls the
per-stage methods would), same statistics, same retire signatures.
Parity is asserted per grid cell by ``repro bench`` and by
``tests/test_soa_parity.py``, chaos on and off, sanitized, adversarial
and mutated.

Two refinements beyond a plain per-cycle tick:

* the stalled-scan skip: when every waiting load was stalled by its
  scheme (``_waiting_stalled``) and nothing re-armed the core's
  ``_wake_pending`` flag, the scan is provably a no-op (the quiet-bound
  fixpoint contract of ``_make_quiet`` — issue modes only flip via
  flagged mutations or events) and is skipped even while other stages
  stay busy;
* batched quiet-region stepping in the multi-core loop: each core
  caches its last ``quiet_until`` bound, and a core whose bound still
  covers this cycle is skipped entirely when no event fired and nothing
  re-armed its wake flag — sound because every cross-core mutation
  either arrives through the event queue (caught by the fired test) or
  re-arms the flag synchronously (coherence hooks, CPT traffic, and
  barrier releases via ``BarrierManager``).  Because all per-slot
  timing state is stored as absolute cycles in the columns, skipped
  regions need no per-slot catch-up: the clock advances in one
  arithmetic step and every column value stays valid.  This composes
  with the existing all-quiet jump (and with ``Executor`` lockstep
  batching above it).

The engine holds no simulated state of its own: everything lives in the
ordinary object model, so checkpoints, diagnostics, and the reference
loops see one world (the private NOP-twin rows are a function of the
core's resolved-mispredict set and are re-derived at build).  Engines
are rebuilt lazily after a checkpoint restore (``System.__getstate__``
drops them).
"""

from __future__ import annotations

import gc
from functools import partial
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.common.errors import DeadlockError
from repro.common.params import DefenseKind, PinningMode, ThreatModel
from repro.core.pipeline import L1_PORTS, Core
from repro.core.rob import (FLAG_ADDR_READY, FLAG_COMPLETE, FLAG_FORWARDED,
                            FLAG_INVISIBLE, FLAG_ISSUED, FLAG_MCV_SAFE,
                            FLAG_OUTSTANDING, FLAG_PARKED, FLAG_PERFORMED,
                            FLAG_VP_CAND, ROBEntry)
from repro.isa.compiled import (OP_ATOMIC, OP_BARRIER, OP_BRANCH, OP_CODES,
                                OP_FENCE, OP_LOAD, OP_STORE, CompiledTrace,
                                compile_trace)

#: Defense families with a specialized issue-loads stage.  Anything else
#: (invisible speculation, outside the paper's 13-scheme grid) issues
#: through the generic ``Core._issue_waiting_loads``.
SPECIALIZED_DEFENSES = frozenset({
    DefenseKind.UNSAFE, DefenseKind.FENCE, DefenseKind.DOM, DefenseKind.STT,
})

#: Quiet bound meaning "quiet until the next event".
QUIET_FOREVER = 1 << 62

#: Sentinel for "no live value" when a LazyMinSet min is hoisted into a
#: plain integer compare (safely above any uop index).
_NO_MIN = 1 << 62

# Several closures below push heap entries directly instead of calling
# ``EventQueue.schedule_after``.  The entry layout ``(when, seq,
# callback, args)`` and the plain-int ``_seq`` post-increment replicate
# ``EventQueue.schedule`` exactly (same tie-break order, same pickled
# shape); the not-in-the-past guard is dropped because every inlined
# site schedules at ``now + latency`` with a non-negative latency.  The
# callbacks stay bound core methods / partials — never engine closures —
# so a mid-run checkpoint still pickles the heap.


def _make_issue_ready(core: Core, compiled: CompiledTrace) -> Callable[[], None]:
    """Specialized ready-uop issue: the ``_begin_execution`` opclass
    ladder collapses to one byte read, with the event callbacks and
    latencies bound as closure constants.  The ready list holds plain
    indices (squash purges its dead suffix), so the sort is a native
    int sort and the issued prefix is one slice delete."""
    cp = core.config.core
    width = cp.width
    int_lat = cp.int_latency
    fp_lat = cp.fp_latency
    branch_lat = cp.branch_exec_latency
    agen_lat = cp.agen_latency
    events = core.events
    heap = events._heap
    complete = core._complete
    on_branch = core._on_branch_resolved
    on_addr = core._on_addr_ready
    opcodes = compiled.opcodes
    handles = core._handles
    mask = core._slot_mask
    flags = core._flags

    def issue_ready() -> None:  # repro: hot
        ready = core._ready
        ready.sort()
        now = events.now       # constant within one tick
        take = width if width < len(ready) else len(ready)
        for i in range(take):
            index = ready[i]
            slot = index & mask
            entry = handles[slot]
            code = opcodes[index]
            if code <= OP_BRANCH:
                flags[slot] |= FLAG_ISSUED
                if code == OP_BRANCH:
                    when = now + branch_lat
                    callback = on_branch
                else:
                    when = now + (fp_lat if code else int_lat)
                    callback = complete
            elif code == OP_FENCE or code == OP_BARRIER:
                raise AssertionError(f"unexpected ready uop {entry}")
            else:
                # LOAD / STORE / ATOMIC: address generation only;
                # "issued" is reserved for the actual memory access
                when = now + agen_lat
                callback = on_addr
            seq = events._seq
            events._seq = seq + 1
            heappush(heap, (when, seq, callback, (entry,)))
        del ready[:take]

    return issue_ready


def _make_issue_one(core: Core) -> Callable:
    """Inlined ``Core._issue_load``: forwarding probe, stat counting and
    the memory request with the closure-hoisted collaborators.  Returns
    ``1`` when the load went to memory, ``0`` when it was forwarded, so
    the caller can batch the two stat counters per scan.

    The forwarding probe scans the SQ ring backward from the tail: the
    first older same-line address-ready store is the youngest one.

    The memory callback stays a ``partial`` over the *core's* bound
    method — never an engine closure — so a checkpoint taken with the
    fill in flight still pickles (the engine is not checkpoint state).
    """
    sq = core.sq
    sq_ring = sq._ring
    sq_qmask = sq._qmask
    flags = core._flags
    wb_lines = core.write_buffer._line_counts
    events = core.events
    heap = events._heap
    complete = core._complete
    mem_load = core.mem.load
    on_load_data = core._on_load_data
    core_id = core.core_id

    def issue_one(entry) -> int:  # repro: hot
        slot = entry.slot
        flags[slot] |= FLAG_ISSUED
        index = entry.index
        line = entry.line
        forwarding = None
        head = sq._head
        for pos in range(sq._tail - 1, head - 1, -1):
            store = sq_ring[pos & sq_qmask]
            if store.index >= index:
                continue
            if flags[store.slot] & FLAG_ADDR_READY and store.line == line:
                forwarding = store
                break
        if forwarding is None and line in wb_lines:
            forwarding = entry     # forwarded from the write buffer
        if forwarding is not None:
            flags[slot] |= FLAG_FORWARDED | FLAG_PERFORMED
            seq = events._seq
            events._seq = seq + 1
            heappush(heap, (events.now + 1, seq, complete, (entry,)))
            return 0
        flags[slot] |= FLAG_OUTSTANDING
        mem_load(core_id, line, partial(on_load_data, entry))
        return 1

    return issue_one


def _make_issue_loads(core: Core,
                      compiled: CompiledTrace) -> Callable[[], None]:
    """Specialized ``_issue_waiting_loads``: same sort / port budget /
    keep / ``_waiting_stalled`` contract as the generic stage, with the
    two-virtual-call pre-VP issue-mode test inlined per defense family,
    the issue path inlined (``_make_issue_one``), the per-load stat
    bumps batched per scan, and the keep list compacted in place.  The
    waiting list holds plain indices; squashed ones were purged, so the
    only skip test left is one flags read (already issued for
    pinning)."""
    defense = core.config.defense
    issue = _make_issue_one(core)
    stats = core.stats
    handles = core._handles
    mask = core._slot_mask
    flags = core._flags
    vp_col = core._vp_col

    if defense is DefenseKind.UNSAFE:
        def issue_loads() -> None:  # repro: hot
            wl = core._waiting_loads
            wl.sort()
            budget = L1_PORTS
            stalled_only = True
            issued = missed = 0
            w = 0
            for index in wl:
                slot = index & mask
                if flags[slot] & FLAG_ISSUED:
                    continue
                if budget:
                    budget -= 1
                    issued += 1
                    missed += issue(handles[slot])
                    continue
                stalled_only = False
                wl[w] = index
                w += 1
            del wl[w:]
            core._waiting_stalled = stalled_only
            if issued:
                if missed:
                    stats.bump("loads_issued", missed)
                if issued > missed:
                    stats.bump("loads_forwarded", issued - missed)

    elif defense is DefenseKind.FENCE:
        def issue_loads() -> None:  # repro: hot
            wl = core._waiting_loads
            wl.sort()
            budget = L1_PORTS
            stalled_only = True
            issued = missed = 0
            w = 0
            for index in wl:
                slot = index & mask
                if flags[slot] & FLAG_ISSUED:
                    continue
                if vp_col[slot] >= 0:
                    if budget:
                        budget -= 1
                        issued += 1
                        missed += issue(handles[slot])
                        continue
                    stalled_only = False
                wl[w] = index
                w += 1
            del wl[w:]
            core._waiting_stalled = stalled_only
            if issued:
                if missed:
                    stats.bump("loads_issued", missed)
                if issued > missed:
                    stats.bump("loads_forwarded", issued - missed)

    elif defense is DefenseKind.DOM:
        # inlined CoherentMemory.l1_hit -> CacheArray.lookup(touch=False):
        # a hit probe is one dict membership test per waiting load.  The
        # set list itself is hoisted, never its sets: a fill replaces an
        # element (the shared empty set) with a real one mid-run.
        l1 = core.mem.l1s[core.core_id]
        l1_mask = l1._mask
        l1_sets = l1._sets

        def issue_loads() -> None:  # repro: hot
            wl = core._waiting_loads
            wl.sort()
            budget = L1_PORTS
            stalled_only = True
            issued = missed = 0
            w = 0
            for index in wl:
                slot = index & mask
                if flags[slot] & FLAG_ISSUED:
                    continue
                entry = handles[slot]
                line = entry.line
                if vp_col[slot] >= 0 \
                        or line in l1_sets[line & l1_mask]._lines:
                    if budget:
                        budget -= 1
                        issued += 1
                        missed += issue(entry)
                        continue
                    stalled_only = False
                wl[w] = index
                w += 1
            del wl[w:]
            core._waiting_stalled = stalled_only
            if issued:
                if missed:
                    stats.bump("loads_issued", missed)
                if issued > missed:
                    stats.bump("loads_forwarded", issued - missed)

    elif defense is DefenseKind.STT:
        roots_get = core.taint._output_roots.get
        rob = core.rob
        deps_list = [u.deps for u in compiled.uops]

        def issue_loads() -> None:  # repro: hot
            wl = core._waiting_loads
            wl.sort()
            budget = L1_PORTS
            stalled_only = True
            issued = missed = 0
            w = 0
            # the ROB window is frozen during the scan (no retire or
            # dispatch can interleave), so the root-liveness bounds are
            # scan constants
            head = rob._head
            nxt = rob._next
            for index in wl:
                slot = index & mask
                if flags[slot] & FLAG_ISSUED:
                    continue
                entry = handles[slot]
                if vp_col[slot] >= 0:
                    eligible = True
                else:
                    # inlined TaintTracker.addr_tainted: is the address
                    # rooted at a live pre-VP speculative load?
                    eligible = True
                    for dep in deps_list[index]:
                        roots = roots_get(dep)
                        if roots:
                            for root in roots:
                                if head <= root < nxt \
                                        and vp_col[root & mask] < 0:
                                    eligible = False
                                    break
                            if not eligible:
                                break
                if eligible:
                    if budget:
                        budget -= 1
                        issued += 1
                        missed += issue(entry)
                        continue
                    stalled_only = False
                wl[w] = index
                w += 1
            del wl[w:]
            core._waiting_stalled = stalled_only
            if issued:
                if missed:
                    stats.bump("loads_issued", missed)
                if issued > missed:
                    stats.bump("loads_forwarded", issued - missed)

    else:  # pragma: no cover - build_engine filters these out
        raise AssertionError(f"no specialized issue loop for {defense}")

    return issue_loads


def _make_update_vps(core: Core) -> Callable[[], None]:
    """Specialized VP walk: threat-model levels and the pinning-mode
    branch become closure constants, and the candidate walk is a flags
    scan over the LQ ring gated by the core's candidate counter."""
    level = core.config.threat_model.level
    chk_alias = level >= ThreatModel.ALIAS.level
    chk_except = level >= ThreatModel.EXCEPT.level
    chk_mcv = level >= ThreatModel.MCV.level
    pinned_mode = core._pinning
    aggressive = core.config.pinning.aggressive_tso
    vp = core.vp_state
    ub_heap = vp.unresolved_branches._heap
    ub_live = vp.unresolved_branches._live
    uas_heap = vp.unknown_addr_stores._heap
    uas_live = vp.unknown_addr_stores._live
    uam_heap = vp.unknown_addr_memops._heap
    uam_live = vp.unknown_addr_memops._live
    url_heap = vp.unretired_loads._heap
    url_live = vp.unretired_loads._live
    is_head = core.rob.is_head
    note = core.note_vp_reached
    lq = core.lq
    lq_ring = lq._ring
    lq_qmask = lq._qmask
    flags = core._flags
    vp_col = core._vp_col
    counters = core.stats._counters
    # Marked-prefix skip: a load whose VP is set (``vp >= 0``) can never
    # become a candidate again in this incarnation (``_on_addr_ready``
    # only flags ``vp < 0`` loads), so the walk resumes past the
    # contiguous marked prefix it established last time.  The cache goes
    # stale only when a squash recycles ring positions behind it — every
    # squash path funnels through ``_squash_from``, which bumps the
    # ``squashed_uops`` counter, so a counter snapshot is the epoch.
    scan_state = [0, 0.0]   # [resume position, squash epoch]

    def update_vps() -> None:  # repro: hot
        if not core._vp_candidates:
            return
        # The VP condition sets only shrink at retire / resolve events,
        # never during this walk (marking a load clears its candidate
        # flag; its ``on_load_vp`` hook is a no-op or, for invisible
        # speculation, a validation request that only schedules
        # events), so each set's min is read once.  The index-bound
        # break conditions are monotone and side-effect free, so "break
        # on the first failing bound" equals "break when the index
        # passes the smallest applicable bound" — and the break may fire
        # on non-candidates too, since any later candidate has a larger
        # index.
        while ub_heap and ub_heap[0] not in ub_live:
            heappop(ub_heap)
        bound = ub_heap[0] if ub_heap else _NO_MIN
        if chk_alias:
            while uas_heap and uas_heap[0] not in uas_live:
                heappop(uas_heap)
            if uas_heap and uas_heap[0] < bound:
                bound = uas_heap[0]
        if chk_except:
            while uam_heap and uam_heap[0] not in uam_live:
                heappop(uam_heap)
            if uam_heap and uam_heap[0] < bound:
                bound = uam_heap[0]
        if chk_mcv and aggressive and not pinned_mode:
            while url_heap and url_heap[0] not in url_live:
                heappop(url_heap)
            url_bound = url_heap[0] if url_heap else _NO_MIN
        else:
            url_bound = _NO_MIN
        head = lq._head
        epoch = counters.get("squashed_uops", 0.0)
        if epoch != scan_state[1]:
            scan_state[1] = epoch
            start = head
        else:
            start = scan_state[0]
            if start < head:
                start = head
        advancing = True
        for pos in range(start, lq._tail):
            load = lq_ring[pos & lq_qmask]
            slot = load.slot
            if vp_col[slot] >= 0:
                # marked: never a candidate again this incarnation;
                # extend the skip prefix while it stays contiguous
                if advancing:
                    scan_state[0] = pos + 1
                continue
            index = load.index
            if bound < index:
                break
            f = flags[slot]
            if not f & FLAG_VP_CAND:
                advancing = False
                continue
            if chk_mcv:
                if pinned_mode:
                    if not f & FLAG_MCV_SAFE:
                        break
                elif aggressive:
                    if url_bound < index:
                        break
                elif not is_head(load):
                    break
            note(load)
            if advancing:
                scan_state[0] = pos + 1

    return update_vps


def _make_retire(core: Core, compiled: CompiledTrace) -> Callable[[], None]:
    """Specialized retire: the head-retirability ladder collapses to a
    byte compare plus one flags read for the common classes (ALU /
    branch / plain load / store); the rarer serializing classes keep the
    generic check.  Head pops on the ROB and the LQ/SQ rings are one
    list store and one integer increment each."""
    width = core.config.core.width
    rob = core.rob
    handles = core._handles
    mask = core._slot_mask
    flags = core._flags
    vp_col = core._vp_col
    opcodes = compiled.opcodes
    wb = core.write_buffer
    wb_entries = wb._entries
    wb_capacity = wb.capacity
    wb_push = wb.push
    kick_wb = core._kick_write_buffer
    may_retire = core._head_may_retire
    note = core.note_vp_reached
    lq = core.lq
    lq_ring = lq._ring
    lq_qmask = lq._qmask
    sq = core.sq
    sq_ring = sq._ring
    sq_qmask = sq._qmask
    vp = core.vp_state
    url_discard = vp.unretired_loads.discard
    ser_discard = vp.serializing.discard
    pinning = core._pinning
    on_load_retire = core.controller.on_load_retire
    progress = core._progress
    stats = core.stats

    def retire_stage() -> None:  # repro: hot
        retired = 0
        sig = core.retire_sig
        ru = core._retired_upto
        cursor = core._cursor
        while retired < width and ru < cursor:
            slot = ru & mask
            head = handles[slot]
            code = opcodes[ru]
            f = flags[slot]
            if code <= OP_BRANCH:
                if not f & FLAG_COMPLETE:
                    break
            elif code == OP_LOAD:
                if f & FLAG_INVISIBLE:
                    if not may_retire(head):
                        break
                elif not f & FLAG_COMPLETE:
                    break
            elif code == OP_STORE:
                if not f & FLAG_COMPLETE or wb.backpressure \
                        or len(wb_entries) >= wb_capacity:
                    break
            elif not may_retire(head):  # FENCE / ATOMIC / BARRIER
                break
            # --- inlined Core._retire ---
            if code == OP_LOAD:
                if vp_col[slot] < 0:
                    note(head)
                lq_slot = lq._head & lq_qmask
                if lq_ring[lq_slot] is not head:
                    raise ValueError(
                        "retiring a load that is not the LQ head")
                lq_ring[lq_slot] = None
                lq._head += 1
                url_discard(ru)
                if pinning:
                    # no-op when pinning is off: lq_id and the pinned
                    # bit are only ever set by the controller
                    on_load_retire(head)
            elif code == OP_STORE:
                sq_slot = sq._head & sq_qmask
                if sq_ring[sq_slot] is not head:
                    raise ValueError(
                        "retiring a store that is not the SQ head")
                sq_ring[sq_slot] = None
                sq._head += 1
                wb_push(head.line)
                kick_wb()
            elif code >= OP_FENCE:  # FENCE / ATOMIC / BARRIER
                ser_discard(ru)
            handles[slot] = None
            ru += 1
            sig = ((sig ^ ru) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
            retired += 1
        if retired:
            # nothing inside the loop reads the head pointers (checked:
            # note_vp_reached, the controller release path, the write
            # buffer), so the window advance is batched per stage
            rob._head = ru
            core._retired_upto = ru
            core.retire_sig = sig
            core._wake_pending = True
            core.retired_count += retired
            progress.count += retired
            stats.bump("retired", retired)

    return retire_stage


def _make_dispatch(core: Core, compiled: CompiledTrace) -> Callable[[], None]:
    """Fully inlined ``Core._dispatch_stage`` + ``Core._dispatch``: the
    trace probes are flat byte reads, the dependency walk runs on the
    CSR arrays, and ``_value_available`` / ``rob.push`` / the LQ/SQ
    allocations collapse to integer compares, one flags read, and ring
    stores.  The resulting column state, waiter registrations and
    VP-set updates are identical to the generic path's (same objects,
    same order)."""
    width = core.config.core.width
    trace_len = compiled.length
    opcodes = compiled.opcodes
    uops = compiled.uops
    # cache-line objects boxed once per engine build: every dispatch of
    # the same uop then stores the same int (or None) instead of
    # re-deriving it from ``uop.addr`` inside the ROBEntry constructor
    raw_lines = compiled.lines
    line_objs = [None if raw_lines[i] < 0 else raw_lines[i]
                 for i in range(trace_len)]
    # dep tuples boxed once: saves two attribute loads per dispatch, and
    # the empty-tuple common case (ALU results with no data operands)
    # skips iterator setup entirely
    deps_list = [u.deps for u in uops]
    data_deps_list = [u.data_deps for u in uops]
    new_entry = ROBEntry.__new__
    rob = core.rob
    cols = core._cols
    handles = core._handles
    mask = core._slot_mask
    flags = core._flags
    vp_col = core._vp_col
    pending_col = cols.pending
    pending_data_col = cols.pending_data
    lq_id_col = cols.lq_id
    complete_col = cols.complete_cycle
    dispatch_col = cols.dispatch_cycle
    rob_capacity = core._rob_capacity
    lq = core.lq
    lq_capacity = lq.capacity
    lq_ring = lq._ring
    lq_qmask = lq._qmask
    sq = core.sq
    sq_capacity = sq.capacity
    sq_ring = sq._ring
    sq_qmask = sq._qmask
    waiters = core._waiters
    data_waiters = core._data_waiters
    vp = core.vp_state
    # LazyMinSet.add inlined for the hot classes: one membership probe,
    # one set add, one heap push against the hoisted internals (both are
    # stable attributes, mutated in place everywhere)
    url_live = vp.unretired_loads._live
    url_heap = vp.unretired_loads._heap
    uas_live = vp.unknown_addr_stores._live
    uas_heap = vp.unknown_addr_stores._heap
    uam_live = vp.unknown_addr_memops._live
    uam_heap = vp.unknown_addr_memops._heap
    ubr_live = vp.unresolved_branches._live
    ubr_heap = vp.unresolved_branches._heap
    ser_add = vp.serializing.add
    pinning = core._pinning
    on_load_dispatch = core.controller.on_load_dispatch
    taint = core.taint
    # STT: TaintTracker.on_dispatch inlined below, with the all-live
    # common case (no retired/post-VP roots to drop) probed before the
    # allocating `_live_subset` filter is paid
    taint_roots = None if taint is None else taint._output_roots
    live_subset = None if taint is None else taint._live_subset
    empty_roots = frozenset()
    # singleton root sets boxed once per engine build: every (re)dispatch
    # of load ``i`` installs the same frozenset({i}) instead of
    # allocating a fresh one (frozensets are immutable, sharing is safe)
    root_sets = None if taint is None else \
        [frozenset((i,)) for i in range(trace_len)]
    stats = core.stats

    def dispatch_stage() -> None:  # repro: hot
        dispatched = 0
        cursor = core._cursor
        cycle = core.cycle
        retired_upto = core._retired_upto
        ready = core._ready
        while dispatched < width and cursor < trace_len \
                and cursor - retired_upto < rob_capacity:
            code = opcodes[cursor]
            if code == OP_LOAD:
                if lq._tail - lq._head >= lq_capacity:
                    break
            elif code == OP_STORE:
                if sq._tail - sq._head >= sq_capacity:
                    break
            # --- inlined Core._dispatch ---
            # the ROBEntry constructor (attribute stores + ColumnState
            # reset) unrolled over the hoisted columns
            uop = uops[cursor]
            slot = cursor & mask
            entry = new_entry(ROBEntry)
            entry.uop = uop
            entry.index = cursor
            entry.line = line_objs[cursor]
            entry.squashed = False
            entry.cols = cols
            entry.slot = slot
            flags[slot] = 0
            pending_col[slot] = 0
            pending_data_col[slot] = 0
            vp_col[slot] = -1
            lq_id_col[slot] = -1
            complete_col[slot] = -1
            dispatch_col[slot] = cycle
            pending = 0
            deps = deps_list[cursor]
            if deps:
                for dep in deps:
                    if dep >= retired_upto \
                            and not flags[dep & mask] & FLAG_COMPLETE:
                        dep_waiters = waiters.get(dep)
                        if dep_waiters is None:
                            # first waiter: the reference path allocates
                            # this list too (amortized, not per-cycle)
                            waiters[dep] = [entry]  # repro: allow-hot-path-allocation
                        else:
                            dep_waiters.append(entry)
                        pending += 1
                if pending:
                    pending_col[slot] = pending
            data_deps = data_deps_list[cursor]
            if data_deps:
                for dep in data_deps:
                    if dep >= retired_upto \
                            and not flags[dep & mask] & FLAG_COMPLETE:
                        dep_waiters = data_waiters.get(dep)
                        if dep_waiters is None:
                            data_waiters[dep] = [entry]  # repro: allow-hot-path-allocation
                        else:
                            dep_waiters.append(entry)
                        pending_data_col[slot] += 1
            handles[slot] = entry
            # per-uop window advance (not batched): the inlined taint
            # probes below and ``_live_subset`` read the live bounds
            rob._next = cursor + 1
            # LazyMinSet.add without the membership probe: a dispatching
            # cursor is never live — retire and ``_cleanup_squashed``
            # both discard it before the slot can host a fresh
            # incarnation (verified above; stale heap copies are handled
            # by the lazy-deletion cleanups either way)
            if code == OP_LOAD:
                lq_ring[lq._tail & lq_qmask] = entry
                lq._tail += 1
                url_live.add(cursor)
                heappush(url_heap, cursor)
                uam_live.add(cursor)
                heappush(uam_heap, cursor)
                if pinning:
                    on_load_dispatch(entry)
                if taint_roots is not None:
                    taint_roots[cursor] = root_sets[cursor]
            else:
                if code == OP_STORE:
                    sq_ring[sq._tail & sq_qmask] = entry
                    sq._tail += 1
                    uas_live.add(cursor)
                    heappush(uas_heap, cursor)
                    uam_live.add(cursor)
                    heappush(uam_heap, cursor)
                elif code == OP_BRANCH:
                    ubr_live.add(cursor)
                    heappush(ubr_heap, cursor)
                elif code == OP_ATOMIC:
                    uas_live.add(cursor)
                    heappush(uas_heap, cursor)
                    uam_live.add(cursor)
                    heappush(uam_heap, cursor)
                    ser_add(cursor)
                elif code == OP_FENCE or code == OP_BARRIER:
                    ser_add(cursor)
                if taint_roots is not None:
                    roots = empty_roots
                    for dep in deps:
                        dep_roots = taint_roots.get(dep)
                        if dep_roots:
                            for root in dep_roots:
                                if root < retired_upto \
                                        or vp_col[root & mask] >= 0:
                                    dep_roots = live_subset(dep_roots)
                                    break
                            if dep_roots:
                                roots = (dep_roots if roots is empty_roots
                                         else roots | dep_roots)
                    taint_roots[cursor] = roots
            if pending == 0 and code != OP_FENCE and code != OP_BARRIER:
                ready.append(cursor)
            cursor += 1
            dispatched += 1
        if dispatched:
            core._cursor = cursor
            core._wake_pending = True
            stats.bump("dispatched", dispatched)

    twins = core._twins
    if twins is None:
        return dispatch_stage

    # Adversarial traces: once a transient uop's guard has resolved,
    # every replay dispatches its NOP twin (``Core._dispatch_stage``).
    # The twin is written into this core's private rows (``compiled`` is
    # a ``private_copy``), which every stage reads.  Rewriting a row
    # once its guard is in the resolved set is exact: the set only
    # grows, and resolving the guard squashed every original, so no
    # live uop still reads the old row.
    unpatched = dict(twins)
    resolved = core._resolved_mispredicts
    is_load = compiled.is_load
    seen = [-1]

    def patch_twins() -> None:
        seen[0] = len(resolved)
        for index in [i for i in unpatched if uops[i].guard in resolved]:
            twin = unpatched.pop(index)
            opcodes[index] = OP_CODES[twin.opclass]
            is_load[index] = 0
            uops[index] = twin
            line_objs[index] = None
            deps_list[index] = twin.deps
            data_deps_list[index] = twin.data_deps

    patch_twins()   # a restored core may hold twins already

    def dispatch_twins() -> None:
        if len(resolved) != seen[0]:
            patch_twins()
        dispatch_stage()

    return dispatch_twins


def _make_controller_tick(core: Core) -> Callable[[], None]:
    """Specialized pin chain for the lp/ep cells.  The generic
    ``PinnedLoadsController.tick`` already hoists the set mins per chain
    run; here the five ``LazyMinSet.min`` calls inline to heap cleanups,
    and the chain prefix every blocked tick re-walks — already-safe
    loads, the address/branch-bound block, the serializing block, the
    oldest-load exemption — runs on flags reads and integer compares
    before falling back to ``_try_make_safe`` for the resource checks
    (CPT / write buffer / CST / LP issue).  Same marks, same denial
    episodes, same order; the drain path delegates to the generic tick.
    """
    ctl = core.controller
    generic_tick = ctl.tick
    deny = ctl._deny
    aggressive = ctl.params.aggressive_tso
    early = ctl.mode is PinningMode.EARLY
    early_pin = ctl._early_pin
    issue_for_pin = core.issue_load_for_pinning
    cpt = ctl.cpt
    cpt_lines = cpt._lines
    note = core.note_vp_reached
    stats = ctl.stats
    write_buffer = core.write_buffer
    wb_entries = write_buffer._entries
    wb_capacity = write_buffer.capacity
    sq = core.sq
    sq_ring = sq._ring
    sq_qmask = sq._qmask
    lq = core.lq
    lq_ring = lq._ring
    lq_qmask = lq._qmask
    flags = core._flags
    vp = core.vp_state
    ub_heap = vp.unresolved_branches._heap
    ub_live = vp.unresolved_branches._live
    uas_heap = vp.unknown_addr_stores._heap
    uas_live = vp.unknown_addr_stores._live
    uam_heap = vp.unknown_addr_memops._heap
    uam_live = vp.unknown_addr_memops._live
    ser_heap = vp.serializing._heap
    ser_live = vp.serializing._live
    url_heap = vp.unretired_loads._heap
    url_live = vp.unretired_loads._live

    def controller_tick() -> None:  # repro: hot
        if ctl._draining:
            generic_tick()      # rare: LQ-ID wraparound drain + restart
            return
        head = lq._head
        tail = lq._tail
        if tail == head:
            return
        # inlined LazyMinSet.min x5 (lazy-deletion cleanup in place)
        while ub_heap and ub_heap[0] not in ub_live:
            heappop(ub_heap)
        bound = ub_heap[0] if ub_heap else _NO_MIN
        while uas_heap and uas_heap[0] not in uas_live:
            heappop(uas_heap)
        if uas_heap and uas_heap[0] < bound:
            bound = uas_heap[0]
        while uam_heap and uam_heap[0] not in uam_live:
            heappop(uam_heap)
        if uam_heap and uam_heap[0] < bound:
            bound = uam_heap[0]
        while ser_heap and ser_heap[0] not in ser_live:
            heappop(ser_heap)
        ser_bound = ser_heap[0] if ser_heap else _NO_MIN
        while url_heap and url_heap[0] not in url_live:
            heappop(url_heap)
        url_bound = url_heap[0] if url_heap else _NO_MIN
        for pos in range(head, tail):
            load = lq_ring[pos & lq_qmask]
            slot = load.slot
            f = flags[slot]
            if f & FLAG_MCV_SAFE:
                continue
            # --- inlined _try_make_safe fast paths (same order) ---
            if f & FLAG_FORWARDED and f & FLAG_PERFORMED:
                flags[slot] |= FLAG_MCV_SAFE
                note(load)
                continue
            index = load.index
            if not f & FLAG_ADDR_READY or bound < index:
                break
            if ser_bound < index:
                deny(load, "pin_denied_serializing")
                break
            if aggressive and url_bound >= index:
                flags[slot] |= FLAG_MCV_SAFE
                stats.bump("oldest_exemptions")
                note(load)
                continue
            # --- inlined resource checks (same order, same episodes) ---
            if cpt._overflowed:
                deny(load, "pin_denied_cpt_blocked")
                break
            if load.line in cpt_lines:
                deny(load, "pin_denied_cpt")
                break
            # §5.1.2 write-buffer bound: the SQ is program-ordered, so
            # the older-store count stops at the first younger store
            older_sq_stores = 0
            for spos in range(sq._head, sq._tail):
                if sq_ring[spos & sq_qmask].index >= index:
                    break
                older_sq_stores += 1
            if older_sq_stores + len(wb_entries) > wb_capacity:
                deny(load, "pin_denied_wb")
                break
            if early:
                if early_pin(load):
                    continue
                break
            # --- inlined _late_pin (addr_ready already established) ---
            if f & FLAG_PERFORMED:
                # resolved at call time: the invariant sanitizer shadows
                # ``_pin`` on the controller instance
                ctl._pin(load)
                continue
            if f & (FLAG_PARKED | FLAG_OUTSTANDING | FLAG_ISSUED):
                break
            issue_for_pin(load)
            break

    return controller_tick


def _make_quiet(core: Core, compiled: CompiledTrace) -> Callable[[int], int]:
    """Exclusive upper bound on cycles whose ticks are provably no-ops
    for this core absent an intervening event; ``0`` if the core may act
    at ``cycle + 1``.

    This is the soundness contract behind the run loops' fast-forward:
    every per-cycle stage is frozen unless one of the conditions below
    holds, because all other state transitions (completions, memory
    fills, write-buffer drains, branch resolutions and the squashes they
    cause) arrive via the event queue, and the loops never skip past a
    pending event.

    The defense machinery (the VP walk, taint queries, the pinning
    controller) is quiet on the same argument, tracked by the
    ``_wake_pending`` dirty flag: every mutation that can move VP,
    taint, or pin state — dispatch, retire, squash, address generation,
    branch resolution, data arrival, store drains, VP marking itself,
    and the coherence-driven CPT/invalidation hooks — sets the flag, and
    the tick clears it on entry.  A clear flag therefore means the
    machinery is at a fixpoint: re-running the walk and the pin chain on
    unchanged state marks and pins nothing, so the next ticks are no-ops
    until an event or another core's tick re-arms the flag.  Stalled
    pre-VP loads (``_waiting_stalled``) are quiet on the same fixpoint
    argument: an issue mode can only flip via a flagged mutation or an
    event (cache fills move DOM's hit probe; VP marks and retires move
    STT's taint roots).

    Because all per-slot timing state (VP cycles, completion cycles) is
    stored as *absolute* cycle numbers in the columns, a quiet region
    needs no per-slot touches: the loop advances the clock in one
    arithmetic step and every column value stays valid."""
    wake_matters = core._vp_active or core._pinning
    opcodes = compiled.opcodes
    barrier_ids = compiled.barrier_ids
    is_load = compiled.is_load
    uops = compiled.uops
    twins = core._twins
    resolved = core._resolved_mispredicts
    is_store = compiled.is_store
    trace_len = compiled.length
    handles = core._handles
    mask = core._slot_mask
    flags = core._flags
    rob_capacity = core._rob_capacity
    lq = core.lq
    lq_capacity = lq.capacity
    sq = core.sq
    sq_capacity = sq.capacity
    released = core.barriers.released

    def quiet_until(cycle: int) -> int:  # repro: hot
        if wake_matters and core._wake_pending:
            return 0
        if core._ready or core._lp_parked:
            return 0
        if core._waiting_loads and not core._waiting_stalled:
            return 0
        if core._wb_entries and not core._wb_draining:
            return 0
        cursor = core._cursor
        ru = core._retired_upto
        if cursor > ru:
            code = opcodes[ru]
            if code == OP_ATOMIC:
                return 0
            elif code == OP_BARRIER:
                if not handles[ru & mask].barrier_notified \
                        or released(barrier_ids[ru]):
                    return 0
            elif code == OP_FENCE:
                if not core._wb_entries:
                    return 0
            elif flags[ru & mask] & FLAG_COMPLETE:
                return 0
        if cursor < trace_len and cursor - ru < rob_capacity:
            # a row still unpatched although its guard resolved will
            # dispatch as its NOP twin, which never blocks on the LQ
            if not ((is_load[cursor]
                     and lq._tail - lq._head >= lq_capacity
                     and (twins is None or cursor not in twins
                          or uops[cursor].guard not in resolved))
                    or (is_store[cursor]
                        and sq._tail - sq._head >= sq_capacity)):
                resume = core._fetch_resume
                if resume <= cycle + 1:
                    return 0
                return resume
        return QUIET_FOREVER

    return quiet_until


def _never_quiet(cycle: int) -> int:
    """Quiet bound of a sanitized core: every cycle is ticked and
    checked, exactly as if no fast-forward existed."""
    return 0


def _specialize_core(core: Core, compiled: CompiledTrace,
                     check_tick: Optional[Callable[[Core], None]] = None,
                     ) -> Tuple[Callable[[int], None], Callable[[int], int]]:
    """Compile one core's tick/quiet pair.  Stage activation flags
    (``vp_active``, pinning, LATE parking) are static per config and
    bound once, so the tick re-tests none of them per cycle.

    Defenses without a specialized issue loop (invisible speculation)
    and mutated defenses (``SystemConfig.defense_mutation``, whose
    weakened hooks live in the scheme objects) issue loads through the
    generic ``Core._issue_waiting_loads``.  With a sanitizer attached
    (``check_tick``), every tick is followed by its per-tick invariant
    check and the core never reports quiet."""
    vp_active = core._vp_active
    pinning = core._pinning
    late = core.config.pinning.mode is PinningMode.LATE
    defense = core.config.defense
    generic_issue = bool(core.config.defense_mutation) \
        or defense not in SPECIALIZED_DEFENSES
    # The stalled-scan skip is sound only when issue eligibility flips
    # exclusively through wake-flagged mutations (the quiet-bound
    # fixpoint contract): true for fence (vp_cycle), STT (vp_cycle /
    # taint liveness) and unsafe (always eligible).  DOM eligibility
    # also reads shared L1 state, which mem-side events (a write-buffer
    # drain filling a line) change without waking the core, so DOM — and
    # the generic scheme-hook stage — scans whenever loads wait.
    scan_always = generic_issue or defense is DefenseKind.DOM
    trace_len = compiled.length
    stats = core.stats
    controller_tick = _make_controller_tick(core) if pinning else None
    lp_retry = core._lp_retry_parked
    kick_wb = core._kick_write_buffer
    retire_stage = _make_retire(core, compiled)
    update_vps = _make_update_vps(core) if vp_active else None
    issue_ready = _make_issue_ready(core, compiled)
    issue_loads = core._issue_waiting_loads if generic_issue \
        else _make_issue_loads(core, compiled)
    dispatch_stage = _make_dispatch(core, compiled)
    quiet_until = _make_quiet(core, compiled)

    def tick(cycle: int) -> None:  # repro: hot
        if core.done_cycle is not None:
            return
        # the wake flag observed at entry covers every mutation since
        # this core's previous tick; the re-read before the load scan
        # covers mutations made by this tick's earlier stages
        woke = core._wake_pending
        if woke:
            core._wake_pending = False
        core.cycle = cycle
        if core._cursor > core._retired_upto:
            retire_stage()
        if vp_active:
            update_vps()
        if pinning:
            controller_tick()
            if late and core._lp_parked:
                lp_retry()
        if core._ready:
            issue_ready()
        if core._waiting_loads and (scan_always or woke or core._wake_pending
                                    or not core._waiting_stalled):
            issue_loads()
        if core._cursor < trace_len and cycle >= core._fetch_resume:
            dispatch_stage()
        if core._wb_entries and not core._wb_draining:
            kick_wb()
        if core._cursor == core._retired_upto and not core._wb_entries \
                and core._cursor >= trace_len:
            core.done_cycle = cycle
            stats.set("done_cycle", cycle)
            stats.set("retire_sig", core.retire_sig)

    if check_tick is None:
        return tick, quiet_until

    def checked_tick(cycle: int) -> None:
        tick(cycle)
        check_tick(core)

    return checked_tick, _never_quiet


class SpecializedEngine:
    """Engine over one ``System``: per-core specialized closures plus
    the single- and multi-core fast-forwarding run loops."""

    __slots__ = ("system", "_cores", "_ticks", "_quiets", "compiled")

    def __init__(self, system) -> None:
        self.system = system
        self._cores: List[Core] = list(system.cores)
        check_tick = None if system.sanitizer is None \
            else system.sanitizer.check_tick
        self.compiled: List[CompiledTrace] = []
        self._ticks = []
        self._quiets = []
        for core in self._cores:
            compiled = compile_trace(core.trace)
            if core._twins is not None:
                # NOP-twin rows are rewritten during the run
                compiled = compiled.private_copy()
            tick, quiet = _specialize_core(core, compiled, check_tick)
            self.compiled.append(compiled)
            self._ticks.append(tick)
            self._quiets.append(quiet)

    def run(self, max_cycles: int = 50_000_000,
            stop_cycle: Optional[int] = None) -> int:
        # The run loop allocates in a steady state (entry handles, event
        # tuples) with no reference cycles on the hot path; pausing the
        # generational collector for the duration avoids periodic full
        # scans of the long-lived simulator graph.
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            if len(self._cores) == 1:
                return self._run_single(max_cycles, stop_cycle)
            return self._run_multi(max_cycles, stop_cycle)
        finally:
            if paused:
                gc.enable()

    def _run_single(self, max_cycles: int,
                    stop_cycle: Optional[int]) -> int:
        system = self.system
        core = self._cores[0]
        tick = self._ticks[0]
        quiet = self._quiets[0]
        events = system.events
        heap = events._heap
        run_until = events.run_until
        progress = system.progress
        deadlock_window = system.config.deadlock_cycles
        cycle = system.cycles
        last_progress_cycle = cycle
        last_retired = -1
        while core.done_cycle is None:
            if stop_cycle is not None and cycle >= stop_cycle:
                break
            cycle += 1
            if heap and heap[0][0] <= cycle:
                run_until(cycle)
            else:
                # no due events: run_until would only advance the clock
                events.now = cycle
            tick(cycle)
            if core.done_cycle is not None:
                break
            retired = progress.count
            if retired != last_retired:
                last_retired = retired
                last_progress_cycle = cycle
            elif cycle - last_progress_cycle > deadlock_window:
                raise DeadlockError(cycle, repr(core),
                                    dump=system.diagnostic_dump(cycle))
            if cycle >= max_cycles:
                raise DeadlockError(cycle, "max_cycles exceeded",
                                    dump=system.diagnostic_dump(cycle))
            bound = quiet(cycle)
            if bound > cycle + 1:
                target = bound
                if heap:
                    next_event = heap[0][0]
                    if next_event < target:
                        target = next_event
                deadlock_at = last_progress_cycle + deadlock_window + 1
                if deadlock_at < target:
                    target = deadlock_at
                if max_cycles < target:
                    target = max_cycles
                if stop_cycle is not None and stop_cycle < target:
                    target = stop_cycle
                if target > cycle + 1:
                    cycle = target - 1
        system.cycles = cycle
        return cycle

    def _run_multi(self, max_cycles: int,
                   stop_cycle: Optional[int]) -> int:
        """Multi-core loop with batched quiet-region stepping: each live
        core caches its last ``quiet_until`` bound, and its tick is
        skipped while the bound covers the cycle, no event fired, and
        nothing re-armed its wake flag.  Soundness: a cached bound means
        "ticks are no-ops absent an intervening mutation", and every
        mutation a skipped core can receive arrives either through the
        event queue (``fired``) or through a flag-setting hook —
        coherence callbacks, CPT traffic, and barrier releases
        (``BarrierManager`` wakes all cores on release).  On top of the
        per-core skip, the existing all-quiet jump advances the clock in
        one arithmetic step, which the absolute-cycle columns make
        state-touch-free."""
        system = self.system
        events = system.events
        heap = events._heap
        run_until = events.run_until
        progress = system.progress
        deadlock_window = system.config.deadlock_cycles
        cycle = system.cycles
        last_progress_cycle = cycle
        last_retired = -1
        # mutable per-core records: [core, tick, quiet, cached_bound]
        live = [[core, tick, quiet, 0] for core, tick, quiet
                in zip(self._cores, self._ticks, self._quiets)
                if core.done_cycle is None]
        while live:
            if stop_cycle is not None and cycle >= stop_cycle:
                break
            cycle += 1
            fired = bool(heap) and heap[0][0] <= cycle
            if fired:
                run_until(cycle)
            else:
                events.now = cycle
            finished = False
            for item in live:
                core = item[0]
                if not fired and item[3] > cycle \
                        and not core._wake_pending:
                    continue    # provably a no-op tick: skip it
                item[3] = 0
                item[1](cycle)
                if core.done_cycle is not None:
                    finished = True
            if finished:
                live = [item for item in live
                        if item[0].done_cycle is None]
                if not live:
                    break
            retired = progress.count
            if retired != last_retired:
                last_retired = retired
                last_progress_cycle = cycle
            elif cycle - last_progress_cycle > deadlock_window:
                detail = "; ".join(repr(item[0]) for item in live)
                raise DeadlockError(cycle, detail,
                                    dump=system.diagnostic_dump(cycle))
            if cycle >= max_cycles:
                raise DeadlockError(cycle, "max_cycles exceeded",
                                    dump=system.diagnostic_dump(cycle))
            bound = QUIET_FOREVER
            for item in live:
                core_bound = item[2](cycle)
                item[3] = core_bound
                if core_bound < bound:
                    bound = core_bound
            if bound > cycle + 1:
                target = bound
                if heap:
                    next_event = heap[0][0]
                    if next_event < target:
                        target = next_event
                deadlock_at = last_progress_cycle + deadlock_window + 1
                if deadlock_at < target:
                    target = deadlock_at
                if max_cycles < target:
                    target = max_cycles
                if stop_cycle is not None and stop_cycle < target:
                    target = stop_cycle
                if target > cycle + 1:
                    cycle = target - 1
        system.cycles = cycle
        return cycle


def build_engine(system) -> SpecializedEngine:
    """Compile the engine that runs ``system`` (every configuration has
    one; see ``_specialize_core`` for the per-core variants)."""
    return SpecializedEngine(system)
