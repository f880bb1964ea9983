"""Coherence protocol, including the Pinned Loads extensions of §5.1:
invalidation deferral (Defer/Abort), starvation control (GetX*/Inv*/Clear
and CPT callbacks), eviction denial, and retry accounting (§9.1.3)."""

import dataclasses

import pytest

from repro.common.addr import slice_of
from repro.common.events import EventQueue
from repro.common.params import (COMPREHENSIVE, ChaosConfig, CacheParams,
                                 DefenseKind, PinningMode, SystemConfig)
from repro.mem.cache import _EMPTY, CacheArray, LineState
from repro.mem.coherence import CoherentMemory, CorePort
from repro.sim.engine import SpecializedEngine
from repro.sim.runner import scheme_grid
from repro.sim.system import System
from repro.workloads import parallel_workload, spec17_workload


class RecordingPort(CorePort):
    """A stub core that records callbacks and exposes a pinned-line set."""

    def __init__(self):
        self.pinned = set()
        self.invalidations = []
        self.evictions = []
        self.cpt = set()
        self.cpt_inserts = []
        self.cpt_clears = []

    def has_pinned(self, line):
        return line in self.pinned

    def on_invalidation(self, line):
        self.invalidations.append(line)

    def on_line_evicted(self, line):
        self.evictions.append(line)

    def cpt_insert(self, line, writer=None):
        self.cpt.add(line)
        self.cpt_inserts.append((line, writer))

    def cpt_clear(self, line):
        self.cpt.discard(line)
        self.cpt_clears.append(line)


def make_memory(num_cores=2, l1_sets=4, l1_ways=2, llc_ways=4,
                prefetch=False):
    config = SystemConfig(
        num_cores=num_cores,
        l1d=CacheParams(size_bytes=l1_sets * l1_ways * 64, ways=l1_ways,
                        latency=2),
        llc_slice=CacheParams(size_bytes=4 * llc_ways * 64, ways=llc_ways,
                              latency=8),
        l1_prefetch=prefetch,
    )
    events = EventQueue()
    mem = CoherentMemory(config, events)
    ports = []
    for core_id in range(num_cores):
        port = RecordingPort()
        mem.attach_port(core_id, port)
        ports.append(port)
    return mem, events, ports


def settle(events, horizon=5000):
    while not events.empty:
        events.run_until(events.next_time())
        if events.now > horizon:
            raise AssertionError("events did not settle")


def do_load(mem, events, core, line):
    done = []
    mem.load(core, line, lambda cycle: done.append(cycle))
    settle(events)
    assert done, "load never completed"
    return done[0]


def do_store(mem, events, core, line):
    done = []
    mem.store(core, line, lambda cycle: done.append(cycle))
    settle(events)
    return done


class TestLoadPath:
    def test_miss_fills_l1(self):
        mem, events, _ = make_memory()
        do_load(mem, events, 0, line=5)
        assert mem.l1_hit(0, 5)

    def test_hit_is_faster_than_miss(self):
        mem, events, _ = make_memory()
        miss_latency = do_load(mem, events, 0, line=5)
        events2 = events.now
        hit_latency = do_load(mem, events, 0, line=5) - events2
        assert hit_latency < miss_latency

    def test_first_fill_is_exclusive(self):
        mem, events, _ = make_memory()
        do_load(mem, events, 0, line=5)
        assert mem.l1s[0].lookup(5) is LineState.EXCLUSIVE

    def test_second_reader_gets_shared_and_downgrades_owner(self):
        mem, events, _ = make_memory()
        do_load(mem, events, 0, line=5)
        do_load(mem, events, 1, line=5)
        assert mem.l1s[0].lookup(5) is LineState.SHARED
        assert mem.l1s[1].lookup(5) is LineState.SHARED

    def test_concurrent_misses_merge_in_mshr(self):
        mem, events, _ = make_memory()
        done = []
        mem.load(0, 9, lambda c: done.append("a"))
        mem.load(0, 9, lambda c: done.append("b"))
        assert len(mem.mshrs[0]) == 1
        settle(events)
        assert sorted(done) == ["a", "b"]

    def test_llc_miss_counted(self):
        mem, events, _ = make_memory()
        do_load(mem, events, 0, line=5)
        assert mem.stats["llc_misses"] == 1

    def test_l1_capacity_eviction_notifies_port(self):
        mem, events, ports = make_memory(l1_sets=4, l1_ways=2)
        # three lines in the same L1 set (set stride = 4)
        for line in (0, 4, 8):
            do_load(mem, events, 0, line)
        assert ports[0].evictions == [0]
        assert not mem.l1_hit(0, 0)

    def test_pinned_line_survives_l1_eviction_pressure(self):
        mem, events, ports = make_memory(l1_sets=4, l1_ways=2)
        do_load(mem, events, 0, 0)
        ports[0].pinned.add(0)
        do_load(mem, events, 0, 4)
        do_load(mem, events, 0, 8)   # would evict LRU line 0, but it's pinned
        assert mem.l1_hit(0, 0)
        assert 0 not in ports[0].evictions


class TestStorePath:
    def test_store_to_owned_line_is_local(self):
        mem, events, _ = make_memory()
        do_load(mem, events, 0, 5)
        assert do_store(mem, events, 0, 5)
        assert mem.l1s[0].lookup(5) is LineState.MODIFIED
        assert mem.stats["invalidations"] == 0

    def test_store_invalidates_remote_sharer(self):
        mem, events, ports = make_memory()
        do_load(mem, events, 0, 5)
        do_load(mem, events, 1, 5)
        assert do_store(mem, events, 0, 5)
        assert ports[1].invalidations == [5]
        assert not mem.l1_hit(1, 5)
        assert mem.l1s[0].lookup(5) is LineState.MODIFIED

    def test_store_miss_allocates_modified(self):
        mem, events, _ = make_memory()
        assert do_store(mem, events, 0, 7)
        assert mem.l1s[0].lookup(7) is LineState.MODIFIED


class TestPinnedLoadsProtocol:
    def test_write_to_pinned_line_defers(self):
        """Figure 3(b): the sharer's pin denies the invalidation; the write
        retries and only succeeds after the pin is released."""
        mem, events, ports = make_memory()
        do_load(mem, events, 1, 5)
        ports[1].pinned.add(5)
        done = []
        mem.store(0, 5, lambda c: done.append(c))
        # let the first attempt and a couple of retries process
        for _ in range(3):
            if events.empty:
                break
            events.run_until(events.next_time())
        assert not done                       # write is being deferred
        assert mem.stats["write_retries"] >= 1
        assert mem.l1_hit(1, 5)               # sharer kept its copy
        ports[1].pinned.discard(5)            # the pinned load retires
        settle(events)
        assert done                           # write eventually succeeds
        assert not mem.l1_hit(1, 5)

    def test_retry_uses_inv_star_and_populates_cpt(self):
        """Figure 5(a): the second attempt (GetX*) makes every sharer add
        the line to its Cannot-Pin Table."""
        mem, events, ports = make_memory()
        do_load(mem, events, 1, 5)
        ports[1].pinned.add(5)
        done = []
        mem.store(0, 5, lambda c: done.append(c))
        for _ in range(4):
            if events.empty:
                break
            events.run_until(events.next_time())
        assert 5 in ports[1].cpt
        ports[1].pinned.discard(5)
        settle(events)
        assert done

    def test_successful_retry_sends_clear(self):
        """Figure 5(b): once the write succeeds, Clear empties the CPTs."""
        mem, events, ports = make_memory()
        do_load(mem, events, 1, 5)
        ports[1].pinned.add(5)
        done = []
        mem.store(0, 5, lambda c: done.append(c))
        for _ in range(4):
            if events.empty:
                break
            events.run_until(events.next_time())
        ports[1].pinned.discard(5)
        settle(events)
        assert done
        assert 5 not in ports[1].cpt
        assert ports[1].cpt_clears == [5]

    def test_unpinned_inv_star_recipient_invalidates_immediately(self):
        """§5.1.5: on Inv*, sharers without a pin ack and invalidate."""
        mem, events, ports = make_memory(num_cores=3)
        do_load(mem, events, 1, 5)
        do_load(mem, events, 2, 5)
        ports[1].pinned.add(5)
        done = []
        mem.store(0, 5, lambda c: done.append(c))
        for _ in range(4):
            if events.empty:
                break
            events.run_until(events.next_time())
        # core 2 was not pinned: after the Inv* retry it must have dropped
        # its copy even though the write is still deferred by core 1
        assert not mem.l1_hit(2, 5)
        assert 5 in ports[2].cpt
        ports[1].pinned.discard(5)
        settle(events)
        assert done
        assert 5 not in ports[2].cpt

    def test_llc_victim_pinned_by_any_core_is_skipped(self):
        """§5.1.3: the directory/LLC never evicts a pinned line."""
        mem, events, ports = make_memory(llc_ways=4, l1_sets=64)
        # fill one LLC set (set stride = 4 lines within a slice): find
        # lines mapping to the same slice and set
        target_slice = slice_of(0, mem.num_slices)
        same_set = [line for line in range(0, 4096, 4)
                    if slice_of(line, mem.num_slices) == target_slice][:5]
        assert len(same_set) == 5
        for line in same_set[:4]:
            do_load(mem, events, 0, line)
        ports[0].pinned.add(same_set[0])
        do_load(mem, events, 1, same_set[4])   # forces an LLC eviction
        assert mem.slices[target_slice].lookup(same_set[0],
                                               touch=False) is not None
        assert same_set[0] not in ports[0].evictions

    def test_back_invalidation_notifies_holders(self):
        mem, events, ports = make_memory(llc_ways=4, l1_sets=64)
        target_slice = slice_of(0, mem.num_slices)
        same_set = [line for line in range(0, 4096, 4)
                    if slice_of(line, mem.num_slices) == target_slice][:5]
        for line in same_set[:4]:
            do_load(mem, events, 0, line)
        do_load(mem, events, 1, same_set[4])
        # the LLC victim was back-invalidated out of core 0's L1
        assert len(ports[0].evictions) >= 1
        evicted = ports[0].evictions[0]
        assert not mem.l1_hit(0, evicted)


class TestPrefetch:
    def test_next_line_prefetched_on_miss(self):
        mem, events, _ = make_memory(prefetch=True, l1_sets=8)
        do_load(mem, events, 0, 3)
        assert mem.stats["prefetches"] == 1
        assert mem.l1_hit(0, 4)

    def test_no_prefetch_when_disabled(self):
        mem, events, _ = make_memory(prefetch=False)
        do_load(mem, events, 0, 3)
        assert mem.stats["prefetches"] == 0

    def test_demand_load_merges_into_prefetch(self):
        mem, events, _ = make_memory(prefetch=True, l1_sets=8)
        done = []
        mem.load(0, 3, lambda c: done.append("demand1"))
        mem.load(0, 4, lambda c: done.append("demand2"))  # merges
        assert len(mem.mshrs[0]) == 2
        settle(events)
        assert sorted(done) == ["demand1", "demand2"]


class TestNetworkAccounting:
    def test_messages_counted_per_kind(self):
        mem, events, _ = make_memory()
        do_load(mem, events, 0, 5)
        assert mem.network.message_count("getS") == 1
        assert mem.network.message_count("data") == 1

    def test_defer_messages_counted(self):
        mem, events, ports = make_memory()
        do_load(mem, events, 1, 5)
        ports[1].pinned.add(5)
        mem.store(0, 5, lambda c: None)
        for _ in range(3):
            if events.empty:
                break
            events.run_until(events.next_time())
        assert mem.network.message_count("defer") >= 1
        ports[1].pinned.discard(5)
        settle(events)


#: Label -> config for the 13 schemes of the evaluation.
SCHEMES = dict(
    [("unsafe", SystemConfig())]
    + [(label, SystemConfig().with_defense(defense, threat, pinning))
       for label, (defense, threat, pinning)
       in sorted(scheme_grid().items())])


def arrays_of(system):
    return list(system.mem.l1s) + list(system.mem.slices)


def materialized(array):
    return {index for index, cache_set in enumerate(array._sets)
            if cache_set is not _EMPTY}


class TestLazyConstruction:
    """A ``System`` is built in proportion to the state a run touches:
    every cache set starts as the shared ``_EMPTY`` and only a fill
    materializes one."""

    @pytest.mark.parametrize("cores", [1, 8])
    def test_new_system_materializes_no_set(self, cores):
        workload = parallel_workload("radix", num_threads=cores,
                                     instructions_per_thread=50)
        system = System(dataclasses.replace(SystemConfig(),
                                            num_cores=cores), workload)
        assert len(arrays_of(system)) == cores + 8
        for array in arrays_of(system):
            assert materialized(array) == set()

    def test_warm_materializes_only_filled_sets(self, monkeypatch):
        filled = set()
        original_fill = CacheArray.fill

        def recording_fill(array, line, state):
            filled.add((id(array), array.set_of(line)))
            original_fill(array, line, state)

        monkeypatch.setattr(CacheArray, "fill", recording_fill)
        workload = spec17_workload("mcf_r", instructions=1000)
        system = System(SystemConfig(), workload)
        system.mem.warm(workload)
        touched = {(id(array), index) for array in arrays_of(system)
                   for index in materialized(array)}
        assert touched and touched == filled

    @pytest.mark.parametrize("label", sorted(SCHEMES))
    def test_shared_empty_set_survives_every_scheme(self, label):
        workload = spec17_workload("mcf_r", instructions=400)
        system = System(SCHEMES[label], workload)
        system.mem.warm(workload)
        system.run()
        assert len(_EMPTY) == 0 and _EMPTY.ways == 1
        l1 = system.mem.l1s[0]
        assert 0 < len(materialized(l1)) < l1.num_sets

    def test_shared_empty_set_survives_forced_evictions(self):
        chaos = ChaosConfig(seed=3, evict_interval=20, wb_spike_interval=300)
        config = dataclasses.replace(
            SCHEMES["fence-ep"], num_cores=2, chaos=chaos)
        workload = parallel_workload("radix", num_threads=2,
                                     instructions_per_thread=300)
        system = System(config, workload)
        system.mem.warm(workload)
        system.run()
        assert system.mem.stats["chaos_forced_evictions"] > 0
        assert len(_EMPTY) == 0 and _EMPTY.ways == 1

    def test_dom_sets_first_filled_mid_run_match_reference(self):
        """The DOM engine probes L1 residency through the live set list,
        so a set that first fills mid-run is seen at once.  No warm-up:
        every L1 set of this cell is first filled by the timed run."""
        config = SystemConfig().with_defense(DefenseKind.DOM, COMPREHENSIVE,
                                             PinningMode.EARLY)
        workload = spec17_workload("mcf_r", instructions=1000)
        opt, ref = System(config, workload), System(config, workload)
        opt.run()
        ref.run_reference()
        assert isinstance(opt._engine, SpecializedEngine)
        assert materialized(opt.mem.l1s[0])
        assert opt.cycles == ref.cycles
        for oc, rc in zip(opt.cores, ref.cores):
            assert oc.stats.as_dict() == rc.stats.as_dict()
            assert oc.controller.stats.as_dict() \
                == rc.controller.stats.as_dict()
