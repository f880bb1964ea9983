"""Cache arrays, replacement (with pinned-victim denial), MSHRs, write
buffer — the structures underpinning §5.1.3 and §5.1.2."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.params import CacheParams
from repro.mem.cache import _EMPTY, CacheArray, LineState, MSHRFile
from repro.mem.replacement import LRUSet
from repro.mem.writebuffer import WriteBuffer


class TestLRUSet:
    def test_insert_and_lookup(self):
        s = LRUSet(ways=2)
        s.insert(1, "a")
        assert 1 in s and s.get(1) == "a"

    def test_insert_beyond_ways_rejected(self):
        s = LRUSet(ways=1)
        s.insert(1, "a")
        with pytest.raises(ValueError):
            s.insert(2, "b")

    def test_victim_is_least_recently_used(self):
        s = LRUSet(ways=3)
        for line in (1, 2, 3):
            s.insert(line, None)
        s.touch(1)
        assert s.pick_victim() == 2

    def test_pinned_victims_are_skipped(self):
        s = LRUSet(ways=3)
        for line in (1, 2, 3):
            s.insert(line, None)
        assert s.pick_victim(evictable=lambda l: l != 1) == 2

    def test_all_pinned_returns_none(self):
        s = LRUSet(ways=2)
        s.insert(1, None)
        s.insert(2, None)
        assert s.pick_victim(evictable=lambda l: False) is None

    def test_skipped_pinned_line_promoted_to_mru(self):
        # paper §5.1.3: denied evictions refresh the victim's recency
        s = LRUSet(ways=3)
        for line in (1, 2, 3):
            s.insert(line, None)
        s.pick_victim(evictable=lambda l: l != 1)   # skips pinned 1
        assert s.pick_victim() == 2   # 1 is now more recent than 2, 3

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=60))
    def test_matches_reference_lru_model(self, accesses):
        ways = 4
        s = LRUSet(ways=ways)
        model = []
        for line in accesses:
            if line in s:
                s.touch(line)
                model.remove(line)
                model.append(line)
            else:
                if s.full:
                    victim = s.pick_victim()
                    assert victim == model.pop(0)
                    s.remove(victim)
                s.insert(line, None)
                model.append(line)
        assert list(s.lines()) == model


def small_array():
    """4 sets x 2 ways."""
    return CacheArray(CacheParams(size_bytes=4 * 2 * 64, ways=2, latency=1))


class TestCacheArray:
    def test_miss_then_fill_then_hit(self):
        cache = small_array()
        assert cache.lookup(5) is None
        cache.fill(5, LineState.SHARED)
        assert cache.lookup(5) is LineState.SHARED

    def test_set_state_requires_residency(self):
        cache = small_array()
        with pytest.raises(KeyError):
            cache.set_state(5, LineState.MODIFIED)

    def test_invalidate(self):
        cache = small_array()
        cache.fill(5, LineState.EXCLUSIVE)
        assert cache.invalidate(5)
        assert not cache.invalidate(5)
        assert cache.lookup(5) is None

    def test_needs_victim_when_set_full(self):
        cache = small_array()
        cache.fill(0, LineState.SHARED)    # set 0
        cache.fill(4, LineState.SHARED)    # set 0 (4 % 4 == 0)
        assert cache.needs_victim(8)       # set 0
        assert not cache.needs_victim(1)   # set 1 empty

    def test_victim_respects_pin_filter(self):
        cache = small_array()
        cache.fill(0, LineState.SHARED)
        cache.fill(4, LineState.SHARED)
        assert cache.pick_victim(8, evictable=lambda l: l != 0) == 4

    def test_lines_map_to_expected_sets(self):
        cache = small_array()
        assert cache.set_of(0) == cache.set_of(4) == 0
        assert cache.set_of(3) == 3

    def test_occupancy(self):
        cache = small_array()
        cache.fill(0, LineState.SHARED)
        cache.fill(1, LineState.SHARED)
        assert cache.occupancy() == 2

    def test_writable_states(self):
        assert LineState.MODIFIED.writable
        assert LineState.EXCLUSIVE.writable
        assert not LineState.SHARED.writable


class TestSharedEmptySet:
    """Every never-filled set of every array is the one ``_EMPTY``; only
    ``fill`` replaces it with a real set."""

    def test_new_array_materializes_no_set(self):
        cache = small_array()
        assert all(s is _EMPTY for s in cache._sets)
        assert cache.occupancy() == 0

    def test_reads_and_guarded_writes_leave_empty_sets_shared(self):
        cache = small_array()
        assert cache.lookup(5) is None
        assert not cache.needs_victim(5)
        assert cache.pick_victim(5) is None
        assert cache.pick_victim(5, evictable=lambda line: False) is None
        assert not cache.invalidate(5)
        with pytest.raises(KeyError):
            cache.set_state(5, LineState.MODIFIED)
        assert list(cache.resident_lines(cache.set_of(5))) == []
        assert all(s is _EMPTY for s in cache._sets)
        assert len(_EMPTY) == 0

    def test_fill_materializes_only_its_set(self):
        cache = small_array()
        cache.fill(5, LineState.SHARED)
        materialized = [i for i, s in enumerate(cache._sets)
                        if s is not _EMPTY]
        assert materialized == [cache.set_of(5)]
        assert cache._sets[cache.set_of(5)].ways == 2
        assert len(_EMPTY) == 0

    def test_pick_victim_on_empty_set_does_not_mutate_it(self):
        assert _EMPTY.pick_victim() is None
        assert _EMPTY.pick_victim(lambda line: False) is None
        assert len(_EMPTY) == 0 and not _EMPTY.full

    def test_checkpoint_round_trip_replays_victim_choices(self):
        cache = CacheArray(CacheParams(size_bytes=8 * 4 * 64, ways=4,
                                       latency=1))
        for line in (0, 8, 16, 24, 3, 11, 19, 7):
            cache.fill(line, LineState.SHARED)
        cache.lookup(0)                     # set 0 order: 8, 16, 24, 0
        cache.invalidate(7)                 # set 7: materialized, empty
        restored = pickle.loads(pickle.dumps(cache))
        assert restored._sets[7] is _EMPTY
        assert [i for i, s in enumerate(restored._sets)
                if s is not _EMPTY] == [0, 3]

        def replay(array):
            victims = []
            for line in (32, 40):
                victim = array.pick_victim(line,
                                           evictable=lambda l: l != 8)
                victims.append(victim)
                array.invalidate(victim)
                array.fill(line, LineState.SHARED)
            victims.append(array.pick_victim(35))
            victims.append(array.pick_victim(39))
            array.fill(39, LineState.SHARED)
            return victims

        assert replay(restored) == replay(cache) == [16, 24, 3, None]
        assert [list(s.lines()) for s in restored._sets] \
            == [list(s.lines()) for s in cache._sets]


class TestMSHRFile:
    def test_allocate_and_merge(self):
        mshrs = MSHRFile()
        entry = mshrs.allocate(7, cycle=10)
        entry.callbacks.append(lambda c: None)
        assert mshrs.outstanding(7) is entry
        assert len(mshrs) == 1

    def test_double_allocate_rejected(self):
        mshrs = MSHRFile()
        mshrs.allocate(7, cycle=10)
        with pytest.raises(ValueError):
            mshrs.allocate(7, cycle=11)

    def test_retire_removes(self):
        mshrs = MSHRFile()
        mshrs.allocate(7, cycle=10)
        mshrs.retire(7)
        assert mshrs.outstanding(7) is None


class TestWriteBuffer:
    def test_fifo_order(self):
        wb = WriteBuffer(capacity=4)
        wb.push(1)
        wb.push(2)
        assert wb.head().line == 1
        wb.pop()
        assert wb.head().line == 2

    def test_capacity_enforced(self):
        wb = WriteBuffer(capacity=1)
        wb.push(1)
        assert wb.full
        with pytest.raises(OverflowError):
            wb.push(2)

    def test_free_tracks_occupancy(self):
        wb = WriteBuffer(capacity=3)
        assert wb.free == 3
        wb.push(1)
        assert wb.free == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            WriteBuffer(capacity=0)

    def test_empty_head_is_none(self):
        assert WriteBuffer(capacity=2).head() is None
