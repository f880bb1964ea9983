"""Cache Shadow Table behaviour (§5.1.4, §6.2, Figure 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import StatSet
from repro.pinning.cst import (ADDR_HASH_BITS, CacheShadowTable, _hash_key,
                               _hash_line)


class LiveMap:
    """Stands in for the LQ: maps live LQ IDs to their pinned line."""

    def __init__(self):
        self.lines = {}

    def __call__(self, lq_id):
        return self.lines.get(lq_id)


def make_cst(entries=1, records=2, infinite=False):
    live = LiveMap()
    cst = CacheShadowTable(entries, records, live, infinite=infinite)
    return cst, live


class TestTryPin:
    def test_new_pin_claims_a_record(self):
        cst, live = make_cst()
        live.lines[1] = 100
        assert cst.try_pin(100, placement=("l1", 0), lq_id=1)
        assert cst.stats["new_pins"] == 1

    def test_entry_capacity_enforced(self):
        """The records-per-entry limit is exactly the W_d / W_L1 guarantee."""
        cst, live = make_cst(entries=1, records=2)
        for lq_id, line in enumerate([100, 200]):
            live.lines[lq_id] = line
            assert cst.try_pin(line, ("l1", 0), lq_id)
        live.lines[7] = 300
        assert not cst.try_pin(300, ("l1", 0), 7)
        assert cst.stats["denials"] == 1

    def test_same_line_merges_onto_youngest_lq_id(self):
        """§6.2: a line already pinned by an older load just updates the
        record's LQ ID — no extra capacity is consumed."""
        cst, live = make_cst(entries=1, records=1)
        live.lines[1] = 100
        assert cst.try_pin(100, ("l1", 0), 1)
        live.lines[2] = 100
        assert cst.try_pin(100, ("l1", 0), 2)
        assert cst.stats["merged_pins"] == 1
        # the single record is occupied by line 100 under lq_id 2
        live.lines[3] = 200
        assert not cst.try_pin(200, ("l1", 0), 3)

    def test_stale_records_expunged_lazily(self):
        """§6.2: retired loads leave stale records that are reclaimed only
        when a new pin needs the slot."""
        cst, live = make_cst(entries=1, records=1)
        live.lines[1] = 100
        assert cst.try_pin(100, ("l1", 0), 1)
        del live.lines[1]             # the pinned load retired
        live.lines[2] = 200
        assert cst.try_pin(200, ("l1", 0), 2)

    def test_hash_collision_detected_via_lq_readback(self):
        """§6.2: two lines whose hashes collide in one record must be
        distinguished by reading the LQ entry; the new pin is denied."""
        base = 100
        collider = base + (1 << ADDR_HASH_BITS) * 2654435761 % (10**9)
        # construct a genuine collision by brute force
        collider = next(line for line in range(base + 1, base + 10**6)
                        if _hash_line(line) == _hash_line(base))
        cst, live = make_cst(entries=1, records=4)
        live.lines[1] = base
        assert cst.try_pin(base, ("l1", 0), 1)
        live.lines[2] = collider
        assert not cst.try_pin(collider, ("l1", 0), 2)
        assert cst.stats["hash_collision_denials"] == 1

    def test_infinite_cst_never_denies(self):
        cst, live = make_cst(entries=1, records=1, infinite=True)
        for lq_id in range(50):
            live.lines[lq_id] = 1000 + lq_id
            assert cst.try_pin(1000 + lq_id, ("l1", 0), lq_id)

    def test_placement_hashing_separates_entries(self):
        cst, live = make_cst(entries=16, records=1)
        live.lines[1] = 100
        live.lines[2] = 200
        assert cst.try_pin(100, ("l1", 3), 1)
        # a different placement usually maps to a different entry; at
        # minimum the same placement must conflict:
        live.lines[3] = 300
        assert not cst.try_pin(300, ("l1", 3), 3)


class TestCancelAndClear:
    def test_cancel_rolls_back(self):
        cst, live = make_cst(entries=1, records=1)
        live.lines[1] = 100
        assert cst.try_pin(100, ("l1", 0), 1)
        cst.cancel(100, ("l1", 0), 1)
        live.lines[2] = 200
        assert cst.try_pin(200, ("l1", 0), 2)

    def test_clear_resets_everything(self):
        cst, live = make_cst(entries=2, records=1)
        live.lines[1] = 100
        cst.try_pin(100, ("l1", 0), 1)
        cst.clear()
        live.lines[2] = 200
        for placement in (("l1", 0), ("l1", 1)):
            assert cst.try_pin(200, placement, 2)


class TestGeometry:
    def test_storage_matches_table1(self):
        """Table 1 / §9.2.4: 444 B for the L1 CST, 370 B for the dir CST."""
        live = LiveMap()
        l1_cst = CacheShadowTable(12, 8, live)
        dir_cst = CacheShadowTable(40, 2, live)
        assert l1_cst.storage_bits(lq_id_tag_bits=24) == 444 * 8
        assert dir_cst.storage_bits(lq_id_tag_bits=24) == 370 * 8

    def test_rejects_empty_geometry(self):
        with pytest.raises(ValueError):
            CacheShadowTable(0, 2, LiveMap())

    def test_denial_rate(self):
        cst, live = make_cst(entries=1, records=1)
        live.lines[1] = 100
        cst.try_pin(100, ("l1", 0), 1)
        live.lines[2] = 200
        cst.try_pin(200, ("l1", 0), 2)
        assert cst.denial_rate == pytest.approx(0.5)


class _EagerRecord:
    __slots__ = ("addr_hash", "lq_id", "valid")

    def __init__(self):
        self.addr_hash = 0
        self.lq_id = -1
        self.valid = False


class EagerCST:
    """The table as it was first written: every record of every entry
    allocated up front.  Kept here as the oracle for the lazily grown
    table, which must make the same decisions and count the same stats."""

    def __init__(self, entries, records_per_entry, live_line_of):
        self.entries = entries
        self._live_line_of = live_line_of
        self._table = [[_EagerRecord() for _ in range(records_per_entry)]
                       for _ in range(entries)]
        self.stats = StatSet()

    def try_pin(self, line, placement, lq_id):
        self.stats.bump("attempts")
        entry = self._table[_hash_key(placement, self.entries)]
        target_hash = _hash_line(line)
        free_slot = None
        for record in entry:
            if not record.valid:
                free_slot = free_slot or record
                continue
            live_line = self._live_line_of(record.lq_id)
            if live_line is None:
                record.valid = False
                free_slot = free_slot or record
                continue
            if record.addr_hash == target_hash:
                if live_line != line:
                    self.stats.bump("hash_collision_denials")
                    self.stats.bump("denials")
                    return False
                record.lq_id = lq_id
                self.stats.bump("merged_pins")
                return True
        if free_slot is None:
            self.stats.bump("denials")
            return False
        free_slot.valid = True
        free_slot.addr_hash = target_hash
        free_slot.lq_id = lq_id
        self.stats.bump("new_pins")
        return True

    def cancel(self, line, placement, lq_id):
        entry = self._table[_hash_key(placement, self.entries)]
        for record in entry:
            if record.valid and record.lq_id == lq_id \
                    and record.addr_hash == _hash_line(line):
                record.valid = False
                return

    def clear(self):
        for entry in self._table:
            for record in entry:
                record.valid = False


def _rows(table, width):
    """Every entry as ``(valid, addr_hash, lq_id)`` rows, padded with
    never-used records to ``width``."""
    return [[(r.valid, r.addr_hash, r.lq_id) for r in entry]
            + [(False, 0, -1)] * (width - len(entry)) for entry in table]


#: 0 and 2455 share a 12-bit address hash, so collision denials occur.
LINES = st.sampled_from([0, 2455, 1, 2, 3, 64, 100, 4096])
OPS = st.lists(st.one_of(
    st.tuples(st.just("pin"), LINES, st.integers(0, 5), st.integers(0, 7)),
    st.tuples(st.just("cancel"), LINES, st.integers(0, 5),
              st.integers(0, 7)),
    st.tuples(st.just("live"), LINES, st.integers(0, 7)),
    st.tuples(st.just("retire"), st.integers(0, 7)),
    st.tuples(st.just("clear"),)), max_size=60)


class TestLazyRecordsMatchEagerTable:
    @settings(max_examples=200, deadline=None)
    @given(entries=st.integers(1, 4), records=st.integers(1, 4), ops=OPS)
    def test_same_decisions_stats_and_records(self, entries, records, ops):
        """Records are created on first use, which is exact because the
        records ever used always form a prefix of their entry."""
        live = LiveMap()
        lazy = CacheShadowTable(entries, records, live)
        eager = EagerCST(entries, records, live)
        assert lazy._table == [[]] * entries
        for op in ops:
            kind = op[0]
            if kind == "pin":
                _, line, placement, lq_id = op
                assert lazy.try_pin(line, placement, lq_id) \
                    == eager.try_pin(line, placement, lq_id), op
            elif kind == "cancel":
                _, line, placement, lq_id = op
                lazy.cancel(line, placement, lq_id)
                eager.cancel(line, placement, lq_id)
            elif kind == "live":
                _, line, lq_id = op
                live.lines[lq_id] = line
            elif kind == "retire":
                live.lines.pop(op[1], None)
            else:
                lazy.clear()
                eager.clear()
            assert all(len(entry) <= records for entry in lazy._table)
            assert _rows(lazy._table, records) \
                == _rows(eager._table, records), op
        assert lazy.stats.as_dict() == eager.stats.as_dict()
