"""Cache Shadow Table (paper §5.1.4, §6.2, Figure 6).

The CST is the Early Pinning structure that answers, *before* a load
issues, whether its line is guaranteed space in the target cache structure
given the already-pinned lines.  It is a hash table of N entries x M
records; an entry is selected by hashing the (set, slice) the line maps to,
and each record holds a hash of the line address plus the LQ ID of the
youngest pinned load reading that line.

Fidelity notes, all per the paper:

* Records are reclaimed lazily: a record whose LQ ID is no longer live is
  expunged only when a new pin needs the slot.
* Address-hash collisions are detected by reading back the LQ entry's line
  through the stored LQ ID; on mismatch the pin is denied (treated as "no
  space").
* Entry-index collisions merely under-count capacity — safe by design.
* An ``infinite`` CST (used by the §9.2.1 sensitivity study) never denies.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional

from repro.common.stats import StatSet

LiveLineFn = Callable[[int], Optional[int]]


class _Record:
    __slots__ = ("addr_hash", "lq_id", "valid")

    def __init__(self) -> None:
        self.addr_hash = 0
        self.lq_id = -1
        self.valid = False


def _hash_key(key: Hashable, buckets: int) -> int:
    """Map a placement key to a table entry.

    Integer keys (linear set/slice indices) are taken modulo the entry
    count: regular access patterns (strided/streaming) then rotate through
    the entries uniformly instead of birthday-colliding, which is what
    keeps the paper's false-positive rates tiny at 12/40 entries.
    """
    if isinstance(key, int):
        return key % buckets
    return (hash(key) * 0x9E3779B1) % buckets


#: Width of the per-record line-address hash.  12 bits reproduces the
#: paper's Table 1 storage: 12x8x(12+24+1) bits = 444 B for the L1 CST and
#: 40x2x(12+24+1) bits = 370 B for the directory/LLC CST.
ADDR_HASH_BITS = 12


def _hash_line(line: int) -> int:
    return ((line * 2654435761) >> 8) & ((1 << ADDR_HASH_BITS) - 1)


class CacheShadowTable:
    """One CST instance (a core has one for L1 and one for the dir/LLC)."""

    __slots__ = ("entries", "records_per_entry", "infinite",
                 "_live_line_of", "_table", "stats")

    def __init__(self, entries: int, records_per_entry: int,
                 live_line_of: LiveLineFn, infinite: bool = False) -> None:
        if entries < 1 or records_per_entry < 1:
            raise ValueError("CST geometry must be positive")
        self.entries = entries
        self.records_per_entry = records_per_entry
        self.infinite = infinite
        self._live_line_of = live_line_of
        # records are created on first use: ``try_pin`` always takes an
        # entry's first invalid record, so the records ever used form a
        # prefix of the entry and the absent tail stands for records
        # that were never valid
        self._table: List[List[_Record]] = [[] for _ in range(entries)]
        self.stats = StatSet()

    def try_pin(self, line: int, placement: Hashable, lq_id: int) -> bool:
        """Attempt to account a new pinned load of ``line`` mapping to
        ``placement`` (an L1 set, or a (slice, set) pair).  Returns whether
        the pin is allowed; on success the table is updated."""
        self.stats.bump("attempts")
        if self.infinite:
            return True
        entry = self._table[_hash_key(placement, self.entries)]
        target_hash = _hash_line(line)
        free_slot: Optional[_Record] = None
        for record in entry:
            if not record.valid:
                free_slot = free_slot or record
                continue
            live_line = self._live_line_of(record.lq_id)
            if live_line is None:
                # stale record (its pinned load retired): expunge lazily
                record.valid = False
                free_slot = free_slot or record
                continue
            if record.addr_hash == target_hash:
                if live_line != line:
                    # address-hash collision: deny, as if out of space
                    self.stats.bump("hash_collision_denials")
                    self.stats.bump("denials")
                    return False
                # the line is already pinned by an older load: just take
                # over as the youngest pinned load of the line
                record.lq_id = lq_id
                self.stats.bump("merged_pins")
                return True
        if free_slot is None:
            if len(entry) >= self.records_per_entry:
                self.stats.bump("denials")
                return False
            free_slot = _Record()
            entry.append(free_slot)
        free_slot.valid = True
        free_slot.addr_hash = target_hash
        free_slot.lq_id = lq_id
        self.stats.bump("new_pins")
        return True

    def cancel(self, line: int, placement: Hashable, lq_id: int) -> None:
        """Roll back a ``try_pin`` that a later check vetoed (e.g. the L1
        CST accepted but the directory CST denied)."""
        entry = self._table[_hash_key(placement, self.entries)]
        for record in entry:
            if record.valid and record.lq_id == lq_id \
                    and record.addr_hash == _hash_line(line):
                record.valid = False
                return

    def clear(self) -> None:
        """Wholesale reset (LQ-ID wraparound drain, §6.2)."""
        for entry in self._table:
            for record in entry:
                record.valid = False

    @property
    def denial_rate(self) -> float:
        attempts = self.stats["attempts"]
        return self.stats["denials"] / attempts if attempts else 0.0

    def storage_bits(self, lq_id_tag_bits: int,
                     addr_hash_bits: int = ADDR_HASH_BITS) -> int:
        """Total storage of the table (for the Table 1 hardware numbers)."""
        record_bits = addr_hash_bits + lq_id_tag_bits + 1
        return self.entries * self.records_per_entry * record_bits
