"""Set-associative cache arrays and MSHRs.

``CacheArray`` is used both for private L1 data caches and for the LLC
slices (whose tag array doubles as the directory — the hierarchy is
inclusive, as in the paper's MESI configuration).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.common.params import CacheParams
from repro.mem.replacement import LRUSet


class LineState(enum.Enum):
    """MESI stable states for a private-cache line."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"

    @property
    def writable(self) -> bool:
        return self is not LineState.SHARED


#: The one set every never-filled row of every array points at.  It is
#: never mutated: reads of an empty set (``lookup``, ``needs_victim``,
#: ``pick_victim``, ``lines``) change nothing, every write path other
#: than ``fill`` is guarded by residency, and ``fill`` swaps in a real
#: set before inserting.  One way keeps ``full`` false.
_EMPTY = LRUSet(1)


class CacheArray:
    """A physically-indexed, set-associative array with LRU replacement.

    Sets are materialized on first fill, so building an array costs one
    list of ``num_sets`` references to ``_EMPTY`` whatever its geometry:
    a run pays only for the sets it touches.
    """

    __slots__ = ("params", "num_sets", "_sets", "_mask")

    def __init__(self, params: CacheParams) -> None:
        params.validate()
        self.params = params
        self.num_sets = params.sets
        self._mask = self.num_sets - 1      # sets is a power of two
        self._sets: List[LRUSet] = [_EMPTY] * self.num_sets

    def set_of(self, line: int) -> int:
        return line & self._mask

    def _set(self, line: int) -> LRUSet:
        return self._sets[line & self._mask]

    def lookup(self, line: int, touch: bool = True) -> Optional[LineState]:
        """State of ``line`` if resident (``None`` on miss).  Called on
        every load/store/probe, so the set index is computed inline."""
        cache_set = self._sets[line & self._mask]
        state = cache_set.get(line)
        if state is not None and touch:
            cache_set.touch(line)
        return state

    def set_state(self, line: int, state: LineState) -> None:
        cache_set = self._set(line)
        if line not in cache_set:
            raise KeyError(f"line {line:#x} not resident")
        cache_set.update(line, state)

    def fill(self, line: int, state: LineState) -> None:
        """Insert ``line``; the caller must already have made room."""
        index = line & self._mask
        cache_set = self._sets[index]
        if cache_set is _EMPTY:
            cache_set = self._sets[index] = LRUSet(self.params.ways)
        cache_set.insert(line, state)

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident; returns whether it was resident."""
        cache_set = self._set(line)
        if line in cache_set:
            cache_set.remove(line)
            return True
        return False

    def needs_victim(self, line: int) -> bool:
        cache_set = self._set(line)
        return line not in cache_set and cache_set.full

    def pick_victim(self, line: int,
                    evictable: Optional[Callable[[int], bool]] = None,
                    ) -> Optional[int]:
        """LRU victim in ``line``'s set, honoring the evictable filter."""
        return self._set(line).pick_victim(evictable)

    def resident_lines(self, set_index: int):
        return self._sets[set_index].lines()

    def sample_resident_line(self, rng,
                             evictable: Optional[Callable[[int], bool]] = None,
                             ) -> Optional[int]:
        """A uniformly random resident line passing ``evictable``, or
        ``None`` if nothing qualifies.  Used by the chaos engine
        (``repro.chaos``) to pick forced-eviction victims; candidates are
        sorted so the draw depends only on ``rng``'s seed, never on dict
        iteration order."""
        start = rng.randrange(self.num_sets)
        for offset in range(self.num_sets):
            cache_set = self._sets[(start + offset) & self._mask]
            lines = sorted(cache_set.lines())
            if evictable is not None:
                lines = [line for line in lines if evictable(line)]
            if lines:
                return rng.choice(lines)
        return None

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    # -- checkpoint shape ----------------------------------------------
    #
    # A tag array is mostly empty sets.  Serialize only the occupied
    # sets as ``(set_index, [(line, state), ...])`` rows — the item
    # order of each row is the set's LRU->MRU order, so a restored
    # array replays identical victim choices.  Restoring materializes
    # only those rows; every other set is ``_EMPTY`` again.

    def __getstate__(self):
        return {"params": self.params,
                "occupied": [(index, list(s._lines.items()))
                             for index, s in enumerate(self._sets)
                             if s._lines]}

    def __setstate__(self, state) -> None:
        params = state["params"]
        self.params = params
        self.num_sets = params.sets
        self._mask = self.num_sets - 1
        self._sets = [_EMPTY] * self.num_sets
        for index, items in state["occupied"]:
            cache_set = self._sets[index] = LRUSet(params.ways)
            cache_set._lines.update(items)


class MSHR:
    """A miss-status holding register: one outstanding line fill.

    Secondary misses to the same line merge their completion callbacks; the
    Early Pinning design also parks a Pinned bit here (paper §6.1.2), which
    we model by letting the pinning controller observe outstanding lines.
    """

    __slots__ = ("line", "callbacks", "issued_cycle")

    def __init__(self, line: int, issued_cycle: int) -> None:
        self.line = line
        self.issued_cycle = issued_cycle
        self.callbacks: List[Callable[[int], None]] = []


class MSHRFile:
    """The set of outstanding fills for one L1 cache."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, MSHR] = {}

    def outstanding(self, line: int) -> Optional[MSHR]:
        return self._entries.get(line)

    def allocate(self, line: int, cycle: int) -> MSHR:
        if line in self._entries:
            raise ValueError(f"MSHR for line {line:#x} already allocated")
        entry = MSHR(line, cycle)
        self._entries[line] = entry
        return entry

    def retire(self, line: int) -> MSHR:
        return self._entries.pop(line)

    def __len__(self) -> int:
        return len(self._entries)

    def lines(self):
        return self._entries.keys()
