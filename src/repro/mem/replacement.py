"""Replacement policies for the set-associative cache arrays.

Only the interface matters to the rest of the simulator: a policy orders the
resident lines of one set from most- to least-attractive victim, and the
cache asks for victims *subject to a pinned-line filter* — Pinned Loads'
eviction-denial rule (paper §5.1.3) is "skip pinned victims and update the
replacement state as if the pinned line had been accessed".
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional


class LRUSet:
    """One cache set tracked in least-recently-used order.

    Keys are line numbers; values are caller-owned state objects.  The
    iteration order of the underlying dict runs from LRU to MRU: plain
    dicts preserve insertion order, and "recently used" is re-insertion
    at the end (``pop`` + assign).  A plain dict is preferred over
    ``collections.OrderedDict``: it keeps the same order at a smaller
    per-set footprint.  Checkpoints never pickle ``LRUSet`` objects;
    ``CacheArray.__getstate__`` writes the line items of occupied sets.
    """

    __slots__ = ("_lines", "ways")

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self._lines: Dict[int, object] = {}

    def __contains__(self, line: int) -> bool:
        return line in self._lines

    def __len__(self) -> int:
        return len(self._lines)

    def get(self, line: int):
        return self._lines.get(line)

    def touch(self, line: int) -> None:
        lines = self._lines
        lines[line] = lines.pop(line)

    def insert(self, line: int, state) -> None:
        if len(self._lines) >= self.ways:
            raise ValueError("set full; evict first")
        self._lines[line] = state

    def update(self, line: int, state) -> None:
        self._lines.pop(line, None)
        self._lines[line] = state

    def remove(self, line: int) -> None:
        del self._lines[line]

    @property
    def full(self) -> bool:
        return len(self._lines) >= self.ways

    def lines(self) -> Iterable[int]:
        return self._lines.keys()

    def pick_victim(self, evictable: Optional[Callable[[int], bool]] = None,
                    ) -> Optional[int]:
        """Return the LRU line for which ``evictable`` holds.

        Pinned (non-evictable) lines that are skipped get promoted to MRU,
        matching the paper's "update the replacement algorithm state as if
        the line had been accessed".  Returns ``None`` when every resident
        line is pinned.
        """
        lines = self._lines
        skipped = []
        victim = None
        for line in lines:
            if evictable is None or evictable(line):
                victim = line
                break
            skipped.append(line)
        for line in skipped:
            lines[line] = lines.pop(line)
        return victim
