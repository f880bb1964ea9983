"""In-memory timing spans recorded around calls into the simulator's layers.

A span is ``(name, start, end, parent, cell)``: host seconds from
``time.perf_counter``, the index of the enclosing span (``None`` at the
root) and the id of the sweep cell it belongs to (``None`` outside
cells).  Spans stay in memory until the run ends; ``chrome_trace``
turns them into Chrome trace-event JSON that Perfetto opens, and
``self_times`` gives each layer's self time: a span's duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, Optional[int], Optional[str]]


class Tracer:
    """Records nested spans while ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._open: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, cell]
        self._stack.append(len(self._open))
        self._open.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @property
    def spans(self) -> List[Span]:
        return [tuple(record) for record in self._open]


def _covered(start: float, end: float,
             intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the union of its children's."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _cell in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [end - start - _covered(start, end, children.get(index, ()))
            for index, (_n, start, end, _p, _c) in enumerate(spans)]


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``{name: {"count", "total_s", "self_s"}}`` summed over spans."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
    return table


def format_layer_table(table: Dict[str, Dict[str, float]]) -> str:
    lines = [f"{'span':<20}{'count':>8}{'total_s':>12}{'self_s':>12}"]
    for name, row in sorted(table.items(), key=lambda item:
                            -item[1]["self_s"]):
        lines.append(f"{name:<20}{row['count']:>8}{row['total_s']:>12.4f}"
                     f"{row['self_s']:>12.4f}")
    return "\n".join(lines)


def chrome_trace(spans: Sequence[Span]) -> Dict:
    """Complete ("X") trace events, microseconds from the first span."""
    origin = min((span[1] for span in spans), default=0.0)
    events = []
    for index, (name, start, end, parent, cell) in enumerate(spans):
        args: Dict = {"id": index, "parent": parent}
        if cell is not None:
            args["cell"] = cell
        events.append({"name": name, "cat": name.split(".", 1)[0],
                       "ph": "X", "pid": 1, "tid": 1,
                       "ts": (start - origin) * 1e6,
                       "dur": (end - start) * 1e6, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
