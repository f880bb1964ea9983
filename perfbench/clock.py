"""Host time scaled to a fixed host speed.

A shared host runs this process at speeds that differ by up to 1.7x,
switching every hundred milliseconds or so as other tenants come and
go; CPU time follows the same swings, so it is no steadier.  The
benchmark therefore times every op together with a short probe: fixed
pure-Python loops, run just before and just after the op.  Both run on
the same interpreter at the same host speed, so

    scaled seconds = host seconds * REF_PROBE_S / probe seconds

is the op's host time at the speed where the probe takes
``REF_PROBE_S``.  A change to the simulator moves the op and not the
probe (the probe is this file's own code), so it shows in full; a change
in host speed moves both and cancels.  Raw host seconds are kept beside
the scaled ones in every run record.

The probe is two loops: one over a small dict, which follows the fast
switches closely, and one over a list larger than a core's cache, which
follows the slower drifts that come from other tenants' memory traffic.
Their sum tracks the simulator's speed better than either alone.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from typing import Iterator, List

#: The probe's host seconds at the fast speed of a shared 2-vCPU Xeon
#: (Python 3.11), so that scaled seconds read as that host's seconds.
REF_PROBE_S = 6.7e-4
#: A probe taken this recently still gives the host's speed, so the probe
#: after one op serves as the probe before the next.
REUSE_S = 0.02

_BIG_MASK = (1 << 18) - 1
#: 2 MiB of pointers to the interpreter's shared small ints.
_BIG = [i & 0xFF for i in range(_BIG_MASK + 1)]
#: (perf_counter when it ended, seconds) of the latest probe.
_last: List[float] = [float("-inf"), 0.0]


def _small_dict_loop(n: int = 3000) -> int:
    table: dict = {}
    acc = 0
    for i in range(n):
        table[i & 1023] = acc
        acc += table.get((i * 7) & 1023, 0) & 0xFF
    return acc


def _big_list_loop(n: int = 1200) -> int:
    table = _BIG
    acc = 0
    for i in range(n):
        j = (i * 40503 + acc) & _BIG_MASK
        table[j] = acc
        acc += table[(j * 7) & _BIG_MASK] & 0xFF
    return acc


def _fastest(loop) -> float:
    """Host seconds of ``loop``, fastest of three back to back (an
    interrupt lengthens one run; the host speed holds for all)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - start)
    return best


def probe() -> float:
    return _fastest(_small_dict_loop) + _fastest(_big_list_loop)


@dataclasses.dataclass
class Timing:
    raw_s: float = 0.0
    #: ``raw_s`` scaled by the probes on either side of the op.
    s: float = 0.0


@contextmanager
def timed() -> Iterator[Timing]:
    """Time the body in host seconds and in scaled seconds."""
    timing = Timing()
    ended, before = _last
    if time.perf_counter() - ended > REUSE_S:
        before = probe()
    start = time.perf_counter()
    try:
        yield timing
    finally:
        timing.raw_s = time.perf_counter() - start
        after = probe()
        _last[:] = [time.perf_counter(), after]
        timing.s = timing.raw_s * 2 * REF_PROBE_S / (before + after)
