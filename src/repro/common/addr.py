"""Address arithmetic: cache lines, set indices, and LLC slice mapping.

All addresses in the simulator are integer byte addresses.  A *line* is the
address right-shifted by ``LINE_SHIFT`` — coherence, pinning, and the CST
all operate on line numbers, never byte addresses.
"""

from __future__ import annotations

from repro.common.params import LINE_BYTES, LINE_SHIFT


def line_of(addr: int) -> int:
    """Cache-line number containing byte address ``addr``."""
    return addr >> LINE_SHIFT


def line_addr(line: int) -> int:
    """First byte address of cache line ``line``."""
    return line << LINE_SHIFT


def set_index(line: int, num_sets: int) -> int:
    """Set index of ``line`` in a cache with ``num_sets`` sets."""
    return line & (num_sets - 1)


def slice_of(line: int, num_slices: int) -> int:
    """LLC slice holding ``line``.

    Real processors hash the address; we use a multiplicative hash so that
    consecutive lines spread across slices (a pure modulo would alias the
    strided synthetic workloads onto one slice).
    """
    return ((line * 0x9E3779B1) >> 16) % num_slices


def offset_in_line(addr: int) -> int:
    return addr & (LINE_BYTES - 1)
