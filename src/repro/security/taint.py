"""Speculative taint tracking for the STT defense scheme.

STT (Yu et al., MICRO'19) lets loads execute speculatively *unless* their
address operands are tainted, i.e. derived from a load that has not yet
reached its Visibility Point.  When a load reaches its VP, its output —
and transitively everything computed from it — becomes untainted.

We track, per uop, the set of *root loads* in its dataflow backward slice
(``output_roots``).  A value is currently tainted iff any of its root loads
is still in flight and pre-VP, so untaint-on-VP is a O(roots) liveness check
at query time instead of an eager broadcast.

With the column ROB layout a root's liveness probe is pure integer
arithmetic: live means "inside the contiguous window ``[head, next)``",
and pre-VP means "the VP column at ``root & mask`` is still -1" — no
dict lookup, no entry object.

Quiet/wakeup contract (the engine's quiet bound,
``repro.sim.engine._make_quiet``): taint has no per-cycle
machinery of its own — ``addr_tainted`` is a pure function of the root
maps and of each root's (vp_cycle, ROB residency) state.  Roots are
written at dispatch and their liveness flips only at VP marking, retire,
or squash; each of those re-arms the core's ``_wake_pending`` flag, and
taint-driven untainting *propagates* through the VP frontier walk the
marking triggers.  A quiet STT core therefore needs no taint ticks: the
answer to every ``addr_tainted`` query is frozen until the next flagged
mutation or event.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.core.rob import ReorderBuffer, ROBEntry
from repro.isa.uops import MicroOp

_EMPTY: FrozenSet[int] = frozenset()


class TaintTracker:
    """Per-core STT taint state."""

    __slots__ = ("_rob", "_output_roots")

    def __init__(self, rob: ReorderBuffer) -> None:
        self._rob = rob
        self._output_roots: Dict[int, FrozenSet[int]] = {}

    def on_dispatch(self, uop: MicroOp) -> None:
        """Record the taint roots of this uop's output.

        A load's output is rooted at the load itself; any other uop's output
        unions its operands' roots.  Re-dispatch after a squash overwrites
        the stale entry.
        """
        if uop.is_load:
            self._output_roots[uop.index] = frozenset((uop.index,))
            return
        output_roots = self._output_roots
        roots = _EMPTY
        for dep in uop.deps:
            dep_roots = output_roots.get(dep)
            if dep_roots:
                roots = roots | self._live_subset(dep_roots)
        output_roots[uop.index] = roots

    def _live_subset(self, roots: FrozenSet[int]) -> FrozenSet[int]:
        """Drop roots that are already architectural (retired / post-VP).
        The all-live case (by far the most common) allocates nothing."""
        rob = self._rob
        head = rob._head
        nxt = rob._next
        vp = rob.cols.vp
        mask = rob._mask
        # order-insensitive probe: any dead root takes the same fallback
        for root in roots:  # repro: allow-set-iteration
            if root < head or root >= nxt or vp[root & mask] >= 0:
                break
        else:
            return roots
        return frozenset(
            r for r in roots
            if head <= r < nxt and vp[r & mask] < 0)

    def _is_live_pre_vp(self, root_index: int) -> bool:
        rob = self._rob
        return rob._head <= root_index < rob._next \
            and rob.cols.vp[root_index & rob._mask] < 0

    def addr_tainted(self, entry: ROBEntry) -> bool:
        """Is the load's address derived from a pre-VP speculative load?"""
        output_roots = self._output_roots
        rob = self._rob
        head = rob._head
        nxt = rob._next
        vp = rob.cols.vp
        mask = rob._mask
        for dep in entry.uop.deps:
            roots = output_roots.get(dep)
            if roots:
                for root in roots:
                    if head <= root < nxt and vp[root & mask] < 0:
                        return True
        return False

    def output_roots(self, index: int) -> FrozenSet[int]:
        return self._output_roots.get(index, _EMPTY)
