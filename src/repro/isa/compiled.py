"""Trace precompilation: one flat struct-of-arrays view per ``Trace``.

The specialized run loops (``repro.sim.engine``) touch the trace on
every dispatch and on every quiet-bound probe.  Going through the
per-uop object model costs an object index, an attribute load, and —
for ``is_load``/``is_store`` — a property *call* per touch.  A
``CompiledTrace`` decodes the whole trace once per run into parallel
arrays indexed by the program-order position (the integer handle the
core's cursor already is):

* ``opcodes``   — one byte per uop (``OP_*`` codes below);
* ``is_load`` / ``is_store`` / ``mispredicted`` — byte flags;
* ``lines``     — the cache line (``addr >> 6``) or ``-1``;
* ``barrier_ids`` — the rendezvous id or ``-1``;
* ``deps`` / ``data_deps`` — CSR form: ``deps_flat[deps_start[i]:
  deps_start[i+1]]`` are uop ``i``'s operand producers.

The arrays are derived, immutable, and cheap to rebuild, so they are
*not* checkpoint state: the engine that owns them is dropped from the
pickled ``System`` graph and recompiled lazily after a restore.  The
``uops`` list is retained so dispatch can hand the original ``MicroOp``
to a fresh ``ROBEntry`` (execution state stays in the object model).
"""

from __future__ import annotations

import weakref
from array import array
from typing import Dict, List

from repro.isa.trace import Trace
from repro.isa.uops import MicroOp, OpClass

#: Stable opcode bytes; order mirrors the ``OpClass`` declaration.
OP_INT_ALU = 0
OP_FP_ALU = 1
OP_BRANCH = 2
OP_LOAD = 3
OP_STORE = 4
OP_FENCE = 5
OP_ATOMIC = 6
OP_BARRIER = 7

OP_CODES: Dict[OpClass, int] = {
    OpClass.INT_ALU: OP_INT_ALU,
    OpClass.FP_ALU: OP_FP_ALU,
    OpClass.BRANCH: OP_BRANCH,
    OpClass.LOAD: OP_LOAD,
    OpClass.STORE: OP_STORE,
    OpClass.FENCE: OP_FENCE,
    OpClass.ATOMIC: OP_ATOMIC,
    OpClass.BARRIER: OP_BARRIER,
}


class CompiledTrace:
    """Struct-of-arrays decode of one immutable ``Trace``."""

    __slots__ = ("length", "opcodes", "is_load", "is_store", "lines",
                 "mispredicted", "barrier_ids", "deps_start", "deps_flat",
                 "data_start", "data_flat", "uops")

    def __init__(self, trace: Trace) -> None:
        uops: List[MicroOp] = list(trace)
        n = len(uops)
        self.length = n
        self.uops = uops
        opcodes = bytearray(n)
        is_load = bytearray(n)
        is_store = bytearray(n)
        mispredicted = bytearray(n)
        lines = array("q")
        barrier_ids = array("q")
        deps_start = array("q", [0] * (n + 1))
        data_start = array("q", [0] * (n + 1))
        deps_flat = array("q")
        data_flat = array("q")
        for i, uop in enumerate(uops):
            opcodes[i] = OP_CODES[uop.opclass]
            opclass = uop.opclass
            if opclass is OpClass.LOAD:
                is_load[i] = 1
            elif opclass is OpClass.STORE:
                is_store[i] = 1
            if uop.mispredicted:
                mispredicted[i] = 1
            lines.append(-1 if uop.addr is None else uop.addr >> 6)
            barrier_ids.append(-1 if uop.barrier_id is None
                               else uop.barrier_id)
            deps_flat.extend(uop.deps)
            deps_start[i + 1] = len(deps_flat)
            data_flat.extend(uop.data_deps)
            data_start[i + 1] = len(data_flat)
        # bytes (not bytearray): immutable and the fastest indexed read
        self.opcodes = bytes(opcodes)
        self.is_load = bytes(is_load)
        self.is_store = bytes(is_store)
        self.mispredicted = bytes(mispredicted)
        self.lines = lines
        self.barrier_ids = barrier_ids
        self.deps_start = deps_start
        self.deps_flat = deps_flat
        self.data_start = data_start
        self.data_flat = data_flat

    def private_copy(self) -> "CompiledTrace":
        """A copy whose ``opcodes`` / ``is_load`` / ``uops`` rows the
        caller may rewrite (the engine's NOP-twin substitution for
        adversarial traces).  The memoized decode is shared by every
        system bound to the same trace and must never be written."""
        copy = CompiledTrace.__new__(CompiledTrace)
        for name in self.__slots__:
            setattr(copy, name, getattr(self, name))
        copy.opcodes = bytearray(self.opcodes)
        copy.is_load = bytearray(self.is_load)
        copy.uops = list(self.uops)
        return copy


#: Per-trace memo: traces are immutable, so the decode is shared by
#: every system bound to the same workload (sweep repeats, the
#: configurations of one grid).  Weak keys keep the cache from pinning dead workloads.
_COMPILED: "weakref.WeakKeyDictionary[Trace, CompiledTrace]" = \
    weakref.WeakKeyDictionary()


def compile_trace(trace: Trace) -> CompiledTrace:
    compiled = _COMPILED.get(trace)
    if compiled is None:
        compiled = CompiledTrace(trace)
        _COMPILED[trace] = compiled
    return compiled
