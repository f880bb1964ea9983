"""Randomized parity of the struct-of-arrays specialized engine.

``System.run`` always runs on ``repro.sim.engine`` — per-scheme
specialized inner loops over precompiled trace arrays.  The property
that keeps that loop honest mirrors the quiet-wakeup suite: for *any*
generated workload and *any* scheme (the paper grid plus invisible
speculation), with or without chaos fault injection, the engine must be
bit-indistinguishable from the cycle-by-cycle ``run_reference`` oracle
— equal cycle counts, equal per-core pipeline *and* pinning statistics.

More properties pin down the seams:

* checkpoint format 3 (array snapshots) taken mid-run under the engine
  must resume to the exact same end state as an uninterrupted run;
* every configuration builds an engine: sanitized runs, invisible
  speculation, adversarial (transient) traces and mutated defenses,
  each matching ``run_reference`` — the attack campaign's cells run
  unsanitized here so quiet skipping is exercised;
* an adversarial run never writes the shared memoized trace decode.
"""

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.params import (ChaosConfig, DefenseKind, PinningMode,
                                 SystemConfig, ThreatModel)
from repro.isa.compiled import CompiledTrace, compile_trace
from repro.isa.trace import Trace, Workload
from repro.isa.uops import MicroOp, OpClass
from repro.security.attacks import ATTACK_CLASSES, attack_cell
from repro.security.campaign import MUTANT_CHECKS, all_scheme_names
from repro.sim.checkpoint import restore_system, snapshot_system
from repro.sim.engine import SpecializedEngine
from repro.sim.runner import collect_result, scheme_grid
from repro.sim.system import System
from repro.workloads import WorkloadProfile, build_workload

BASE = SystemConfig()

#: Invisible speculation (outside the paper grid): Spectre, and
#: Comprehensive with each pinning design.
INVISI = {
    "invisi-spectre": BASE.with_defense(DefenseKind.INVISI,
                                        ThreatModel.CTRL),
    "invisi-comp": BASE.with_defense(DefenseKind.INVISI, ThreatModel.MCV),
    "invisi-lp": BASE.with_defense(DefenseKind.INVISI, ThreatModel.MCV,
                                   PinningMode.LATE),
    "invisi-ep": BASE.with_defense(DefenseKind.INVISI, ThreatModel.MCV,
                                   PinningMode.EARLY),
}

#: Label -> config for every scheme the paper measures, plus unsafe and
#: invisible speculation.
SCHEMES = dict(
    [("unsafe", BASE)]
    + [(label, BASE.with_defense(defense, threat, pinning))
       for label, (defense, threat, pinning)
       in sorted(scheme_grid().items())]
    + sorted(INVISI.items()))

#: Every fault class on: jitter+reorder, NACKs, evictions, WB spikes.
CHAOS = ChaosConfig(seed=3, wb_spike_interval=300)

PROFILES = st.builds(
    WorkloadProfile,
    name=st.just("soa"),
    load_frac=st.floats(min_value=0.1, max_value=0.35),
    store_frac=st.floats(min_value=0.02, max_value=0.15),
    branch_frac=st.floats(min_value=0.02, max_value=0.25),
    fp_frac=st.floats(min_value=0.0, max_value=0.9),
    mispredict_rate=st.floats(min_value=0.0, max_value=0.15),
    warm_frac=st.floats(min_value=0.0, max_value=0.3),
    stream_frac=st.floats(min_value=0.0, max_value=0.2),
    dependent_load_frac=st.floats(min_value=0.0, max_value=0.5),
    hot_lines=st.integers(min_value=16, max_value=512),
    warm_lines=st.integers(min_value=512, max_value=4096),
)

SLOW = settings(max_examples=10, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _fresh(config, workload):
    system = System(config, workload)
    system.mem.warm(workload)
    return system


def _assert_indistinguishable(opt, ref, label):
    assert opt.cycles == ref.cycles, label
    for oc, rc in zip(opt.cores, ref.cores):
        assert oc.stats.as_dict() == rc.stats.as_dict(), \
            f"{label}: core {oc.core_id} pipeline stats"
        assert oc.controller.stats.as_dict() \
            == rc.controller.stats.as_dict(), \
            f"{label}: core {oc.core_id} pinning stats"
        assert oc.retired == rc.retired, label


class TestEngineMatchesReference:
    @SLOW
    @given(profile=PROFILES,
           seed=st.integers(min_value=1, max_value=50),
           label=st.sampled_from(sorted(SCHEMES)),
           chaos=st.booleans())
    def test_engine_matches_reference(self, profile, seed, label, chaos):
        """For any workload, scheme, and fault schedule, the engine run
        must match ``run_reference`` on cycles and every per-core
        statistic."""
        workload = build_workload(profile, seed=seed,
                                  instructions_per_thread=250)
        config = SCHEMES[label]
        if chaos:
            config = dataclasses.replace(config, chaos=CHAOS)
        opt = _fresh(config, workload)
        opt.run()
        assert isinstance(opt._engine, SpecializedEngine), \
            f"{label}: expected the specialized engine to be eligible"
        ref = _fresh(config, workload)
        ref.run_reference()
        _assert_indistinguishable(opt, ref,
                                  f"{label} chaos={chaos} seed={seed}")


class TestCheckpointMidRun:
    @SLOW
    @given(profile=PROFILES,
           seed=st.integers(min_value=1, max_value=50),
           label=st.sampled_from(sorted(SCHEMES)),
           fraction=st.floats(min_value=0.1, max_value=0.9))
    def test_snapshot_resume_bit_identity(self, profile, seed, label,
                                          fraction):
        """A format-3 snapshot taken mid-run under the engine, restored
        into a fresh process-local ``System``, must finish with exactly
        the state an uninterrupted run reaches."""
        workload = build_workload(profile, seed=seed,
                                  instructions_per_thread=250)
        config = SCHEMES[label]
        straight = _fresh(config, workload)
        total = straight.run()
        paused = _fresh(config, workload)
        paused.run(stop_cycle=max(1, int(total * fraction)))
        resumed = restore_system(snapshot_system(paused))
        resumed.run()
        _assert_indistinguishable(resumed, straight,
                                  f"{label} seed={seed} f={fraction:.2f}")


class TestEngineBuild:
    def _workload(self):
        profile = WorkloadProfile(name="soa-build", load_frac=0.25,
                                  store_frac=0.1)
        return build_workload(profile, seed=7,
                              instructions_per_thread=150)

    def test_sanitized_run_builds_engine(self):
        """The sanitizer hooks the engine's ticks instead of keeping the
        run off it: a sanitized run builds an engine and matches the
        unsanitized run on cycles and every per-core statistic."""
        workload = self._workload()
        plain = _fresh(SCHEMES["fence-comp"], workload)
        plain.run()
        config = dataclasses.replace(SCHEMES["fence-comp"], sanitize=True)
        sanitized = _fresh(config, workload)
        sanitized.run()
        assert isinstance(sanitized._engine, SpecializedEngine)
        _assert_indistinguishable(sanitized, plain, "sanitized fence-comp")

    def test_invisi_builds_engine_and_matches_reference(self):
        """Invisible speculation has no specialized issue loop: the
        engine issues its loads through the generic stage, and every
        threat-model / pinning combination matches the oracle."""
        workload = self._workload()
        for label, config in INVISI.items():
            opt = _fresh(config, workload)
            opt.run()
            assert isinstance(opt._engine, SpecializedEngine), label
            ref = _fresh(config, workload)
            ref.run_reference()
            _assert_indistinguishable(opt, ref, label)

    def test_restored_system_rebuilds_engine_lazily(self):
        """``__getstate__`` drops the compiled engine; the next ``run``
        after a restore must rebuild it rather than crash."""
        config = SCHEMES["dom-ep"]
        workload = self._workload()
        paused = _fresh(config, workload)
        paused.run(stop_cycle=50)
        resumed = restore_system(snapshot_system(paused))
        assert resumed._engine is None
        resumed.run()
        assert isinstance(resumed._engine, SpecializedEngine)


#: (scheme, mutation) pairs of the attack campaign: every scheme as is,
#: plus each defense mutant on its family's Comprehensive scheme.
ATTACK_SCHEMES = [(scheme, "") for scheme in all_scheme_names()] + [
    (f"{family}-comp", mutation) for mutation, family, _ in MUTANT_CHECKS]


class TestAdversarialParity:
    @pytest.mark.parametrize("scheme,mutation", ATTACK_SCHEMES)
    @pytest.mark.parametrize("attack", ATTACK_CLASSES)
    def test_attack_cell_matches_reference(self, attack, scheme, mutation):
        """The campaign's cells run unsanitized (so quiet skipping and
        the NOP-twin-aware quiet bound are live) and match the oracle on
        cycles, every statistic and the probe timings."""
        for seed, secret in itertools.product((0, 1, 2), (0, 1)):
            config, workload = attack_cell(attack, secret, seed, scheme)
            config = dataclasses.replace(config, defense_mutation=mutation)
            opt = System(config, workload)
            opt.mem.warm(workload)
            opt.run()
            assert isinstance(opt._engine, SpecializedEngine)
            ref = System(config, workload)
            ref.mem.warm(workload)
            ref.run_reference()
            label = f"{attack}/{scheme}/{mutation} seed={seed} " \
                f"secret={secret}"
            _assert_indistinguishable(opt, ref, label)
            assert collect_result(opt).to_dict() \
                == collect_result(ref).to_dict(), label

    def test_transient_run_leaves_shared_decode_untouched(self):
        """NOP twins are written into the engine's private rows only:
        the memoized ``compile_trace`` decode, shared by every system on
        the same trace, must still equal a fresh decode after a run in
        which twins were dispatched."""
        config, workload = attack_cell("prime_probe", 1, 1, "unsafe")
        shared = [compile_trace(trace) for trace in workload.traces]
        system = System(config, workload)
        system.mem.warm(workload)
        system.run()
        assert any(core._resolved_mispredicts for core in system.cores)
        for trace, memo in zip(workload.traces, shared):
            assert compile_trace(trace) is memo
            fresh = CompiledTrace(trace)
            for name in CompiledTrace.__slots__:
                assert getattr(memo, name) == getattr(fresh, name), name

    @pytest.mark.parametrize("attack", ATTACK_CLASSES)
    def test_checkpoint_at_every_cycle_resumes_identically(self, attack):
        """A core restored with NOP twins already in its ROB must see
        their rows rewritten before its first stage runs (the rows are
        re-derived when the engine is built, not checkpointed)."""
        config, workload = attack_cell(attack, 1, 1, "unsafe")
        straight = _fresh(config, workload)
        total = straight.run()
        for stop in range(1, total):
            paused = _fresh(config, workload)
            paused.run(stop_cycle=stop)
            resumed = restore_system(snapshot_system(paused))
            resumed.run()
            _assert_indistinguishable(resumed, straight,
                                      f"{attack} stop={stop}")

    def test_quiet_bound_sees_pending_twin(self):
        """A full LQ blocks a transient load's original but not its NOP
        twin.  Here the guard resolves while the LQ is full of loads that
        forwarded (so no fill event is near): the quiet bound must wake
        the core at the fetch resteer to dispatch the twin and the FP
        chain behind it, not sleep until the blocking miss returns."""
        line = 0x200 * 64
        uops = [MicroOp(0, OpClass.LOAD, addr=0x100000 * 64),
                MicroOp(1, OpClass.STORE, addr=line)]
        uops += [MicroOp(i, OpClass.LOAD, addr=line) for i in range(2, 63)]
        uops += [MicroOp(63, OpClass.BRANCH, mispredicted=True),
                 MicroOp(64, OpClass.LOAD, addr=0x300 * 64, guard=63),
                 MicroOp(65, OpClass.FP_ALU)]
        uops += [MicroOp(i, OpClass.FP_ALU, deps=(i - 1,))
                 for i in range(66, 185)]
        workload = Workload([Trace(uops)], name="full-lq-twin")
        config = SystemConfig()
        assert config.core.load_queue_entries == 62
        opt = System(config, workload)
        opt.run()
        ref = System(config, workload)
        ref.run_reference()
        assert opt.cores[0].stats["squashes_branch"] == 1
        _assert_indistinguishable(opt, ref, "full-lq twin")
