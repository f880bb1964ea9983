"""Checkpoint/resume: a run paused at any cycle boundary, serialized,
restored, and resumed must finish with *bit-identical* results.

The contracts under test:

* round-trip equivalence holds for every scheme — unsafe, InvisiSpec,
  and Fence/DOM/STT each under Late and Early Pinning — and with the
  chaos engine's RNG/backoff state in the checkpoint;
* ``System.run(stop_cycle=...)`` pauses at a clean boundary and resumes
  from ``self.cycles``;
* checkpoints are refused (``CheckpointError``) for sanitized systems,
  corrupt blobs, and format-version mismatches — never silently wrong;
* ``run_with_checkpoints`` leaves a rolling checkpoint that a fresh
  process can resume to the same statistics.
"""

import dataclasses
import os
import pickle

import pytest

from repro.common.errors import CheckpointError
from repro.common.params import (COMPREHENSIVE, ChaosConfig, DefenseKind,
                                 PinningMode, SystemConfig)
from repro.sim.checkpoint import (CHECKPOINT_FORMAT_VERSION, load_checkpoint,
                                  restore_system, run_with_checkpoints,
                                  save_checkpoint, snapshot_system)
from repro.sim.runner import collect_result
from repro.sim.system import System
from repro.workloads import parallel_workload, spec17_workload

BASE = SystemConfig()

#: Every scheme of the paper's evaluation: the unprotected baseline,
#: the InvisiSpec-class comparison point, and each delay-based defense
#: under both pinning flavors.
SCHEMES = {
    "unsafe": BASE,
    "invisi": BASE.with_defense(DefenseKind.INVISI, COMPREHENSIVE,
                                PinningMode.NONE),
    "fence-lp": BASE.with_defense(DefenseKind.FENCE, COMPREHENSIVE,
                                  PinningMode.LATE),
    "fence-ep": BASE.with_defense(DefenseKind.FENCE, COMPREHENSIVE,
                                  PinningMode.EARLY),
    "dom-lp": BASE.with_defense(DefenseKind.DOM, COMPREHENSIVE,
                                PinningMode.LATE),
    "dom-ep": BASE.with_defense(DefenseKind.DOM, COMPREHENSIVE,
                                PinningMode.EARLY),
    "stt-lp": BASE.with_defense(DefenseKind.STT, COMPREHENSIVE,
                                PinningMode.LATE),
    "stt-ep": BASE.with_defense(DefenseKind.STT, COMPREHENSIVE,
                                PinningMode.EARLY),
}


def small_workload(instructions=300):
    return spec17_workload("mcf_r", instructions=instructions)


def _run_fresh(config, workload):
    system = System(config, workload)
    system.mem.warm(workload)
    system.run()
    return system


class TestRoundTripEveryScheme:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES), ids=sorted(SCHEMES))
    def test_resume_is_bit_identical(self, scheme):
        config = SCHEMES[scheme]
        workload = small_workload()
        reference = _run_fresh(config, workload)
        expected = collect_result(reference).to_dict()

        paused = System(config, workload)
        paused.mem.warm(workload)
        stop = max(1, reference.cycles // 2)
        paused.run(stop_cycle=stop)
        assert not paused.done
        assert paused.cycles == stop
        resumed = restore_system(snapshot_system(paused))
        resumed.run()
        assert resumed.done
        assert collect_result(resumed).to_dict() == expected

    def test_resume_with_chaos_state(self):
        """RNG state, NACK backoff counters, and pending chaos events all
        live in the checkpoint: the resumed chaos run must replay the
        exact fault schedule of an uninterrupted one."""
        workload = small_workload(500)
        config = dataclasses.replace(
            SCHEMES["fence-ep"],
            chaos=ChaosConfig(seed=7, wb_spike_interval=200))
        reference = _run_fresh(config, workload)
        expected = collect_result(reference).to_dict()
        paused = System(config, workload)
        paused.mem.warm(workload)
        paused.run(stop_cycle=max(1, reference.cycles // 3))
        resumed = restore_system(snapshot_system(paused))
        resumed.run()
        assert collect_result(resumed).to_dict() == expected

    @pytest.mark.parametrize("scheme", sorted(SCHEMES), ids=sorted(SCHEMES))
    def test_chaos_resume_is_bit_identical(self, scheme):
        """The chaos round trip must hold per scheme, not just on one
        cell: each defense family checkpoints different column state
        (taint roots, pin tables, invisible buffers), and all of it has
        to coexist with the chaos RNG/backoff state in the v4 format."""
        workload = small_workload(500)
        config = dataclasses.replace(
            SCHEMES[scheme],
            chaos=ChaosConfig(seed=11, wb_spike_interval=150))
        reference = _run_fresh(config, workload)
        expected = collect_result(reference).to_dict()
        paused = System(config, workload)
        paused.mem.warm(workload)
        paused.run(stop_cycle=max(1, reference.cycles // 3))
        assert not paused.done
        resumed = restore_system(snapshot_system(paused))
        resumed.run()
        assert resumed.done
        assert collect_result(resumed).to_dict() == expected

    def test_multithreaded_round_trip(self):
        workload = parallel_workload("radix", num_threads=2,
                                     instructions_per_thread=250)
        config = SystemConfig(num_cores=2).with_defense(
            DefenseKind.FENCE, COMPREHENSIVE, PinningMode.EARLY)
        reference = _run_fresh(config, workload)
        expected = collect_result(reference).to_dict()
        paused = System(config, workload)
        paused.mem.warm(workload)
        paused.run(stop_cycle=max(1, reference.cycles // 2))
        resumed = restore_system(snapshot_system(paused))
        resumed.run()
        assert collect_result(resumed).to_dict() == expected


class TestStopCycle:
    def test_pause_then_resume_in_place(self):
        """Resuming the *same* object (no serialization) also matches."""
        workload = small_workload()
        config = SCHEMES["fence-lp"]
        reference = _run_fresh(config, workload)
        system = System(config, workload)
        system.mem.warm(workload)
        for stop in (50, 150, 400):
            system.run(stop_cycle=stop)
            if system.done:
                break
            assert system.cycles == stop
        system.run()
        assert system.cycles == reference.cycles

    def test_stop_past_completion_is_harmless(self):
        workload = small_workload()
        reference = _run_fresh(BASE, workload)
        system = System(BASE, workload)
        system.mem.warm(workload)
        system.run(stop_cycle=reference.cycles * 10)
        assert system.done
        assert system.cycles == reference.cycles


class TestCheckpointFiles:
    def test_save_load_round_trip(self, tmp_path):
        workload = small_workload()
        config = SCHEMES["dom-ep"]
        reference = _run_fresh(config, workload)
        expected = collect_result(reference).to_dict()
        system = System(config, workload)
        system.mem.warm(workload)
        system.run(stop_cycle=max(1, reference.cycles // 2))
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(system, path)
        resumed = load_checkpoint(path)
        resumed.run()
        assert collect_result(resumed).to_dict() == expected

    def test_run_with_checkpoints_matches_plain_run(self, tmp_path):
        workload = small_workload()
        config = SCHEMES["stt-ep"]
        reference = _run_fresh(config, workload)
        system = System(config, workload)
        system.mem.warm(workload)
        path = str(tmp_path / "rolling.ckpt")
        cycles = run_with_checkpoints(system, path, interval=100)
        assert cycles == reference.cycles
        # the rolling checkpoint from mid-run is itself resumable
        assert os.path.exists(path)
        resumed = load_checkpoint(path)
        assert not resumed.done
        resumed.run()
        assert collect_result(resumed).to_dict() \
            == collect_result(reference).to_dict()

    def test_sanitized_system_is_refused(self):
        workload = small_workload()
        config = dataclasses.replace(SCHEMES["fence-ep"], sanitize=True)
        system = System(config, workload)
        with pytest.raises(CheckpointError):
            snapshot_system(system)

    def test_corrupt_blob_is_refused(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_format_mismatch_is_refused(self):
        blob = pickle.dumps({"format": CHECKPOINT_FORMAT_VERSION + 1,
                             "cycle": 0, "system": None})
        with pytest.raises(CheckpointError):
            restore_system(blob)

    def test_v3_blob_is_refused_with_versions_named(self):
        """A pre-column (format 3) checkpoint is refused outright — no
        silent migration of per-uop handle state into columns — and the
        error names both versions so the operator knows it is a format
        gap, not corruption."""
        blob = pickle.dumps({"format": 3, "cycle": 120, "system": None})
        with pytest.raises(CheckpointError) as excinfo:
            restore_system(blob)
        message = str(excinfo.value)
        assert "3" in message
        assert str(CHECKPOINT_FORMAT_VERSION) in message

    def test_v5_blob_is_refused_with_versions_named(self):
        """A format-5 checkpoint predates lazily built cache sets and CST
        rows; it is refused rather than restored into them."""
        blob = pickle.dumps({"format": 5, "cycle": 120, "system": None})
        with pytest.raises(CheckpointError) as excinfo:
            restore_system(blob)
        message = str(excinfo.value)
        assert "5" in message
        assert str(CHECKPOINT_FORMAT_VERSION) in message

    def test_v3_file_is_refused(self, tmp_path):
        path = str(tmp_path / "old-format.ckpt")
        with open(path, "wb") as fh:
            fh.write(pickle.dumps({"format": 3, "cycle": 120,
                                   "system": None}))
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))
