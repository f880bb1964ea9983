"""Tests of the benchmark's own checks and arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import clock, run, spans, workloads
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[2]


def tiny_grid(seed):
    return workloads.GridBench("tiny", seed, ("mcf_r", "lbm_r"), 1, 300)


def ran(bench):
    bench.setup(Tracer())
    passes = run.run_passes(bench, Tracer(), 0, traced=False)
    return passes, bench.check(passes)


def test_verdict_checker_catches_a_flipped_verdict():
    assert workloads.check_verdict({"verdict": "leaks"}, "prime_probe",
                                   "unsafe") is None
    assert workloads.check_verdict({"verdict": "blocks"}, "prime_probe",
                                   "unsafe") is not None
    assert workloads.check_verdict({"verdict": "leaks"}, "prime_probe",
                                   "fence-ep") is not None


def test_reference_check_catches_a_perturbed_cycle_count():
    bench = tiny_grid(1)
    passes, check = ran(bench)
    assert check.failures == []
    first = passes[0]
    first.results = {cell: dataclasses.replace(result,
                                               cycles=result.cycles + 1)
                     for cell, result in first.results.items()}
    failures = bench.check(passes).failures
    assert len(failures) == workloads.REFERENCE_SAMPLES
    assert all("cycles" in failure for failure in failures)


def test_diff_results_names_the_perturbed_stat():
    passes, _check = ran(tiny_grid(2))
    result = next(iter(passes[0].results.values()))
    stats = dict(result.core_stats[0], retired=0)
    other = dataclasses.replace(result, core_stats={0: stats})
    assert workloads.diff_results(result, other) == ["core_stats.0.retired"]
    assert workloads.diff_results(result, result) == []


def test_self_times_of_a_synthetic_span_tree():
    tree = [
        ("pass", 0.0, 10.0, None, None),
        ("cell", 1.0, 4.0, 0, "a"),
        ("cell", 3.0, 6.0, 0, "b"),      # overlaps its sibling
        ("sim.run", 2.0, 3.0, 1, "a"),
        ("sim.run", 5.0, 7.0, 2, "b"),   # runs past its parent
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 2.0, 1.0,
                                                    2.0])
    table = spans.layer_table(tree)
    assert table["cell"] == pytest.approx({"count": 2, "total_s": 6.0,
                                           "self_s": 4.0})


def test_tracer_records_parents_and_cells():
    tracer = Tracer(enabled=True)
    with tracer.span("pass"):
        with tracer.span("cell", "x"):
            with tracer.span("sim.run", "x"):
                pass
        with tracer.span("analysis"):
            pass
    names = [(name, parent, cell)
             for name, _start, _end, parent, cell in tracer.spans]
    assert names == [("pass", None, None), ("cell", 0, "x"),
                     ("sim.run", 1, "x"), ("analysis", 0, None)]
    events = spans.chrome_trace(tracer.spans)["traceEvents"]
    assert [event["ph"] for event in events] == ["X"] * 4
    assert events[2]["args"] == {"id": 2, "parent": 1, "cell": "x"}
    idle = Tracer()
    with idle.span("pass"):
        pass
    assert idle.spans == []


def test_an_op_past_its_deadline_fails(monkeypatch):
    monkeypatch.setattr(workloads, "CELL_TIMEOUT_S", 0.05)
    out = workloads.PassOutcome()
    assert out.run_cell(Tracer(), "slow", lambda: time.sleep(5)) is None
    assert out.attempted == 1 and out.cell_s == {}
    assert out.failures == ["slow: TimeoutError: op exceeded 0.05 s"]


def test_p90_needs_ten_samples_beyond_it():
    assert run.percentile(range(100), 0.9) == 89
    assert run.percentile(range(200), 0.9) == 179
    with pytest.raises(ValueError):
        run.percentile(range(99), 0.9)


def test_median_of_takes_each_ops_median_pass():
    assert workloads.median_of([{"a": 2.0, "b": 1.0}, {"a": 1.5, "b": 3.0},
                                {"a": 9.0, "b": 2.0}]) == {"a": 2.0,
                                                           "b": 2.0}


def test_scaled_time_cancels_a_slower_host(monkeypatch):
    probes = iter([2 * clock.REF_PROBE_S, 2 * clock.REF_PROBE_S])
    monkeypatch.setattr(clock, "probe", lambda: next(probes))
    monkeypatch.setattr(clock, "_last", [float("-inf"), 0.0])
    with clock.timed() as timing:
        time.sleep(0.02)
    assert timing.raw_s >= 0.02
    assert timing.s == pytest.approx(timing.raw_s / 2)


def test_determinism_check_catches_a_counter_change():
    passes, _check = ran(tiny_grid(3))
    assert run.determinism_failures(passes) == []
    passes[1].counters = dict(passes[1].counters, **{"sim.cycles": 1})
    assert len(run.determinism_failures(passes)) == 1


def test_another_seed_changes_the_counters_and_passes_every_check():
    counters = []
    for seed in (1, 2):
        passes, check = ran(tiny_grid(seed))
        assert [f for out in passes for f in out.failures] == []
        assert check.failures == []
        assert run.determinism_failures(passes) == []
        counters.append(passes[0].counters)
    assert counters[0] != counters[1]


def test_attack_cells_match_the_expected_verdicts():
    bench = workloads.AttackBench(5, seeds=1)
    passes, check = ran(bench)
    assert [f for out in passes for f in out.failures] == []
    assert check.failures == [] and len(passes[0].cell_s) == 52
    assert passes[0].counters["security.leaking_cells"] == 12


def test_pooled_sweep_is_warm_on_the_second_read(tmp_path):
    bench = workloads.SweepBench(1, str(tmp_path), spec_apps=("mcf_r",),
                                 parallel_apps=("radix",))
    passes, check = ran(bench)
    assert [f for out in passes for f in out.failures] == []
    assert check.failures == []
    layer = passes[0].layer
    assert layer["executor.simulated"] == 26
    assert layer["executor.cache_hits"] == 26
    assert layer["store.puts"] == 26 and layer["store.gets"] == 52
    assert len(passes[0].cell_s) == 26     # timed by the in-process replay
    assert len(passes[0].op_s) == 4        # one run_tasks call per app


def test_cli_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7_spec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
