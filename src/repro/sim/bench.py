"""The executor/cache performance benchmark (``python -m repro bench``).

Measures, on a small but representative sweep (4 SPEC apps x 4 schemes
by default):

* **parallel speedup** — the same task batch through ``Executor`` at
  ``--jobs 1`` vs ``--jobs N`` (no result cache), asserting the result
  tables are bit-identical;
* **warm-cache reuse** — a second pass against the persistent
  ``ResultStore`` must re-simulate *nothing*;
* **hot-loop throughput** — ``System.run`` (guarded tick, incremental
  deadlock scan) vs ``System.run_reference`` (the original loop),
  asserting equal cycle counts.

The record is written as JSON (``BENCH_executor.json``) and includes
the machine's CPU count: parallel speedup is bounded by physical
parallelism, so a 1-CPU container honestly reports ~1x there while the
hot-loop and warm-reuse numbers remain meaningful.

This module reads the wall clock by design — it measures the simulator,
it is not part of a simulation — hence the ``# repro: allow-wall-clock``
waivers on the timing lines.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.params import DefenseKind, SystemConfig, ThreatModel
from repro.common.stats import geomean
from repro.sim.executor import Executor, ResultStore, Task
from repro.sim.runner import ExperimentCache, scheme_grid
from repro.sim.system import System
from repro.workloads import spec17_workload

DEFAULT_APPS = ("leela_r", "bwaves_r", "mcf_r", "namd_r")
DEFAULT_SCHEMES = ("unsafe", "fence-ep", "dom-ep", "stt-ep")

#: Default hot-loop matrix: the schemes the paper actually measures —
#: the three defenses under the comprehensive model, plus Late/Early
#: Pinning, plus the unsafe baseline as the floor.  The defended
#: geomean in the record covers every label except ``unsafe``.
DEFAULT_HOT_SCHEMES = ("unsafe", "fence-comp", "dom-comp", "stt-comp",
                       "fence-lp", "fence-ep")
#: Two pressure profiles: ``mcf_r`` is the load-heavy pointer chaser
#: the paper centers on; ``xz_r`` is branchier with a deeper dependent
#: chain, so the engine's quiet-region batching sees shorter runs.
DEFAULT_HOT_APPS = ("mcf_r", "xz_r")


def scheme_config(label: str, base: Optional[SystemConfig] = None,
                  ) -> SystemConfig:
    """Config for a scheme label: ``unsafe`` or a ``scheme_grid`` cell
    (``fence-ep``, ``dom-comp``, ``stt-spectre``...)."""
    base = base or SystemConfig()
    if label == "unsafe":
        return base.with_defense(DefenseKind.UNSAFE, ThreatModel.MCV)
    grid = scheme_grid()
    if label not in grid:
        known = ", ".join(["unsafe"] + sorted(grid))
        raise ValueError(f"unknown scheme {label!r}; known: {known}")
    defense, threat, pinning = grid[label]
    return base.with_defense(defense, threat, pinning)


def _assert_identical(a: Dict[str, object], b: Dict[str, object],
                      what: str) -> None:
    if sorted(a) != sorted(b):
        raise AssertionError(f"{what}: task sets differ")
    for label in a:
        ra, rb = a[label], b[label]
        if (ra.cycles, ra.core_stats, ra.mem_stats, ra.pinning_stats) \
                != (rb.cycles, rb.core_stats, rb.mem_stats,
                    rb.pinning_stats):
            raise AssertionError(f"{what}: results diverge at {label!r}")


def _time_loop(config: SystemConfig, workload, reference: bool,
               repeats: int) -> float:
    """Best-of-``repeats`` wall time of one run loop (a fresh ``System``
    per repeat; min-of-N rejects scheduler/GC noise)."""
    best = float("inf")
    for _ in range(repeats):
        system = System(config, workload)
        system.mem.warm(workload)
        run = system.run_reference if reference else system.run
        t0 = time.perf_counter()     # repro: allow-wall-clock
        run()
        seconds = time.perf_counter() - t0  # repro: allow-wall-clock
        best = min(best, seconds)
    return best


def _assert_loop_parity(ref: System, opt: System, what: str) -> None:
    """Optimized/reference runs must agree on cycles *and* every
    per-core statistic (pipeline and pinning): the fast-forward is only
    allowed to skip provably dead cycles."""
    if opt.cycles != ref.cycles:
        raise AssertionError(
            f"{what}: optimized loop diverged: "
            f"{opt.cycles} != {ref.cycles}")
    for rc, oc in zip(ref.cores, opt.cores):
        if oc.stats.as_dict() != rc.stats.as_dict():
            raise AssertionError(
                f"{what}: core {oc.core_id} stats diverge")
        if oc.controller.stats.as_dict() != rc.controller.stats.as_dict():
            raise AssertionError(
                f"{what}: core {oc.core_id} pinning stats diverge")


def _hot_loop_phase(config: SystemConfig, workload,
                    repeats: int = 3,
                    what: str = "hot_loop") -> Dict[str, object]:
    """Time the optimized run loop against the reference loop."""
    ref = System(config, workload)
    ref.mem.warm(workload)
    ref_cycles = ref.run_reference()
    opt = System(config, workload)
    opt.mem.warm(workload)
    opt_cycles = opt.run()
    _assert_loop_parity(ref, opt, what)
    # interleave the timed repeats so drift hits both loops equally
    ref_seconds = opt_seconds = float("inf")
    for _ in range(repeats):
        ref_seconds = min(ref_seconds,
                          _time_loop(config, workload, True, 1))
        opt_seconds = min(opt_seconds,
                          _time_loop(config, workload, False, 1))
    return {
        "workload": workload.name,
        "cycles": opt_cycles,
        "reference_cycles": ref_cycles,
        "repeats": repeats,
        "reference_seconds": round(ref_seconds, 4),
        "optimized_seconds": round(opt_seconds, 4),
        "speedup": round(ref_seconds / max(opt_seconds, 1e-9), 3),
        "cycles_per_second": round(opt_cycles / max(opt_seconds, 1e-9)),
    }


def hot_loop_matrix(hot_apps: List[str], hot_schemes: List[str],
                    instructions: int,
                    repeats: int = 3) -> Dict[str, object]:
    """Time ``System.run`` against ``System.run_reference`` for every
    (scheme, app) cell, asserting bit-identical cycle counts and
    per-core stats per cell, and summarize per-scheme + defended-scheme
    geomean speedups.  ``unsafe`` is reported but excluded from the
    defended geomean."""
    workloads = {app: spec17_workload(app, instructions=instructions)
                 for app in hot_apps}
    per_scheme: Dict[str, object] = {}
    defended_speedups: List[float] = []
    for label in hot_schemes:
        config = scheme_config(label)
        cells = {app: _hot_loop_phase(config, workloads[app], repeats,
                                      what=f"hot_loop[{label}:{app}]")
                 for app in hot_apps}
        speedup = round(geomean(cell["speedup"]
                               for cell in cells.values()), 3)
        per_scheme[label] = {"apps": cells, "speedup": speedup}
        if label != "unsafe":
            defended_speedups.append(speedup)
    matrix: Dict[str, object] = {
        "apps": list(hot_apps),
        "schemes": list(hot_schemes),
        "instructions_per_app": instructions,
        "parity": "cycles+core_stats+pinning_stats",
        "per_scheme": per_scheme,
    }
    if defended_speedups:
        matrix["defended_geomean_speedup"] = round(
            geomean(defended_speedups), 3)
    return matrix


def _top_hotspots(profile: cProfile.Profile,
                  limit: int = 20) -> List[Dict[str, object]]:
    """The ``limit`` hottest functions by cumulative time, JSON-ready."""
    stats = pstats.Stats(profile)
    rows: List[Tuple[float, Dict[str, object]]] = []
    for (path, line, func), (cc, nc, tt, ct, _callers) in \
            stats.stats.items():    # type: ignore[attr-defined]
        rows.append((ct, {
            "function": f"{os.path.basename(path)}:{line}:{func}",
            "calls": nc,
            "tottime": round(tt, 4),
            "cumtime": round(ct, 4),
        }))
    rows.sort(key=lambda row: (-row[0], row[1]["function"]))
    return [row[1] for row in rows[:limit]]


def _run_phase(name: str, fn: Callable[[], object],
               profiles: Optional[Dict[str, object]]) -> object:
    """Run one bench phase, under cProfile when ``profiles`` is given
    (``--profile``); the top-20 cumulative hotspots land in the record
    so future perf work starts from measurements, not guesses."""
    if profiles is None:
        return fn()
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    profiles[name] = _top_hotspots(profile)
    return result


#: Timed in a subprocess against each source tree by ``--baseline-src``;
#: kept as data so both trees run byte-identical measurement code.  The
#: probe imports only API that both trees share (``scheme_config`` has
#: been stable since the scheme grid landed), so one string measures
#: any (scheme, app) cell under either checkout.
_BASELINE_PROBE = """
import json, sys, time
from repro.sim.bench import scheme_config
from repro.sim.system import System
from repro.workloads import spec17_workload

apps = sys.argv[1].split(",")
instructions = int(sys.argv[2])
schemes = sys.argv[3].split(",")
results = {}
for app in apps:
    wl = spec17_workload(app, instructions=instructions)
    for label in schemes:
        config = scheme_config(label)
        best, cycles = float("inf"), None
        for _ in range(3):
            system = System(config, wl)
            system.mem.warm(wl)
            t0 = time.perf_counter()
            cycles = system.run()
            best = min(best, time.perf_counter() - t0)
        results[label + ":" + app] = {"seconds": round(best, 4),
                                      "cycles": cycles}
print(json.dumps(results))
"""


def _probe_tree(src: str, apps: List[str], instructions: int,
                schemes: List[str]) -> Dict[str, Dict[str, object]]:
    # constructing a *subprocess* environment, not reading config: the
    # probe pins PYTHONPATH/PYTHONHASHSEED, inheriting the rest verbatim
    env = dict(os.environ,  # repro: allow-env-read
               PYTHONPATH=src, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", _BASELINE_PROBE, ",".join(apps),
         str(instructions), ",".join(schemes)],
        capture_output=True, text=True, env=env)
    if proc.returncode:
        raise RuntimeError(
            f"baseline probe failed under {src}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout)


#: Mid-run snapshot/restore probe, cross-tree safe like
#: ``_BASELINE_PROBE`` (``snapshot_system``/``restore_system`` have
#: been stable API since checkpoints landed), so the same measurement
#: code prices format v4 under this tree and v3 under a pre-column
#: checkout.
_CHECKPOINT_PROBE = """
import json, sys, time
from repro.sim.bench import scheme_config
from repro.sim.checkpoint import (CHECKPOINT_FORMAT_VERSION,
                                  restore_system, snapshot_system)
from repro.sim.system import System
from repro.workloads import spec17_workload

app = sys.argv[1]
instructions = int(sys.argv[2])
schemes = sys.argv[3].split(",")
repeats = int(sys.argv[4])
wl = spec17_workload(app, instructions=instructions)
out = {"format": CHECKPOINT_FORMAT_VERSION, "per_scheme": {}}
for label in schemes:
    config = scheme_config(label)
    full = System(config, wl)
    full.mem.warm(wl)
    total = full.run()
    paused = System(config, wl)
    paused.mem.warm(wl)
    paused.run(stop_cycle=max(1, total // 2))
    snap_best = restore_best = float("inf")
    blob = b""
    for _ in range(repeats):
        t0 = time.perf_counter()
        blob = snapshot_system(paused)
        t1 = time.perf_counter()
        restore_system(blob)
        t2 = time.perf_counter()
        snap_best = min(snap_best, t1 - t0)
        restore_best = min(restore_best, t2 - t1)
    out["per_scheme"][label] = {
        "bytes": len(blob),
        "snapshot_ms": round(snap_best * 1e3, 3),
        "restore_ms": round(restore_best * 1e3, 3),
        "cycle": paused.cycles,
        "total_cycles": total,
    }
print(json.dumps(out))
"""


def _probe_checkpoint_tree(src: str, app: str, instructions: int,
                           schemes: List[str],
                           repeats: int) -> Dict[str, object]:
    env = dict(os.environ,  # repro: allow-env-read
               PYTHONPATH=src, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", _CHECKPOINT_PROBE, app, str(instructions),
         ",".join(schemes), str(repeats)],
        capture_output=True, text=True, env=env)
    if proc.returncode:
        raise RuntimeError(
            f"checkpoint probe failed under {src}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout)


#: Checkpoint-phase scheme sample: the unprotected floor plus one cell
#: per defense family — enough to price the format without running the
#: full grid through the snapshot path.
DEFAULT_CHECKPOINT_SCHEMES = ("unsafe", "fence-comp", "dom-ep", "stt-lp")


def checkpoint_phase(schemes: Optional[List[str]] = None,
                     instructions: int = 4000, app: str = "mcf_r",
                     repeats: int = 5,
                     baseline_src: Optional[str] = None,
                     ) -> Dict[str, object]:
    """Mid-run snapshot size and snapshot/restore wall time per scheme
    (best of ``repeats``), for the bench record's ``checkpoint``
    section.  With ``baseline_src`` pointing at a pre-column checkout,
    the same probe prices that tree's format (v3) beside this one, so
    the record shows the columns' serialization win, not just its
    absolute cost."""
    schemes = list(schemes) if schemes else list(DEFAULT_CHECKPOINT_SCHEMES)
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    section: Dict[str, object] = {
        "app": app,
        "instructions": instructions,
        "repeats": repeats,
    }
    section.update(_probe_checkpoint_tree(here, app, instructions,
                                          schemes, repeats))
    if baseline_src is not None:
        baseline = _probe_checkpoint_tree(baseline_src, app, instructions,
                                          schemes, repeats)
        baseline["src"] = baseline_src
        section["baseline"] = baseline
    return section


def baseline_comparison(baseline_src: str, apps: List[str],
                        instructions: int,
                        schemes: Optional[List[str]] = None,
                        ) -> Dict[str, object]:
    """Time ``System.run`` under another source tree (e.g. the pre-PR
    seed checkout) against this tree, on identical workloads, in
    separate fixed-hash-seed subprocesses.  Asserts cycle counts agree
    per (scheme, app) cell — the optimization must not change simulated
    behaviour across versions either.  Defaults to the unsafe baseline
    scheme; pass defended labels to measure the specialized loops."""
    schemes = list(schemes) if schemes else ["unsafe"]
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    baseline = _probe_tree(baseline_src, apps, instructions, schemes)
    current = _probe_tree(here, apps, instructions, schemes)
    cells: Dict[str, object] = {}
    per_scheme: Dict[str, float] = {}
    defended: List[float] = []
    for label in schemes:
        speedups: List[float] = []
        for app in apps:
            key = f"{label}:{app}"
            base, cur = baseline[key], current[key]
            if base["cycles"] != cur["cycles"]:
                raise AssertionError(
                    f"{key}: cycle count changed vs baseline "
                    f"({base['cycles']} != {cur['cycles']})")
            speedup = round(base["seconds"]
                            / max(cur["seconds"], 1e-9), 3)
            cells[key] = {
                "baseline_seconds": base["seconds"],
                "optimized_seconds": cur["seconds"],
                "cycles": cur["cycles"],
                "speedup": speedup,
            }
            speedups.append(speedup)
        per_scheme[label] = round(geomean(speedups), 3)
        if label != "unsafe":
            defended.append(per_scheme[label])
    comparison: Dict[str, object] = {
        "baseline_src": baseline_src,
        "instructions_per_app": instructions,
        "schemes": list(schemes),
        "cells": cells,
        "per_scheme": per_scheme,
        "geomean_speedup": round(
            geomean(cell["speedup"] for cell in cells.values()), 3),
    }
    if defended:
        comparison["defended_geomean_speedup"] = round(
            geomean(defended), 3)
    return comparison


def run_bench(apps: List[str], schemes: List[str], instructions: int,
              jobs: int, cache_dir: str,
              timeout_s: Optional[float] = None,
              run_serial: bool = True,
              baseline_src: Optional[str] = None,
              hot_apps: Optional[List[str]] = None,
              hot_schemes: Optional[List[str]] = None,
              profile: bool = False) -> Dict[str, object]:
    """Run every benchmark phase; returns the JSON-ready record.

    ``hot_apps``/``hot_schemes`` select the hot-loop matrix (defaults:
    ``DEFAULT_HOT_APPS`` x ``DEFAULT_HOT_SCHEMES``) — the workload and
    scheme sets are recorded in the output so the speedup numbers are
    self-describing.  ``profile`` wraps each phase in ``cProfile`` and
    stores the top-20 cumulative hotspots under ``record["profile"]``.
    """
    hot_apps = list(hot_apps if hot_apps is not None else DEFAULT_HOT_APPS)
    hot_schemes = list(hot_schemes if hot_schemes is not None
                       else DEFAULT_HOT_SCHEMES)
    workloads = {app: spec17_workload(app, instructions=instructions)
                 for app in apps}
    configs = {label: scheme_config(label) for label in schemes}
    tasks = [Task(f"{app}:{label}", config, workload)
             for app, workload in workloads.items()
             for label, config in configs.items()]
    record: Dict[str, object] = {
        "bench": "executor",
        "cpus": os.cpu_count(),
        "jobs": jobs,
        "apps": list(apps),
        "schemes": list(schemes),
        "instructions_per_app": instructions,
        "tasks": len(tasks),
    }
    profiles: Optional[Dict[str, object]] = {} if profile else None

    serial_results = None
    if run_serial:
        t0 = time.perf_counter()     # repro: allow-wall-clock
        serial = _run_phase(
            "serial",
            lambda: Executor(jobs=1, timeout_s=timeout_s).run_tasks(
                tasks, cache=ExperimentCache()),
            profiles)
        seconds = time.perf_counter() - t0     # repro: allow-wall-clock
        if serial.failures:
            raise RuntimeError(f"serial phase failed: {serial.failures}")
        serial_results = serial.results
        record["serial"] = {"seconds": round(seconds, 3),
                            "simulated": serial.stats["simulated"]}

    store = ResultStore(cache_dir)
    cold_cache = ExperimentCache(store=store)
    t0 = time.perf_counter()     # repro: allow-wall-clock
    cold = _run_phase(
        "parallel_cold",
        lambda: Executor(jobs=jobs, timeout_s=timeout_s).run_tasks(
            tasks, cache=cold_cache),
        profiles)
    seconds = time.perf_counter() - t0     # repro: allow-wall-clock
    if cold.failures:
        raise RuntimeError(f"parallel phase failed: {cold.failures}")
    record["parallel_cold"] = {"seconds": round(seconds, 3),
                               "simulated": cold.stats["simulated"],
                               "cache_hits": cold.stats["cache_hits"]}
    if serial_results is not None:
        _assert_identical(serial_results, cold.results,
                          "serial vs parallel")
        record["parallel_speedup"] = round(
            record["serial"]["seconds"]
            / max(record["parallel_cold"]["seconds"], 1e-9), 3)
        record["results_match"] = True

    warm_cache = ExperimentCache(store=store)   # fresh memo, same disk
    t0 = time.perf_counter()     # repro: allow-wall-clock
    warm = _run_phase(
        "warm",
        lambda: Executor(jobs=jobs, timeout_s=timeout_s).run_tasks(
            tasks, cache=warm_cache),
        profiles)
    seconds = time.perf_counter() - t0     # repro: allow-wall-clock
    if warm.failures:
        raise RuntimeError(f"warm phase failed: {warm.failures}")
    record["warm"] = {"seconds": round(seconds, 3),
                      "simulated": warm.stats["simulated"],
                      "cache_hits": warm.stats["cache_hits"],
                      "store_hits": warm_cache.store_hits}
    _assert_identical(cold.results, warm.results, "cold vs warm")

    record["hot_loop"] = _run_phase(
        "hot_loop",
        lambda: hot_loop_matrix(hot_apps, hot_schemes, instructions),
        profiles)
    if baseline_src is not None:
        record["hot_loop_vs_baseline"] = baseline_comparison(
            baseline_src, list(apps), instructions)
    if profiles is not None:
        record["profile"] = profiles
    return record


def run_hotloop_bench(hot_apps: List[str], hot_schemes: List[str],
                      instructions: int, repeats: int = 3,
                      baseline_src: Optional[str] = None,
                      ) -> Dict[str, object]:
    """The hot-loop-only record (``repro bench --hot-only``, committed
    as ``BENCH_hotloop.json``): the specialized-engine vs reference
    matrix, plus — when ``baseline_src`` points at another checkout —
    the same scheme set timed cross-tree.  No executor phases, so the
    record isolates single-process engine throughput; ``cpus`` is
    still recorded because wall-clock numbers are machine-bound."""
    record: Dict[str, object] = {
        "bench": "hotloop",
        "cpus": os.cpu_count(),
        "hot_loop": hot_loop_matrix(hot_apps, hot_schemes, instructions,
                                    repeats=repeats),
    }
    record["checkpoint"] = checkpoint_phase(
        [s for s in DEFAULT_CHECKPOINT_SCHEMES if s in hot_schemes]
        or list(DEFAULT_CHECKPOINT_SCHEMES),
        instructions=instructions, baseline_src=baseline_src)
    if baseline_src is not None:
        record["hot_loop_vs_baseline"] = baseline_comparison(
            baseline_src, list(hot_apps), instructions,
            schemes=list(hot_schemes))
    return record


def compare_records(old: Dict[str, object], new: Dict[str, object],
                    min_ratio: float = 0.9) -> Dict[str, object]:
    """Diff two bench records' hot-loop matrices (``repro bench
    --compare OLD NEW``).

    Wall-clock seconds are machine-bound, so the comparison uses the
    machine-independent quantity both records carry: each scheme's
    engine-vs-reference speedup (a ratio of two runs on the *same*
    machine).  A scheme regresses when ``new/old`` falls below
    ``min_ratio``; schemes present in only one record are listed but
    never counted as regressions.  Records with *no* scheme or app in
    common cannot be compared at all — that is a usage error
    (mismatched ``--hot-schemes``/``--hot-apps`` sweeps), not a clean
    bill of health, so it raises instead of reporting zero
    regressions."""
    old_schemes = old.get("hot_loop", {}).get("per_scheme", {})
    new_schemes = new.get("hot_loop", {}).get("per_scheme", {})
    if not old_schemes or not new_schemes:
        raise ValueError(
            "both records need a hot_loop.per_scheme section "
            "(produced by `repro bench` / `repro bench --hot-only`)")
    if not set(old_schemes) & set(new_schemes):
        raise ValueError(
            "records share no hot-loop scheme: old measures "
            f"[{', '.join(sorted(old_schemes))}], new measures "
            f"[{', '.join(sorted(new_schemes))}]; re-run both sweeps "
            "with the same --hot-schemes list")
    old_apps = list(old.get("hot_loop", {}).get("apps") or ())
    new_apps = set(new.get("hot_loop", {}).get("apps") or ())
    if old_apps and new_apps and not set(old_apps) & new_apps:
        raise ValueError(
            "records share no hot-loop app: old measures "
            f"[{', '.join(sorted(old_apps))}], new measures "
            f"[{', '.join(sorted(new_apps))}]; per-scheme speedups "
            "averaged over disjoint apps are not comparable — re-run "
            "both sweeps with the same --hot-apps list")
    # When the app sets differ but overlap, a recorded per-scheme
    # speedup is a geomean over *different* app mixes — comparing them
    # raw manufactures phantom regressions (or hides real ones).  The
    # per-scheme comparison therefore restricts to the shared apps,
    # recomputed from the per-app cells, mirroring how schemes present
    # in only one record are excluded from the regression check.
    shared_apps = [a for a in old_apps if a in new_apps]
    restrict_apps = bool(shared_apps) and set(old_apps) != new_apps

    def cell_speedup(entry: Dict[str, object]) -> float:
        cells = entry.get("apps") if restrict_apps else None
        if cells and all(a in cells for a in shared_apps):
            return round(geomean(cells[a]["speedup"]
                                 for a in shared_apps), 3)
        return entry["speedup"]

    rows: Dict[str, object] = {}
    regressions: List[str] = []
    for label in sorted(set(old_schemes) | set(new_schemes)):
        old_entry = old_schemes.get(label)
        new_entry = new_schemes.get(label)
        if old_entry is None or new_entry is None:
            rows[label] = {
                "old_speedup": old_entry and cell_speedup(old_entry),
                "new_speedup": new_entry and cell_speedup(new_entry),
                "ratio": None,
                "status": "only-old" if new_entry is None else "only-new",
            }
            continue
        old_speedup = cell_speedup(old_entry)
        new_speedup = cell_speedup(new_entry)
        ratio = round(new_speedup / max(old_speedup, 1e-9), 3)
        regressed = ratio < min_ratio
        rows[label] = {
            "old_speedup": old_speedup,
            "new_speedup": new_speedup,
            "ratio": ratio,
            "status": "regressed" if regressed else "ok",
        }
        if regressed:
            regressions.append(label)
    comparison: Dict[str, object] = {
        "min_ratio": min_ratio,
        "schemes": rows,
        "regressions": regressions,
    }
    if restrict_apps:
        comparison["apps"] = {
            "old": sorted(old_apps), "new": sorted(new_apps),
            "compared": shared_apps,
        }
        # the recorded defended geomeans cover different app mixes too:
        # recompute both over the shared (defended, app) cells
        defended = [label for label, row in rows.items()
                    if label != "unsafe" and row["ratio"] is not None]
        if defended:
            old_geo = round(geomean(rows[label]["old_speedup"]
                                    for label in defended), 3)
            new_geo = round(geomean(rows[label]["new_speedup"]
                                    for label in defended), 3)
            comparison["defended_geomean"] = {
                "old": old_geo, "new": new_geo,
                "ratio": round(new_geo / max(old_geo, 1e-9), 3),
                "apps": shared_apps,
            }
        return comparison
    old_geo = old.get("hot_loop", {}).get("defended_geomean_speedup")
    new_geo = new.get("hot_loop", {}).get("defended_geomean_speedup")
    if old_geo and new_geo:
        comparison["defended_geomean"] = {
            "old": old_geo, "new": new_geo,
            "ratio": round(new_geo / max(old_geo, 1e-9), 3),
        }
    return comparison


def write_record(record: Dict[str, object], out: str) -> None:
    directory = os.path.dirname(os.path.abspath(out))
    os.makedirs(directory, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
