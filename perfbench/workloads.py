"""The benchmark's four workloads, their output checks and work counters.

Every workload generates its traces from the run's ``--seed`` in
``setup`` and hands only the built workloads to the simulator.  A pass
runs every cell of the workload once; the host time of a pass is the
timed region.  ``check`` runs after the timed passes and holds the
slower output checks (the frozen ``run_reference`` oracle).

* ``fig7_spec``: single-core SPEC17 cells, the Figure 7 grid shape.
* ``fig8_parallel``: eight-core SPLASH2/PARSEC cells, the Figure 8 grid
  (runnable by name; not in ``BENCHMARK.json``, see ``CHANGES.md``).
* ``attack_oracle``: sanitized leakage-oracle cells, two runs each.
* ``sweep_pool``: the same grid shape, shorter traces, through
  ``Executor(jobs=2)`` and a fresh ``ResultStore``: a cold pass that
  simulates and writes, then a warm pass with a fresh memo that only
  reads.  The cells are then replayed in process, outside the pass's
  wall time: the pool hides each cell's own time, the replay does not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import random
import shutil
import signal
import statistics
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import (Executor, ExperimentCache, ResultStore, SimResult, System,
                   SystemConfig, Task, parallel_workload, scheme_grid,
                   spec17_workload)
from repro.analysis.tables import (format_normalized_cpi_table,
                                   format_stat_table)
from repro.isa.compiled import compile_trace
from repro.security.attacks import ATTACK_CLASSES, attack_cell
from repro.security.campaign import expected_verdict
from repro.security.oracle import compare_variants
from repro.sim.runner import collect_result

from perfbench import clock
from perfbench.spans import Tracer

#: Exact simulated-work counters, summed over a pass's results.  A
#: change that only makes the simulator faster leaves them identical.
COUNTERS = ("sim.cycles", "sim.instructions", "mem.l1_load_misses",
            "mem.invalidations", "net.messages", "pin.pins",
            "core.squashed_uops", "security.leaking_cells")

#: Miss-heavy, branchy and load-chain SPEC17 apps (the paper's axes).
FIG7_APPS = ("mcf_r", "bwaves_r", "lbm_r", "leela_r", "deepsjeng_r",
             "exchange2_r", "x264_r", "xz_r")
FIG8_APPS = ("lu_ncb", "canneal", "barnes", "radix", "fft", "ocean_cp",
             "water_nsquared", "x264")
SWEEP_SPEC_APPS = ("mcf_r", "lbm_r", "leela_r", "x264_r", "xz_r")
SWEEP_PARALLEL_APPS = ("radix", "canneal", "lu_ncb")
SPEC_INSNS = 1000
PARALLEL_INSNS = 100      # per thread
SWEEP_SPEC_INSNS = 500
SWEEP_PARALLEL_INSNS = 50
PARALLEL_THREADS = 8
ATTACK_SEEDS = 2          # attack seeds per (class, scheme) cell
REFERENCE_SAMPLES = 3     # cells re-run on run_reference per invocation
CELL_TIMEOUT_S = 30       # a cell that runs longer fails


def scheme_configs(cores: int) -> List[Tuple[str, SystemConfig]]:
    """Unsafe plus the 12 (defense x extension) cells: 13 per app."""
    base = SystemConfig(num_cores=cores)
    return [("unsafe", base)] + [
        (label, base.with_defense(defense, threat, pinning))
        for label, (defense, threat, pinning) in scheme_grid().items()]


def simulate(tracer: Tracer, config: SystemConfig, workload,
             cell: str) -> SimResult:
    """``repro.sim.runner.run_simulation``, one span per layer call."""
    with tracer.span("system.build", cell):
        system = System(config, workload)
    with tracer.span("mem.warm", cell):
        system.mem.warm(workload)
    with tracer.span("sim.run", cell):
        system.run()
    with tracer.span("runner.collect", cell):
        return collect_result(system)


def result_counters(result: SimResult) -> Dict[str, int]:
    return {
        "sim.cycles": result.cycles,
        "sim.instructions": result.instructions,
        "mem.l1_load_misses": int(result.mem_stats.get("l1_load_misses",
                                                       0)),
        "mem.invalidations": int(result.mem_stats.get("invalidations", 0)),
        "net.messages": int(result.network_stats.get("messages", 0)),
        "pin.pins": int(sum(stats.get("pins", 0)
                            for stats in result.pinning_stats.values())),
        "core.squashed_uops": int(result.total("squashed_uops")),
    }


def _flatten(doc: Any, prefix: str = "") -> Dict[str, Any]:
    if isinstance(doc, dict):
        flat: Dict[str, Any] = {}
        for key, value in doc.items():
            flat.update(_flatten(value, f"{prefix}{key}."))
        return flat
    return {prefix.rstrip("."): doc}


def diff_results(a: SimResult, b: SimResult) -> List[str]:
    """Fields (dotted paths) on which two result documents differ."""
    flat_a, flat_b = _flatten(a.to_dict()), _flatten(b.to_dict())
    return sorted(key for key in set(flat_a) | set(flat_b)
                  if flat_a.get(key) != flat_b.get(key))


def check_result(result: SimResult, workload) -> Optional[str]:
    """Per-cell output check: every instruction retired, time passed."""
    expected = workload.total_instructions
    if result.instructions != expected \
            or result.total("retired") != expected:
        return (f"retired {result.total('retired')} of {expected} "
                f"instructions")
    if result.cycles <= 0:
        return f"non-positive cycle count {result.cycles}"
    return None


def check_verdict(report: Dict[str, Any], attack: str,
                  scheme: str) -> Optional[str]:
    expected = expected_verdict(attack, scheme)
    if report["verdict"] != expected:
        return f"verdict {report['verdict']}, expected {expected}"
    return None


@dataclasses.dataclass
class PassOutcome:
    """One timed pass: its host times, results and failed ops."""

    #: Host seconds of the whole pass, unscaled.
    wall_s: float = 0.0
    #: Scaled seconds (``perfbench.clock``) of every timed op (cells,
    #: analysis, ``run_tasks`` calls); together they make up the pass.
    op_s: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Scaled seconds of each cell, from ``System(...)`` to its result.
    cell_s: Dict[str, float] = dataclasses.field(default_factory=dict)
    instructions: int = 0
    attempted: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)
    counters: Dict[str, int] = dataclasses.field(
        default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    results: Dict[str, SimResult] = dataclasses.field(default_factory=dict)
    digest: str = ""
    #: Extra per-pass numbers of one workload (executor/store layers).
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)

    def add(self, cell: str, result: SimResult,
            problem: Optional[str]) -> None:
        self.results[cell] = result
        self.instructions += result.instructions
        for name, value in result_counters(result).items():
            self.counters[name] += value
        if problem is not None:
            self.failures.append(f"{cell}: {problem}")

    def seal(self, keep_results: bool) -> None:
        """Fix ``digest``, a sha256 over every result document in cell
        order.  Results of all but the first pass are then dropped, so
        every pass runs over the same live heap (the cyclic garbage
        collector's cost grows with it)."""
        docs = [(cell, result.to_dict())
                for cell, result in self.results.items()]
        self.digest = hashlib.sha256(json.dumps(docs, sort_keys=True)
                                     .encode()).hexdigest()
        if not keep_results:
            self.results = {}

    def run_cell(self, tracer: Tracer, cell: str,
                 body: Callable[[], Any]) -> Any:
        """Run one op; an op that raises, deadlocks or times out fails
        and the pass goes on.  Its time is kept when it succeeds."""
        self.attempted += 1
        try:
            with clock.timed() as timing, deadline(CELL_TIMEOUT_S), \
                    tracer.span("cell", cell):
                value = body()
        except Exception as err:  # noqa: BLE001 - a failed op is counted
            self.failures.append(f"{cell}: {type(err).__name__}: {err}")
            return None
        self.cell_s[cell] = timing.s
        return value


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise ``TimeoutError`` in the body once ``seconds`` have passed."""
    def expire(_signum, _frame):
        raise TimeoutError(f"op exceeded {seconds:g} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def median_of(timings) -> Dict[str, float]:
    """Per op, its median time over several passes."""
    samples: Dict[str, List[float]] = {}
    for timing in timings:
        for op, seconds in timing.items():
            samples.setdefault(op, []).append(seconds)
    return {op: statistics.median(values) for op, values in samples.items()}


@dataclasses.dataclass
class CheckOutcome:
    attempted: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)


def compile_traces(tracer: Tracer, workload) -> None:
    """Decode every trace into the engine's memoized array form."""
    with tracer.span("isa.compile"):
        for trace in workload.traces:
            compile_trace(trace)


class GridBench:
    """Figure 7/8 grid: every app under all 13 schemes, in process."""

    def __init__(self, name: str, seed: int, apps, cores: int,
                 insns: int) -> None:
        self.name = name
        self.seed = seed
        self.apps = tuple(apps)
        self.cores = cores
        self.insns = insns
        self.workloads: List[Tuple[str, Any]] = []
        self.cells = scheme_configs(cores)

    def _build(self, app: str):
        if self.cores == 1:
            return spec17_workload(app, instructions=self.insns,
                                   seed=self.seed)
        return parallel_workload(app, num_threads=self.cores,
                                 instructions_per_thread=self.insns,
                                 seed=self.seed)

    def describe(self) -> Dict[str, Any]:
        return {"apps": list(self.apps), "cores": self.cores,
                "insns_per_thread": self.insns,
                "cells_per_pass": len(self.apps) * len(self.cells)}

    def setup(self, tracer: Tracer) -> None:
        self.workloads = []
        for app in self.apps:
            with tracer.span("workloads.gen"):
                workload = self._build(app)
            compile_traces(tracer, workload)
            self.workloads.append((app, workload))

    def run_pass(self, tracer: Tracer) -> PassOutcome:
        out = PassOutcome()
        start = time.perf_counter()
        for app, workload in self.workloads:
            for label, config in self.cells:
                cell = f"{app}/{label}"
                result = out.run_cell(tracer, cell, lambda: simulate(
                    tracer, config, workload, cell))
                if result is not None:
                    out.add(cell, result, check_result(result, workload))
        out.op_s.update(out.cell_s)
        with clock.timed() as timing, tracer.span("analysis"):
            table = self._table(out)
        out.op_s["analysis"] = timing.s
        out.wall_s = time.perf_counter() - start
        if table is None:
            out.failures.append("analysis: a cell of the table is missing")
        return out

    def _table(self, out: PassOutcome) -> Optional[str]:
        data = {}
        for app, _workload in self.workloads:
            cells = {label: out.results.get(f"{app}/{label}")
                     for label, _config in self.cells}
            if any(result is None for result in cells.values()):
                return None
            unsafe = cells.pop("unsafe")
            data[app] = {label: result.normalized_cpi(unsafe)
                         for label, result in cells.items()}
        columns = [label for label, _config in self.cells[1:]]
        return format_normalized_cpi_table(self.name, list(self.apps),
                                           columns, data)

    def check(self, passes: List[PassOutcome]) -> CheckOutcome:
        """A seeded sample of cells against the frozen reference loop."""
        first = passes[0]
        out = CheckOutcome()
        rng = random.Random(self.seed)
        cells = [(app, workload, label, config)
                 for app, workload in self.workloads
                 for label, config in self.cells]
        for app, workload, label, config in rng.sample(
                cells, REFERENCE_SAMPLES):
            cell = f"{app}/{label}"
            out.attempted += 1
            try:
                with deadline(CELL_TIMEOUT_S * 10):
                    system = System(config, workload)
                    system.mem.warm(workload)
                    system.run_reference()
                    reference = collect_result(system)
            except Exception as err:  # noqa: BLE001 - a failed op is counted
                out.failures.append(f"{cell}: run_reference: "
                                    f"{type(err).__name__}: {err}")
                continue
            if cell not in first.results:
                out.failures.append(f"{cell}: no result to check")
                continue
            differs = diff_results(first.results[cell], reference)
            if differs:
                out.failures.append(f"{cell}: differs from run_reference "
                                    f"on {', '.join(differs[:5])}")
        return out


class AttackBench:
    """``leakage_probe`` cells: both secret variants, sanitized, diffed."""

    name = "attack_oracle"

    def __init__(self, seed: int, seeds: int = ATTACK_SEEDS) -> None:
        self.seed = seed
        # attack seeds are distinct for distinct benchmark seeds
        self.attack_seeds = [seed * seeds + k for k in range(seeds)]
        self.schemes = ["unsafe"] + list(scheme_grid())
        self.variants: List[Tuple[str, str, str, list]] = []

    def describe(self) -> Dict[str, Any]:
        lengths = sorted({len(trace) for *_k, pair in self.variants
                          for _cfg, workload in pair
                          for trace in workload.traces})
        return {"attacks": list(ATTACK_CLASSES),
                "attack_seeds": self.attack_seeds,
                "trace_lengths": lengths,
                "cells_per_pass": (len(ATTACK_CLASSES) * len(self.schemes)
                                   * len(self.attack_seeds))}

    def setup(self, tracer: Tracer) -> None:
        self.variants = []
        for seed in self.attack_seeds:
            for attack in ATTACK_CLASSES:
                for scheme in self.schemes:
                    pair = []
                    for secret in (0, 1):
                        with tracer.span("workloads.gen"):
                            config, workload = attack_cell(
                                attack, secret, seed, scheme)
                        compile_traces(tracer, workload)
                        pair.append((dataclasses.replace(config,
                                                         sanitize=True),
                                     workload))
                    self.variants.append(
                        (f"{attack}/{scheme}/seed{seed}", attack, scheme,
                         pair))

    def run_pass(self, tracer: Tracer) -> PassOutcome:
        out = PassOutcome()
        verdicts: Dict[str, Dict[str, float]] = {}
        start = time.perf_counter()
        for cell, attack, scheme, pair in self.variants:
            def body(cell=cell, pair=pair):
                results = [simulate(tracer, config, workload, cell)
                           for config, workload in pair]
                with tracer.span("security.compare", cell):
                    return results, compare_variants(*results)
            ran = out.run_cell(tracer, cell, body)
            if ran is None:
                continue
            results, report = ran
            for secret, result in enumerate(results):
                problem = check_result(result, pair[secret][1])
                out.add(f"{cell}/s{secret}", result, problem)
            problem = check_verdict(report, attack, scheme)
            if problem is not None:
                out.failures.append(f"{cell}: {problem}")
            leaks = report["verdict"] == "leaks"
            out.counters["security.leaking_cells"] += leaks
            row = verdicts.setdefault(scheme, {})
            row[attack] = row.get(attack, 0) + leaks
        out.op_s.update(out.cell_s)
        with clock.timed() as timing, tracer.span("analysis"):
            format_stat_table(f"{self.name}: leaking seeds", verdicts)
        out.op_s["analysis"] = timing.s
        out.wall_s = time.perf_counter() - start
        return out

    def check(self, passes: List[PassOutcome]) -> CheckOutcome:
        # every verdict is already checked in the pass it came from
        return CheckOutcome()


class TimedStore(ResultStore):
    """A ``ResultStore`` whose reads and writes are spanned and counted."""

    def __init__(self, root: str, tracer: Tracer,
                 counts: Dict[str, float]) -> None:
        super().__init__(root)
        self.tracer = tracer
        self.counts = counts

    def get(self, key: str) -> Optional[SimResult]:
        self.counts["store.gets"] += 1
        with self.tracer.span("store.get"):
            return super().get(key)

    def put(self, key: str, result: SimResult) -> None:
        self.counts["store.puts"] += 1
        with self.tracer.span("store.put"):
            super().put(key, result)


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for path, _dirs, names in os.walk(root) for name in names)


class SweepBench:
    """The harness's ``REPRO_JOBS=2`` path: one ``run_tasks`` call per
    app, 13 scheme cells each, as ``benchmarks/harness.prefetch`` does."""

    name = "sweep_pool"

    def __init__(self, seed: int, scratch: str,
                 spec_apps=SWEEP_SPEC_APPS,
                 parallel_apps=SWEEP_PARALLEL_APPS) -> None:
        self.seed = seed
        self.scratch = scratch
        self.grids = [GridBench(self.name, seed, spec_apps, 1,
                                SWEEP_SPEC_INSNS),
                      GridBench(self.name, seed, parallel_apps,
                                PARALLEL_THREADS, SWEEP_PARALLEL_INSNS)]
        self.jobs = min(2, os.cpu_count() or 1)
        self.store_root = ""

    def describe(self) -> Dict[str, Any]:
        return {"grids": [grid.describe() for grid in self.grids],
                "jobs": self.jobs,
                "cells_per_pass": sum(grid.describe()["cells_per_pass"]
                                      for grid in self.grids)}

    def _tasks(self) -> List[Tuple[Any, List[Task]]]:
        return [(workload, [Task(f"{app}/{label}", config, workload)
                            for label, config in grid.cells])
                for grid in self.grids
                for app, workload in grid.workloads]

    def setup(self, tracer: Tracer) -> None:
        for grid in self.grids:
            grid.setup(tracer)
        if self.store_root:
            shutil.rmtree(self.store_root, ignore_errors=True)
        self.store_root = tempfile.mkdtemp(prefix="stores-",
                                           dir=self.scratch)

    def run_pass(self, tracer: Tracer) -> PassOutcome:
        out = PassOutcome()
        counts = dict.fromkeys(("store.gets", "store.puts",
                                "executor.simulated", "executor.cache_hits",
                                "executor.lockstep_batches"), 0)
        root = tempfile.mkdtemp(dir=self.store_root)
        executor = Executor(jobs=self.jobs)
        batches = self._tasks()
        outcomes = {}
        start = time.perf_counter()
        for phase in ("cold", "warm"):
            # the warm pass reads the cold pass's store through a fresh memo
            cache = ExperimentCache(store=TimedStore(root, tracer, counts))
            for _workload, tasks in batches:
                with clock.timed() as timing, \
                        tracer.span(f"executor.{phase}"):
                    outcomes[phase, tasks[0].label] = executor.run_tasks(
                        tasks, cache=cache)
                out.op_s[f"{phase}:{tasks[0].label}"] = timing.s
        out.wall_s = time.perf_counter() - start
        for workload, tasks in batches:
            cold = outcomes["cold", tasks[0].label]
            warm = outcomes["warm", tasks[0].label]
            for outcome in (cold, warm):
                out.attempted += len(tasks)
                out.failures.extend(f"{failure.label}: {failure.kind}: "
                                    f"{failure.message}"
                                    for failure in outcome.failures)
                for stat in ("simulated", "cache_hits", "lockstep_batches"):
                    counts[f"executor.{stat}"] += outcome.stats[stat]
            if warm.stats["simulated"]:
                out.failures.append(f"{tasks[0].label}: warm pass simulated "
                                    f"{warm.stats['simulated']} cells")
            for task in tasks:
                if task.label not in cold.results:
                    continue
                result = cold.results[task.label]
                out.add(task.label, result, check_result(result, workload))
                again = warm.results.get(task.label)
                if again is None or diff_results(result, again):
                    out.failures.append(f"{task.label}: warm result differs "
                                        f"from the cold one")
        out.layer.update(counts)
        out.layer["store.bytes"] = _tree_bytes(root)
        shutil.rmtree(root, ignore_errors=True)
        self._replay(out, batches, tracer)
        return out

    def _replay(self, out: PassOutcome, batches, tracer: Tracer) -> None:
        """Re-run the pass's cells in process, outside its wall time:
        they must match the pooled results, and they give the cell times
        (and, traced, the in-process layer spans) that the pool hides."""
        for workload, tasks in batches:
            for task in tasks:
                result = out.run_cell(tracer, task.label, lambda: simulate(
                    tracer, task.config, workload, task.label))
                if result is None:
                    continue
                pooled = out.results.get(task.label)
                if pooled is None or diff_results(pooled, result):
                    out.failures.append(f"{task.label}: pooled result "
                                        f"differs from the in-process one")

    def check(self, passes: List[PassOutcome]) -> CheckOutcome:
        """The executor's overhead over in-process cells, and its task
        pickling volume."""
        out = CheckOutcome()
        median = median_of(done.op_s for done in passes)
        cold_s = sum(seconds for op, seconds in median.items()
                     if op.startswith("cold:"))
        in_process_s = sum(median_of(done.cell_s
                                     for done in passes).values())
        out.layer["executor.overhead_s"] = cold_s - in_process_s / self.jobs
        out.layer["executor.task_pickle_bytes"] = sum(
            len(pickle.dumps(task)) for _workload, tasks in self._tasks()
            for task in tasks)
        return out


def make(name: str, seed: int, scratch: str):
    """The workload ``name`` for benchmark seed ``seed``."""
    if name == "fig7_spec":
        return GridBench(name, seed, FIG7_APPS, 1, SPEC_INSNS)
    if name == "fig8_parallel":
        return GridBench(name, seed, FIG8_APPS, PARALLEL_THREADS,
                         PARALLEL_INSNS)
    if name == "attack_oracle":
        return AttackBench(seed)
    if name == "sweep_pool":
        return SweepBench(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")
