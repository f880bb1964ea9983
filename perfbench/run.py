"""The repository's benchmark: one workload, timed end to end or per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig7_spec --seed 1 --seconds 30 \\
        --trace 0

A run generates its traces from ``--seed`` (the set-up, repeated; its
median is ``setup_s``), then runs passes over every cell of the workload:
as many as fit in ``--seconds``, and at least ``MIN_PASSES``.
Every pass must reproduce the first one's work counters and results
exactly.  Each timed op of a pass (a cell, a ``run_tasks`` call, the
analysis) and each set-up is timed in scaled seconds: host seconds
scaled by a probe loop run on either side of it, which cancels the
shared host's changes of speed (``perfbench.clock``).  An op counts at
its median over the passes.  The workload's slower output checks run
last.

With ``--trace 0`` the metrics are end to end (``BENCHMARK.json``).
With ``--trace 1`` passes alternate untraced and traced, spans are
recorded around every call into a layer, and the metrics are per layer;
the spans are written as Chrome trace-event JSON under ``.perfbench/``.

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``; the full record, with provenance and counters,
goes to ``.perfbench/records/``.  Exit code 0 means every op passed its
check; 1 means some failed; 2 means the simulator sources are missing.
Its own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("fig7_spec", "fig8_parallel", "attack_oracle", "sweep_pool")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 15
#: Every op is timed in at least this many passes; the median counts.
MIN_PASSES = 3

#: Spans recorded once per set-up rather than once per pass.
SETUP_SPANS = ("workloads.gen", "isa.compile")

#: (metric, span or None, unit, end-to-end metric it should move,
#: workload where the layer does most work, where it does little).
LAYERS = (
    ("workloads.gen_s", "workloads.gen", "s", "setup_s",
     "attack_oracle,fig7_spec", "sweep_pool"),
    ("isa.compile_s", "isa.compile", "s", "setup_s",
     "attack_oracle,fig7_spec", "sweep_pool"),
    ("system.build_s", "system.build", "s", "cell_ms_p50,wall_s",
     "attack_oracle", "fig7_spec"),
    ("mem.warm_s", "mem.warm", "s", "cell_ms_p50",
     "fig7_spec", "attack_oracle"),
    ("sim.run_s", "sim.run", "s", "sim_kips,wall_s",
     "fig7_spec", "attack_oracle"),
    ("sim.host_us_per_cycle", None, "us", "sim_kips,wall_s",
     "fig7_spec", "attack_oracle"),
    ("runner.collect_s", "runner.collect", "s", "cell_ms_p50",
     "attack_oracle", "fig7_spec"),
    ("security.compare_s", "security.compare", "s", "cell_ms_p50",
     "attack_oracle", "fig7_spec"),
    ("executor.cold_s", "executor.cold", "s", "wall_s",
     "sweep_pool", "others"),
    ("executor.warm_s", "executor.warm", "s", "wall_s",
     "sweep_pool", "others"),
    ("executor.overhead_s", None, "s", "wall_s", "sweep_pool", "others"),
    ("executor.task_pickle_bytes", None, "bytes", "wall_s",
     "sweep_pool", "others"),
    ("executor.simulated", None, "count", "wall_s", "sweep_pool", "others"),
    ("executor.cache_hits", None, "count", "wall_s", "sweep_pool", "others"),
    ("executor.lockstep_batches", None, "count", "wall_s",
     "sweep_pool", "others"),
    ("store.put_s", "store.put", "s", "wall_s", "sweep_pool", "others"),
    ("store.get_s", "store.get", "s", "wall_s", "sweep_pool", "others"),
    ("store.puts", None, "count", "wall_s", "sweep_pool", "others"),
    ("store.gets", None, "count", "wall_s", "sweep_pool", "others"),
    ("store.bytes", None, "bytes", "wall_s", "sweep_pool", "others"),
    ("analysis.s", "analysis", "s", "wall_s", "fig7_spec", "attack_oracle"),
    ("sim.cycles", None, "count", "none (exact work)", "all", "-"),
    ("sim.instructions", None, "count", "none (exact work)", "all", "-"),
    ("mem.l1_load_misses", None, "count", "none (exact work)", "all", "-"),
    ("mem.invalidations", None, "count", "none (exact work)",
     "sweep_pool", "fig7_spec"),
    ("net.messages", None, "count", "none (exact work)", "all", "-"),
    ("pin.pins", None, "count", "none (exact work)", "all", "-"),
    ("core.squashed_uops", None, "count", "none (exact work)", "all", "-"),
    ("security.leaking_cells", None, "count", "none (exact work)",
     "attack_oracle", "others"),
    ("other.s", None, "s", "wall_s", "all", "-"),
    ("trace.overhead_s", None, "s", "none (tracing cost)", "all", "-"),
)


def percentile(values: Sequence[float], q: float,
               min_tail: int = 10) -> float:
    """Nearest-rank ``q`` quantile, refused unless at least ``min_tail``
    samples lie beyond it (so a p90 needs at least 100 samples)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < min_tail:
        raise ValueError(f"p{q * 100:g} of {len(ordered)} samples has "
                         f"{len(ordered) - rank} beyond it; need "
                         f"{min_tail}")
    return ordered[rank - 1]


def _git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read from ``.git`` without running git; ``None``
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, bench, load_start: float) -> Dict:
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"commit": _git_commit(ROOT), "src_sha256": _tree_sha256(SRC),
            "python": platform.python_version(), "numpy": numpy_version,
            "cpu_count": os.cpu_count(), "loadavg_1m_start": load_start,
            "seed": seed, "workload": bench.name,
            "inputs": bench.describe()}


def run_passes(bench, tracer, seconds: float, traced: bool) -> List:
    """Passes until one more would end past ``seconds``, and at least
    ``MIN_PASSES``; when ``traced``, alternately untraced and traced."""
    passes = []
    start = time.perf_counter()
    last_s = 0.0
    while len(passes) < MIN_PASSES \
            or time.perf_counter() - start + last_s <= seconds:
        pass_start = time.perf_counter()
        tracer.enabled = traced and len(passes) % 2 == 1
        # every pass starts from an empty young generation, so the
        # collector runs at the same points of every pass
        gc.collect()
        with tracer.span("pass"):
            out = bench.run_pass(tracer)
        out.seal(keep_results=not passes)
        passes.append(out)
        last_s = time.perf_counter() - pass_start
    tracer.enabled = False
    return passes


def determinism_failures(passes: Sequence) -> List[str]:
    """Every pass must reproduce the first one's counters exactly."""
    first = passes[0]
    return [f"pass {index}: work counters or results differ from pass 0"
            for index, out in enumerate(passes[1:], start=1)
            if out.counters != first.counters
            or out.digest != first.digest]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (the
    pooled sweep's workers; the other workloads start none)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def pass_s(passes: Sequence) -> float:
    """Scaled seconds of one pass, each op taken at its median."""
    from perfbench.workloads import median_of
    return sum(median_of(out.op_s for out in passes).values())


def end_to_end(setups: Sequence[float], passes: Sequence) -> Dict[str, Dict]:
    from perfbench.workloads import median_of
    wall_s = pass_s(passes)
    cell_ms = [seconds * 1e3 for seconds in
               median_of(out.cell_s for out in passes).values()]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "sim_kips": (passes[0].instructions / wall_s / 1e3, "kinsn/s"),
        "cell_ms_p50": (statistics.median(cell_ms), "ms"),
        "cell_ms_p90": (percentile(cell_ms, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def per_layer(tracer, passes: Sequence, check) -> Dict[str, Dict]:
    """Span self times per traced pass (set-up spans: per set-up), the
    workload's own layer counts, and the first pass's work counters."""
    from perfbench.spans import layer_table
    table = layer_table(tracer.spans)
    traced = [out for index, out in enumerate(passes) if index % 2]
    per_pass = {}
    for out in traced:
        for name, value in out.layer.items():
            per_pass[name] = per_pass.get(name, 0.0) + value / len(traced)
    values: Dict[str, float] = dict.fromkeys(
        (metric for metric, *_rest in LAYERS), 0.0)
    for metric, span, *_rest in LAYERS:
        if span in table:
            scale = 1 if span in SETUP_SPANS else len(traced)
            values[metric] = table[span]["self_s"] / scale
    values.update({name: value for name, value in per_pass.items()
                   if name in values})
    values.update(check.layer)
    values.update(passes[0].counters)
    cycles = passes[0].counters["sim.cycles"]
    if cycles:
        values["sim.host_us_per_cycle"] = values["sim.run_s"] / cycles * 1e6
    # time inside passes that no layer span covers
    values["other.s"] = sum(table[span]["self_s"] for span in ("pass", "cell")
                            if span in table) / len(traced)
    values["trace.overhead_s"] = pass_s(traced) - pass_s(passes[::2])
    units = {metric: unit for metric, _span, unit, *_rest in LAYERS}
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def format_layers(metrics: Dict[str, Dict]) -> str:
    lines = [f"{'per-layer metric':<28}{'value':>16} {'unit':<7}"
             f"{'moves':<20}{'heavy on':<26}light on"]
    for metric, _span, unit, moves, heavy, light in LAYERS:
        lines.append(f"{metric:<28}{metrics[metric]['value']:>16.6g} "
                     f"{unit:<7}{moves:<20}{heavy:<26}{light}")
    return "\n".join(lines)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import clock, spans, workloads

    load_start = os.getloadavg()[0]
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        bench = workloads.make(args.workload, args.seed, scratch)
        tracer = spans.Tracer()
        setups, raw_setups = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            tracer.enabled = bool(args.trace)
            gc.collect()
            with clock.timed() as timing, tracer.span("setup"):
                bench.setup(tracer)
            setups.append(timing.s)
            raw_setups.append(timing.raw_s)
        tracer.enabled = False
        passes = run_passes(bench, tracer, args.seconds, bool(args.trace))
        check = bench.check(passes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [failure for out in passes for failure in out.failures]
    failures += check.failures + determinism_failures(passes)
    attempted = sum(out.attempted for out in passes) + check.attempted \
        + len(passes) - 1
    if args.trace:
        metrics = per_layer(tracer, passes, check)
    else:
        metrics = end_to_end(setups, passes)
    record = {
        "provenance": provenance(args.seed, bench, load_start),
        "trace": args.trace, "passes": len(passes),
        "setup_s": setups, "raw_setup_s": raw_setups,
        "pass_wall_s": [out.wall_s for out in passes],
        "counters": passes[0].counters, "digest": passes[0].digest,
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:50], "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "records").mkdir(exist_ok=True)
    (OUT / "records" / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    print("counters: " + json.dumps(record["counters"], sort_keys=True))
    if args.trace:
        (OUT / "traces").mkdir(exist_ok=True)
        trace_path = OUT / "traces" / f"{stem}.json"
        trace_path.write_text(json.dumps(spans.chrome_trace(tracer.spans)))
        print(format_layers(metrics))
        print(spans.format_layer_table(spans.layer_table(tracer.spans)))
        print(f"chrome trace: {trace_path}")
    else:
        for name, metric in metrics.items():
            print(f"{name:<14}{metric['value']:>14.6g} {metric['unit']}")
    print(f"failed_frac   {record['failed_frac']:>14.6g} "
          f"({len(failures)} of {attempted} ops)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
