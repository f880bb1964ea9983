"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``run``        — one workload on one configuration, printed as a row
* ``grid``       — the Tables 2/3 grid (Comp/LP/EP/Spectre per scheme)
* ``breakdown``  — the Figure 1 per-condition overhead stack
* ``workloads``  — list the available benchmark profiles
* ``hardware``   — the Table 1 CST cost rows from the analytical model
* ``bench``      — the executor/cache performance benchmark; writes
  ``BENCH_executor.json`` (see ``docs/performance.md``)
* ``verify``     — the verification passes (``model``, ``trace``,
  ``lint``, ``analyze``); see ``docs/verification.md``
* ``chaos``      — the seeded fault-injection campaign (N seeds per
  cell must be architecturally identical); see ``docs/resilience.md``
* ``attack``     — the adversarial leakage campaign (per-scheme,
  per-attack-class verdict matrix); see ``docs/security.md``
* ``serve``      — the crash-tolerant job service (durable journal,
  admission control, graceful drain); see ``docs/resilience.md``
* ``submit``     — submit one job to a running service and (optionally)
  wait for its result

Exit codes are part of the contract: every command returns 0 only on
full success and a nonzero status on any failure (divergence, lint
finding, failed job, unreachable service), so CI can gate on them.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.area import cst_hardware_table
from repro.analysis.breakdown import stacked_overheads, vp_condition_cycles
from repro.analysis.tables import format_stat_table
from repro.common.params import DefenseKind, PinningMode, ThreatModel
from repro.sim.runner import ExperimentCache, scheme_grid
from repro.workloads import PARALLEL_NAMES, SPEC17_NAMES

_THREAT_NAMES = {"spectre": ThreatModel.CTRL, "ctrl": ThreatModel.CTRL,
                 "alias": ThreatModel.ALIAS, "except": ThreatModel.EXCEPT,
                 "comp": ThreatModel.MCV, "mcv": ThreatModel.MCV}
_PIN_NAMES = {"none": PinningMode.NONE, "lp": PinningMode.LATE,
              "ep": PinningMode.EARLY}


def _build_workload(name: str, instructions: int, threads: int):
    from repro.common.errors import BadRequestError
    from repro.service.jobs import build_cell
    try:
        return build_cell(name, instructions, threads, "unsafe")
    except BadRequestError as error:
        raise SystemExit(f"{error}; see `repro workloads`")


def _cmd_run(args) -> int:
    base, workload = _build_workload(args.workload, args.instructions,
                                     args.threads)
    cache = ExperimentCache()
    unsafe = cache.run(base, workload)
    config = base.with_defense(DefenseKind(args.defense),
                               _THREAT_NAMES[args.threat],
                               _PIN_NAMES[args.pinning])
    result = cache.run(config, workload)
    norm = result.cycles / unsafe.cycles
    print(f"workload      : {args.workload} "
          f"({workload.total_instructions} instructions, "
          f"{workload.num_threads} thread(s))")
    print(f"configuration : {args.defense} / {args.threat} / "
          f"{args.pinning}")
    print(f"cycles        : {result.cycles} (unsafe: {unsafe.cycles})")
    print(f"normalized CPI: {norm:.3f}  "
          f"(overhead {100 * (norm - 1):.1f}%)")
    squashes = result.squash_summary()
    print(f"squashes      : branch={squashes['branch']:.0f} "
          f"alias={squashes['alias']:.0f} "
          f"mcv={squashes['mcv_inval'] + squashes['mcv_evict']:.0f}")
    return 0


def _cmd_grid(args) -> int:
    base, workload = _build_workload(args.workload, args.instructions,
                                     args.threads)
    cache = ExperimentCache()
    unsafe = cache.run(base, workload)
    print(f"{args.workload}: normalized CPI vs Unsafe "
          f"({workload.total_instructions} instructions)")
    print(f"{'scheme':<8}{'comp':>9}{'lp':>9}{'ep':>9}{'spectre':>9}")
    grid = scheme_grid()
    for scheme in ("fence", "dom", "stt"):
        cells = []
        for ext in ("comp", "lp", "ep", "spectre"):
            defense, threat, pin = grid[f"{scheme}-{ext}"]
            result = cache.run(base.with_defense(defense, threat, pin),
                               workload)
            cells.append(result.cycles / unsafe.cycles)
        print(f"{scheme:<8}" + "".join(f"{c:>9.3f}" for c in cells))
    return 0


def _cmd_breakdown(args) -> int:
    base, workload = _build_workload(args.workload, args.instructions,
                                     args.threads)
    cache = ExperimentCache()
    cycles = vp_condition_cycles(
        base, DefenseKind(args.defense),
        run=lambda config: cache.run(config, workload))
    stack = stacked_overheads(cycles)
    print(f"{args.workload} / {args.defense}: overhead by VP condition")
    for condition in ("ctrl", "alias", "exception", "mcv"):
        print(f"  {condition:<10}{stack[condition]:>8.1f}%")
    print(f"  {'total':<10}{sum(stack.values()):>8.1f}%")
    return 0


def _cmd_workloads(_args) -> int:
    print("SPEC17 (single-threaded):")
    for name in SPEC17_NAMES:
        print(f"  {name}")
    print("SPLASH2 + PARSEC (multithreaded):")
    for name in PARALLEL_NAMES:
        print(f"  {name}")
    return 0


def _cmd_hardware(_args) -> int:
    table = cst_hardware_table()
    print(format_stat_table("Table 1: CST hardware cost at 22nm",
                            table))
    return 0


def _print_vs_baseline(vs) -> None:
    per_scheme = ", ".join(
        f"{label} {speedup}x"
        for label, speedup in vs["per_scheme"].items())
    print(f"vs baseline   : {vs['geomean_speedup']}x geomean "
          f"({per_scheme}; cycle counts identical)")
    if "defended_geomean_speedup" in vs:
        print(f"vs baseline   : {vs['defended_geomean_speedup']}x "
              f"defended geomean")


def _cmd_bench_compare(args) -> int:
    import json as _json
    from repro.sim.bench import compare_records
    old_path, new_path = args.compare
    with open(old_path, "r", encoding="utf-8") as fh:
        old = _json.load(fh)
    with open(new_path, "r", encoding="utf-8") as fh:
        new = _json.load(fh)
    try:
        comparison = compare_records(old, new, min_ratio=args.min_ratio)
    except ValueError as error:
        # exit 2 = the comparison itself is impossible (mismatched
        # sweeps, wrong record shape) — distinct from 1 = it ran and
        # found a regression, so CI can tell the two apart
        print(f"repro bench --compare: {error}", file=sys.stderr)
        return 2
    print(f"comparing     : {old_path} -> {new_path} "
          f"(min ratio {comparison['min_ratio']})")
    for label, row in comparison["schemes"].items():
        if row["ratio"] is None:
            print(f"  {label:<14} {row['status']}")
            continue
        print(f"  {label:<14} {row['old_speedup']}x -> "
              f"{row['new_speedup']}x  (ratio {row['ratio']}, "
              f"{row['status']})")
    if "defended_geomean" in comparison:
        geo = comparison["defended_geomean"]
        print(f"defended geo  : {geo['old']}x -> {geo['new']}x "
              f"(ratio {geo['ratio']})")
    if comparison["regressions"]:
        print(f"FAIL: regressed scheme(s): "
              f"{', '.join(comparison['regressions'])}")
        return 1
    print("no per-scheme regressions")
    return 0


def _cmd_bench(args) -> int:
    from repro.sim.bench import (run_bench, run_hotloop_bench,
                                 write_record)
    if args.compare:
        return _cmd_bench_compare(args)
    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    hot_apps = [a.strip() for a in args.hot_apps.split(",") if a.strip()]
    hot_schemes = [s.strip() for s in args.hot_schemes.split(",")
                   if s.strip()]
    if args.hot_only:
        try:
            record = run_hotloop_bench(hot_apps, hot_schemes,
                                       args.instructions,
                                       baseline_src=args.baseline_src)
        except (RuntimeError, AssertionError, ValueError) as error:
            raise SystemExit(f"repro bench: {error}")
        if args.out:
            write_record(record, args.out)
        hot = record["hot_loop"]
        per_scheme = ", ".join(
            f"{label} {entry['speedup']}x"
            for label, entry in hot["per_scheme"].items())
        print(f"hot loop      : {per_scheme}")
        if "defended_geomean_speedup" in hot:
            print(f"hot geomean   : {hot['defended_geomean_speedup']}x "
                  f"vs reference across defended schemes on "
                  f"{record['cpus']} cpu(s)")
        if "hot_loop_vs_baseline" in record:
            _print_vs_baseline(record["hot_loop_vs_baseline"])
        if args.out:
            print(f"record        : {args.out}")
        return 0
    try:
        record = run_bench(apps, schemes, args.instructions, args.jobs,
                           args.cache_dir, timeout_s=args.timeout,
                           run_serial=not args.no_serial,
                           baseline_src=args.baseline_src,
                           hot_apps=hot_apps, hot_schemes=hot_schemes,
                           profile=args.profile)
    except (RuntimeError, AssertionError, ValueError) as error:
        raise SystemExit(f"repro bench: {error}")
    if args.out:
        write_record(record, args.out)
    print(f"tasks         : {record['tasks']} "
          f"({len(apps)} apps x {len(schemes)} schemes, "
          f"{record['instructions_per_app']} instructions)")
    if "serial" in record:
        print(f"serial        : {record['serial']['seconds']}s")
        print(f"parallel x{args.jobs}   : "
              f"{record['parallel_cold']['seconds']}s "
              f"(speedup {record['parallel_speedup']}x on "
              f"{record['cpus']} cpu(s); results bit-identical)")
    else:
        print(f"parallel x{args.jobs}   : "
              f"{record['parallel_cold']['seconds']}s")
    warm = record["warm"]
    print(f"warm cache    : {warm['seconds']}s "
          f"({warm['simulated']} re-simulated, "
          f"{warm['cache_hits']} served from {args.cache_dir})")
    hot = record["hot_loop"]
    per_scheme = ", ".join(
        f"{label} {entry['speedup']}x"
        for label, entry in hot["per_scheme"].items())
    print(f"hot loop      : {per_scheme}")
    if "defended_geomean_speedup" in hot:
        print(f"hot geomean   : {hot['defended_geomean_speedup']}x "
              f"vs reference across defended schemes "
              f"(cycle counts + stats identical per cell)")
    if "hot_loop_vs_baseline" in record:
        _print_vs_baseline(record["hot_loop_vs_baseline"])
    if args.out:
        print(f"record        : {args.out}")
    if args.require_warm_reuse and warm["simulated"] != 0:
        print(f"FAIL: warm pass re-simulated {warm['simulated']} task(s); "
              f"expected full cache reuse")
        return 1
    return 0


def _cmd_verify_model(args) -> int:
    from repro.verify.explorer import EXPECTED_DEAD, explore
    from repro.verify.model import ModelConfig
    mutate = frozenset(args.mutate or ())
    try:
        config = ModelConfig(cores=args.cores, lines=args.lines,
                             max_pins_per_core=args.max_pins,
                             mutate=mutate)
    except ValueError as error:
        raise SystemExit(f"repro verify model: {error}")
    result = explore(config)
    print(f"explored {result.num_states} states / "
          f"{result.num_transitions} transitions "
          f"({config.cores} cores x {config.lines} lines)")
    for violation in result.violations:
        print(violation)
    if mutate:
        # checker self-test: an injected protocol bug MUST be detected
        if result.violations:
            print(f"mutation(s) {sorted(mutate)} detected; checker "
                  f"self-test passed")
            return 0
        print(f"no violation under mutation(s) {sorted(mutate)}; the "
              f"checker missed the injected bug")
        return 1
    status = 1 if result.violations else 0
    dead = set(result.dead_pairs())
    for state, kind in sorted(dead - EXPECTED_DEAD):
        print(f"[coverage] ({state}, {kind}) became unreachable but "
              f"is not expected-dead")
        status = 1
    for state, kind in sorted(EXPECTED_DEAD - dead):
        print(f"[coverage] ({state}, {kind}) is expected-dead but "
              f"was exercised")
        status = 1
    if status == 0:
        print("all invariants hold; transition coverage matches the "
              "expected-dead set")
    return status


def _cmd_verify_trace(args) -> int:
    import dataclasses

    from repro.common.errors import InvariantViolation
    from repro.sim.runner import run_simulation
    base, workload = _build_workload(args.workload, args.instructions,
                                     args.threads)
    config = base.with_defense(DefenseKind(args.defense),
                               _THREAT_NAMES[args.threat],
                               _PIN_NAMES[args.pinning])
    config = dataclasses.replace(config, sanitize=True)
    try:
        result = run_simulation(config, workload)
    except InvariantViolation as violation:
        print(violation)
        return 1
    print(f"sanitized run clean: {args.workload} / {args.defense} / "
          f"{args.threat} / {args.pinning}, {result.cycles} cycles")
    return 0


def _cmd_verify_analyze(args) -> int:
    import json
    import sys
    from pathlib import Path

    paths = [Path(p) for p in args.paths] or [Path(__file__).parent]
    for path in paths:
        if not path.exists():
            raise SystemExit(
                f"repro verify analyze: no such path: {path}")
    passes = [p.strip() for p in args.passes.split(",")
              if p.strip()] or None
    try:
        from repro.verify.passes import (analyze_paths, write_baseline,
                                         write_manifest)
        from repro.verify.passes.base import load_sources
        if args.update_manifest:
            manifest_path = Path(args.manifest) if args.manifest \
                else None
            from repro.verify.passes.checkpoint_state import (
                MANIFEST_FILENAME)
            import repro.verify.passes as passes_pkg
            target = manifest_path or (
                Path(passes_pkg.__file__).parent / MANIFEST_FILENAME)
            write_manifest(load_sources([str(p) for p in paths]),
                           target)
            print(f"state manifest regenerated: {target}",
                  file=sys.stderr)
        report = analyze_paths(
            [str(p) for p in paths], passes=passes,
            baseline_path=args.baseline or None,
            manifest_path=args.manifest or None)
        if args.update_baseline:
            from repro.verify.passes import default_baseline_path
            target = Path(args.baseline) if args.baseline \
                else default_baseline_path()
            errors = [f for f in report.findings
                      if f.severity == "error"]
            write_baseline(errors, target)
            print(f"baseline updated: {target} "
                  f"({len(errors)} finding(s))", file=sys.stderr)
            return 0
    except SystemExit:
        raise
    except ValueError as err:
        # unknown pass names are usage errors, not internal failures
        raise SystemExit(f"repro verify analyze: {err}")
    except Exception as err:  # noqa: B902 - the distinct-exit contract
        print(f"repro verify analyze: internal error: "
              f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    doc = report.to_doc()
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(report.render_text())
    return 0 if report.clean else 1


def _cmd_chaos(args) -> int:
    import json

    from repro.chaos import format_report, run_campaign
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not workloads or not schemes:
        raise SystemExit("repro chaos: need at least one workload and "
                         "one scheme")
    try:
        report = run_campaign(
            workloads, schemes, seeds=args.seeds,
            instructions=args.instructions, threads=args.threads,
            self_test=not args.no_self_test,
            checkpoint_check=not args.no_checkpoint_check,
            service_url=args.service or None)
    except ValueError as error:
        raise SystemExit(f"repro chaos: {error}")
    except (ConnectionError, TimeoutError) as error:
        raise SystemExit(f"repro chaos: service at {args.service} "
                         f"unreachable: {error}")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        if not args.json:
            print(f"report        : {args.out}")
    return 0 if report["passed"] else 1


def _cmd_attack(args) -> int:
    import json

    from repro.security.campaign import (format_report, matrix_artifact,
                                         run_campaign)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()] \
        if args.schemes else None
    classes = [c.strip() for c in args.classes.split(",") if c.strip()] \
        if args.classes else None
    try:
        report = run_campaign(
            scheme_names=schemes, attack_names=classes,
            seeds=args.seeds, jobs=args.jobs,
            self_test=not args.no_self_test,
            service_url=args.service or None)
    except ValueError as error:
        raise SystemExit(f"repro attack: {error}")
    except (ConnectionError, TimeoutError) as error:
        raise SystemExit(f"repro attack: service at {args.service} "
                         f"unreachable: {error}")
    except Exception as error:  # noqa: B902 - the distinct-exit contract
        print(f"repro attack: internal error: "
              f"{type(error).__name__}: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(matrix_artifact(report), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        if not args.json:
            print(f"matrix        : {args.out}")
    return 0 if report["passed"] else 1


def _cmd_serve(args) -> int:
    import logging

    from repro.service import Supervisor, serve
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    supervisor = Supervisor(
        args.root, jobs=args.jobs, queue_capacity=args.queue_capacity,
        timeout_s=args.timeout, retries=args.retries,
        worker_memory_mb=args.worker_memory_mb,
        checkpoint_interval=args.checkpoint_interval,
        fsync=not args.no_fsync,
        tenant_capacity=args.tenant_capacity)
    try:
        serve(supervisor, host=args.host, port=args.port)
    except OSError as error:
        raise SystemExit(f"repro serve: cannot listen on "
                         f"{args.host}:{args.port}: {error}")
    return 0


def _cmd_submit(args) -> int:
    import json

    from repro.common.errors import ServiceError
    from repro.service import JobSpec, ServiceClient
    try:
        chaos = json.loads(args.chaos) if args.chaos else None
        spec = JobSpec(workload=args.workload, scheme=args.scheme,
                       instructions=args.instructions,
                       threads=args.threads, sanitize=args.sanitize,
                       chaos=chaos, priority=args.priority,
                       tenant=args.tenant)
        spec.resolve()  # reject bad cells before touching the network
    except ValueError as error:
        raise SystemExit(f"repro submit: {error}")
    client = ServiceClient(args.url)
    try:
        if args.wait:
            result = client.run(spec, timeout_s=args.wait_timeout)
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        else:
            print(json.dumps(client.submit(spec), indent=2,
                             sort_keys=True))
    except (ServiceError, ConnectionError, TimeoutError) as error:
        print(f"repro submit: {error}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pinned Loads (ASPLOS 2022) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("workload", help="benchmark name (see `workloads`)")
        p.add_argument("--instructions", type=int, default=4000,
                       help="instructions per thread (default 4000)")
        p.add_argument("--threads", type=int, default=8,
                       help="threads for parallel workloads (default 8)")

    run_p = sub.add_parser("run", help="run one configuration")
    common(run_p)
    run_p.add_argument("--defense", default="fence",
                       choices=[k.value for k in DefenseKind])
    run_p.add_argument("--threat", default="comp",
                       choices=sorted(_THREAT_NAMES))
    run_p.add_argument("--pinning", default="none",
                       choices=sorted(_PIN_NAMES))
    run_p.set_defaults(func=_cmd_run)

    grid_p = sub.add_parser("grid", help="the Tables 2/3 grid")
    common(grid_p)
    grid_p.set_defaults(func=_cmd_grid)

    breakdown_p = sub.add_parser("breakdown",
                                 help="Figure 1 per-condition stack")
    common(breakdown_p)
    breakdown_p.add_argument("--defense", default="fence",
                             choices=[k.value for k in DefenseKind])
    breakdown_p.set_defaults(func=_cmd_breakdown)

    workloads_p = sub.add_parser("workloads", help="list benchmarks")
    workloads_p.set_defaults(func=_cmd_workloads)

    hardware_p = sub.add_parser("hardware", help="Table 1 CST rows")
    hardware_p.set_defaults(func=_cmd_hardware)

    bench_p = sub.add_parser(
        "bench", help="executor/cache performance benchmark")
    bench_p.add_argument("--apps", default=",".join(
        ("leela_r", "bwaves_r", "mcf_r", "namd_r")),
        help="comma-separated SPEC17 app names")
    bench_p.add_argument("--schemes",
                         default="unsafe,fence-ep,dom-ep,stt-ep",
                         help="comma-separated scheme labels "
                         "(unsafe or scheme_grid cells)")
    bench_p.add_argument("--instructions", type=int, default=4000,
                         help="instructions per app (default 4000)")
    bench_p.add_argument("--jobs", type=int, default=4,
                         help="worker processes for the parallel phases")
    bench_p.add_argument("--cache-dir", default=".repro-cache",
                         help="persistent result store directory")
    bench_p.add_argument("--timeout", type=float, default=None,
                         help="per-task timeout in seconds")
    bench_p.add_argument("--out", default="BENCH_executor.json",
                         help="JSON record path ('' to skip writing)")
    bench_p.add_argument("--no-serial", action="store_true",
                         help="skip the serial baseline phase")
    bench_p.add_argument("--require-warm-reuse", action="store_true",
                         help="exit 1 unless the warm pass re-simulated "
                         "nothing")
    bench_p.add_argument("--baseline-src", default=None, metavar="SRC",
                         help="src/ directory of another checkout (e.g. "
                         "the pre-optimization seed) to time System.run "
                         "against, in fixed-hash-seed subprocesses")
    from repro.sim.bench import DEFAULT_HOT_APPS, DEFAULT_HOT_SCHEMES
    bench_p.add_argument("--hot-apps", default=",".join(DEFAULT_HOT_APPS),
                         help="comma-separated apps for the hot-loop "
                         "matrix (default: %(default)s)")
    bench_p.add_argument("--hot-schemes",
                         default=",".join(DEFAULT_HOT_SCHEMES),
                         help="comma-separated schemes for the hot-loop "
                         "matrix (default: %(default)s)")
    bench_p.add_argument("--profile", action="store_true",
                         help="cProfile each phase; top-20 cumulative "
                         "hotspots land in the JSON record")
    bench_p.add_argument("--hot-only", action="store_true",
                         help="skip the executor phases; record only the "
                         "hot-loop matrix (and --baseline-src cross-tree "
                         "comparison) as a 'hotloop' record")
    bench_p.add_argument("--compare", nargs=2, default=None,
                         metavar=("OLD", "NEW"),
                         help="diff two bench records' hot-loop "
                         "sections; exit 1 on per-scheme regressions, "
                         "2 when the records are not comparable "
                         "(disjoint scheme or app sets)")
    bench_p.add_argument("--min-ratio", type=float, default=0.9,
                         help="with --compare: a scheme regresses when "
                         "new/old engine speedup falls below this "
                         "(default 0.9)")
    bench_p.set_defaults(func=_cmd_bench)

    verify_p = sub.add_parser(
        "verify",
        help="protocol model check / sanitized run / lint / "
             "static contract analysis")
    verify_sub = verify_p.add_subparsers(dest="pass_name", required=True)

    model_p = verify_sub.add_parser(
        "model", help="exhaustively model-check the pinning protocol")
    model_p.add_argument("--cores", type=int, default=2)
    model_p.add_argument("--lines", type=int, default=2)
    model_p.add_argument("--max-pins", type=int, default=2,
                         help="max simultaneously pinned lines per core")
    model_p.add_argument("--mutate", action="append", default=None,
                         metavar="MUTATION",
                         help="inject a named protocol bug; the check "
                         "then must FAIL (checker self-test)")
    model_p.set_defaults(func=_cmd_verify_model)

    trace_p = verify_sub.add_parser(
        "trace", help="run one workload with the invariant sanitizer on")
    common(trace_p)
    trace_p.add_argument("--defense", default="fence",
                         choices=[k.value for k in DefenseKind])
    trace_p.add_argument("--threat", default="comp",
                         choices=sorted(_THREAT_NAMES))
    trace_p.add_argument("--pinning", default="ep",
                         choices=sorted(_PIN_NAMES))
    trace_p.set_defaults(func=_cmd_verify_trace)

    analyze_p = verify_sub.add_parser(
        "analyze",
        help="multi-pass static contract analysis (wakeup, checkpoint, "
             "determinism, service, event discipline)")
    analyze_p.add_argument("paths", nargs="*",
                           help="files/directories to analyze "
                                "(default: the repro package)")
    analyze_p.add_argument("--json", action="store_true",
                           help="emit the JSON report on stdout")
    analyze_p.add_argument("--out", default="",
                           help="also write the JSON report to this "
                                "file")
    analyze_p.add_argument("--passes", default="",
                           help="comma-separated pass subset "
                                "(default: all)")
    analyze_p.add_argument("--baseline", default="",
                           help="baseline file of accepted finding "
                                "fingerprints (default: the committed "
                                "one)")
    analyze_p.add_argument("--update-baseline", action="store_true",
                           help="accept all current findings into the "
                                "baseline and exit 0")
    analyze_p.add_argument("--manifest", default="",
                           help="state-shape manifest path (default: "
                                "the committed one)")
    analyze_p.add_argument("--update-manifest", action="store_true",
                           help="regenerate the checkpoint state-shape "
                                "manifest before analyzing")
    analyze_p.set_defaults(func=_cmd_verify_analyze)

    lint_p = verify_sub.add_parser(
        "lint", help="determinism/idiom lint over the sources (exactly "
                     "`verify analyze --passes lint`)")
    lint_p.add_argument("paths", nargs="*",
                        help="files/directories (default: the installed "
                        "repro package)")
    lint_p.set_defaults(func=_cmd_verify_analyze, passes="lint",
                        json=False, out="", baseline="",
                        update_baseline=False, manifest="",
                        update_manifest=False)

    chaos_p = sub.add_parser(
        "chaos", help="seeded fault-injection campaign (must be "
        "architecturally invisible)")
    chaos_p.add_argument("--seeds", type=int, default=5,
                         help="chaos seeds per (workload, scheme) cell")
    chaos_p.add_argument("--workloads", default="mcf_r,radix",
                         help="comma-separated workload names")
    chaos_p.add_argument("--schemes", default="unsafe,fence-lp,fence-ep",
                         help="comma-separated schemes (unsafe or "
                         "scheme_grid cells)")
    chaos_p.add_argument("--instructions", type=int, default=3000,
                         help="instructions per thread (default 3000)")
    chaos_p.add_argument("--threads", type=int, default=4,
                         help="threads for parallel workloads")
    chaos_p.add_argument("--out", default="",
                         help="write the JSON report here")
    chaos_p.add_argument("--no-self-test", action="store_true",
                         help="skip the evict-pinned mutant self-test")
    chaos_p.add_argument("--no-checkpoint-check", action="store_true",
                         help="skip the checkpoint/resume equivalence "
                         "check")
    chaos_p.add_argument("--json", action="store_true",
                         help="print the full JSON report to stdout "
                         "instead of the human-readable summary")
    chaos_p.add_argument("--service", default="", metavar="URL",
                         help="run campaign cells through a live "
                         "`repro serve` instance at URL")
    chaos_p.set_defaults(func=_cmd_chaos)

    attack_p = sub.add_parser(
        "attack", help="adversarial leakage campaign (per-scheme x "
        "per-attack-class verdict matrix)")
    attack_p.add_argument("--seeds", type=int, default=2,
                          help="address-randomization seeds per cell "
                          "(verdicts must agree across all of them)")
    attack_p.add_argument("--schemes", default="",
                          help="comma-separated schemes (default: unsafe "
                          "plus the full 12-cell defense grid)")
    attack_p.add_argument("--classes", default="",
                          help="comma-separated attack classes (default: "
                          "all four)")
    attack_p.add_argument("--jobs", type=int, default=1,
                          help="parallel workers (bit-identical to "
                          "--jobs 1)")
    attack_p.add_argument("--out", default="",
                          help="write the canonical leakage-matrix JSON "
                          "artifact here")
    attack_p.add_argument("--no-self-test", action="store_true",
                          help="skip the weakened-defense mutant "
                          "self-tests")
    attack_p.add_argument("--json", action="store_true",
                          help="print the full JSON report to stdout "
                          "instead of the human-readable summary")
    attack_p.add_argument("--service", default="", metavar="URL",
                          help="run oracle cells through a live "
                          "`repro serve` instance at URL (mutant "
                          "self-tests stay local)")
    attack_p.set_defaults(func=_cmd_attack)

    serve_p = sub.add_parser(
        "serve", help="crash-tolerant job service (journal + admission "
        "control + graceful drain)")
    serve_p.add_argument("--root", default=".repro-service",
                         help="service state directory: journal, result "
                         "store, checkpoints (default .repro-service)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8321)
    serve_p.add_argument("--jobs", type=int, default=2,
                         help="worker processes at the full level")
    serve_p.add_argument("--queue-capacity", type=int, default=64,
                         help="admission queue bound (backpressure above)")
    serve_p.add_argument("--timeout", type=float, default=None,
                         help="per-job wall-clock timeout in seconds")
    serve_p.add_argument("--retries", type=int, default=1,
                         help="retry budget per failed job")
    serve_p.add_argument("--worker-memory-mb", type=int, default=None,
                         help="RLIMIT_AS ceiling per worker process "
                         "(default: unlimited)")
    serve_p.add_argument("--checkpoint-interval", type=int, default=None,
                         help="cycles between rolling job checkpoints")
    serve_p.add_argument("--no-fsync", action="store_true",
                         help="skip fsync on journal appends (faster, "
                         "loses the last records on power failure)")
    serve_p.add_argument("--tenant-capacity", type=int, default=None,
                         help="per-tenant admission quota (default: "
                         "no per-tenant bound)")
    serve_p.add_argument("--verbose", action="store_true")
    serve_p.set_defaults(func=_cmd_serve)

    submit_p = sub.add_parser(
        "submit", help="submit one job to a running `repro serve`")
    submit_p.add_argument("workload", help="benchmark name")
    submit_p.add_argument("--url", default="http://127.0.0.1:8321")
    submit_p.add_argument("--scheme", default="unsafe",
                          help="unsafe or a scheme_grid cell "
                          "(e.g. fence-ep)")
    submit_p.add_argument("--instructions", type=int, default=4000)
    submit_p.add_argument("--threads", type=int, default=8)
    submit_p.add_argument("--sanitize", action="store_true",
                          help="run with the invariant sanitizer on")
    submit_p.add_argument("--chaos", default="", metavar="JSON",
                          help="ChaosConfig fields as a JSON object")
    submit_p.add_argument("--priority", type=int, default=5,
                          help="0=interactive .. 10=bulk (default 5)")
    submit_p.add_argument("--tenant", default="default",
                          help="tenant name for fair-share accounting "
                          "(default 'default')")
    submit_p.add_argument("--wait", action="store_true",
                          help="block until the job finishes and print "
                          "its result document")
    submit_p.add_argument("--wait-timeout", type=float, default=600.0)
    submit_p.set_defaults(func=_cmd_submit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
