"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``bounds`` — best-known lower/upper bounds at a parameter point;
* ``figure`` — regenerate a paper figure as an ASCII plot and table;
* ``simulate`` — run one adversary/workload against one manager
  (``--telemetry DIR`` records a run: a manifest and its event tape);
* ``experiment`` — run a (program × manager) grid against the bounds
  (``--telemetry DIR`` records every row; ``--jobs``/``--cache-dir``
  fan the grid over worker processes and a result cache);
* ``sweep`` — measured P_F waste over a ``c`` grid × manager family,
  parallel/cached, with a BENCH_JSON summary line;
* ``figures`` — export every figure's CSV plus the simulation sweep
  into a directory (the scripted form of ``figure``);
* ``check`` — static analysis of a recorded run: replay the event
  stream through the paper-invariant checkers (``--replay`` also
  re-runs the configuration and compares stream digests);
* ``report`` — render a recorded run directory (sparklines, the
  waste trajectory replayed from the event tape and the
  stage-transition table);
* ``trace`` — render or export a recorded span trace: Chrome
  ``trace_event`` JSON (Perfetto), a self-time table or raw spans; the
  ``--trace`` flag on ``simulate``/``experiment``/``sweep`` records one;
* ``staticcheck`` — whole-program static analysis of this repository
  (interprocedural float-taint into the budget code, determinism of
  digest-relevant code, plus the per-module lint rules);
* ``exact`` — solve the micro-heap game exactly (optionally budgeted);
* ``solve`` — the scaled exact solver with probe detail: canonical
  orbits, transposition tables, bracketed search, per-phase timings,
  result caching and ``solver.*`` manifest counters;
* ``absolute`` — the Theorem-1 corollary for B-bounded managers;
* ``verify`` — re-run every reproduction check in one pass;
* ``managers`` / ``programs`` — list what is available.

Everything prints to stdout; exit code 0 unless inputs are invalid or a
bound is violated (a reproduction failure is an error by design).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .adversary.catalog import make_program, program_names
from .analysis import (
    experiment_table,
    figure1_series,
    figure2_series,
    figure3_series,
    figure_table,
    pf_experiment,
    render_figure,
    robson_experiment,
    upper_bound_experiment,
)
from .analysis.heapmap import render_heap
from .core.absolute import lower_bound_absolute
from .core.envelope import envelope
from .core.params import BoundParams
from .core.theorem1 import lower_bound, waste_profile
from .exact import (
    exact_waste_factor,
    minimum_heap_words,
    minimum_heap_words_budgeted,
)
from .mm.registry import create_manager, manager_names

__all__ = ["main", "build_parser"]

#: Default ``repro sweep`` grid: figure-3 style c values, all feasible
#: for P_F at the default M=8192/n=128 simulation scale (c=2 is not:
#: Stage II needs a density exponent, see theorem1.feasible_exponents).
_SWEEP_DEFAULT_GRID = (5.0, 10.0, 20.0, 50.0, 100.0)
_SWEEP_DEFAULT_MANAGERS = ("first-fit", "sliding-compactor", "theorem2")


def _params_from(args: argparse.Namespace) -> BoundParams:
    c = None if args.c in (None, 0) else float(args.c)
    return BoundParams(args.live, args.object, c)


def _add_param_flags(parser: argparse.ArgumentParser, *, default_live: int,
                     default_object: int, default_c: float | None) -> None:
    parser.add_argument(
        "--live", type=int, default=default_live,
        help=f"live-space bound M in words (default {default_live})",
    )
    parser.add_argument(
        "--object", type=int, default=default_object,
        help=f"largest object n in words, a power of two (default {default_object})",
    )
    parser.add_argument(
        "--c", type=float, default=default_c,
        help="compaction divisor c (0 or omit for no compaction)"
        if default_c is None else f"compaction divisor c (default {default_c})",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """``--jobs`` / ``--cache-dir``: the parallel-engine knobs."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the simulation grid (default 1; "
             "0 = all available cores)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="on-disk result cache; repeated runs reuse finished points",
    )


def _add_kernel_flag(parser: argparse.ArgumentParser) -> None:
    """``--kernel``: the occupancy backend (reference or bitmap)."""
    from .heap.kernel import KERNEL_ENV_VAR, KERNEL_NAMES

    parser.add_argument(
        "--kernel", choices=KERNEL_NAMES, default=None,
        help="occupancy backend: 'bitmap' = vectorized numpy kernel, "
             "'reference' = pure-Python interval set (default: the "
             f"{KERNEL_ENV_VAR} environment variable, else bitmap when "
             "numpy is installed, else reference)",
    )


def _add_trace_flag(parser: argparse.ArgumentParser,
                    default_out: str) -> None:
    """``--trace [PATH]``: span tracing with a Chrome trace export."""
    parser.add_argument(
        "--trace", nargs="?", const=default_out, default=None,
        metavar="PATH",
        help="record hierarchical spans and export a Chrome trace_event "
             f"JSON (Perfetto-loadable) to PATH (default {default_out})",
    )


def _engine_from(args: argparse.Namespace, tracer=None):
    from .parallel import ParallelEngine, default_jobs

    jobs = args.jobs if args.jobs > 0 else default_jobs()
    return ParallelEngine(jobs=jobs, cache_dir=args.cache_dir,
                          tracer=tracer)


def _export_chrome_trace(tracer, path: str, *, trace_name: str) -> None:
    """Write a tracer's spans as a Chrome trace and say where it went."""
    import json as json_mod
    from pathlib import Path

    from .obs.trace import to_chrome_trace

    document = to_chrome_trace(tracer.spans, trace_name=trace_name)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json_mod.dumps(document) + "\n", encoding="utf-8")
    lanes = document["otherData"]["lanes"]
    print(f"trace: {len(tracer.spans)} spans across {lanes} lanes -> "
          f"{target} (open in Perfetto / chrome://tracing)")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Limitations of Partial Compaction (PLDI'13) toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    bounds = commands.add_parser("bounds", help="bounds at one point")
    _add_param_flags(bounds, default_live=1 << 28, default_object=1 << 20,
                     default_c=100.0)
    bounds.add_argument("--profile", action="store_true",
                        help="also print h(ell) for every feasible ell")

    figure = commands.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("which", choices=("fig1", "fig2", "fig3"))
    figure.add_argument("--table", action="store_true",
                        help="print the full data table too")

    simulate = commands.add_parser("simulate", help="one program vs one manager")
    simulate.add_argument("--program", choices=program_names(), default="pf")
    simulate.add_argument("--manager", default="first-fit",
                          help=f"one of: {', '.join(manager_names())}")
    _add_param_flags(simulate, default_live=8192, default_object=128,
                     default_c=50.0)
    simulate.add_argument("--heapmap", action="store_true",
                          help="render the final heap occupancy")
    simulate.add_argument("--telemetry", metavar="DIR", default=None,
                          help="record the run (manifest.json + events.tape) "
                               "into DIR for `repro report`")
    simulate.add_argument("--sanitize", action="store_true",
                          help="run the paper-invariant checkers over the "
                               "run's events (exit 1 on any violation)")
    _add_kernel_flag(simulate)
    _add_trace_flag(simulate, "trace.json")

    experiment = commands.add_parser("experiment", help="grid vs the bounds")
    experiment.add_argument("which", choices=("robson", "pf", "upper"))
    _add_param_flags(experiment, default_live=8192, default_object=128,
                     default_c=50.0)
    experiment.add_argument("--telemetry", metavar="DIR", default=None,
                            help="record each grid row into DIR/<program>__"
                                 "<manager>/")
    experiment.add_argument("--sanitize", action="store_true",
                            help="run the paper-invariant checkers on every "
                                 "row (exit 1 on any violation)")
    _add_engine_flags(experiment)
    _add_kernel_flag(experiment)
    _add_trace_flag(experiment, "experiment-trace.json")

    sweep = commands.add_parser(
        "sweep",
        help="measured P_F waste over a c grid x manager family",
    )
    sweep.add_argument("--live", type=int, default=8192,
                       help="live-space bound M in words (default 8192)")
    sweep.add_argument("--object", type=int, default=128,
                       help="largest object n in words (default 128)")
    sweep.add_argument(
        "--grid", default=",".join(str(c) for c in _SWEEP_DEFAULT_GRID),
        metavar="C1,C2,...",
        help="comma-separated compaction divisors "
             f"(default {','.join(str(c) for c in _SWEEP_DEFAULT_GRID)})",
    )
    sweep.add_argument(
        "--managers", default=",".join(_SWEEP_DEFAULT_MANAGERS),
        metavar="NAME,...",
        help="comma-separated manager names "
             f"(default {','.join(_SWEEP_DEFAULT_MANAGERS)})",
    )
    sweep.add_argument("--csv", metavar="PATH", default=None,
                       help="also write the sweep as CSV to PATH")
    _add_engine_flags(sweep)
    _add_kernel_flag(sweep)
    _add_trace_flag(sweep, "sweep-trace.json")

    figures = commands.add_parser(
        "figures",
        help="export figure CSVs + the simulation sweep into a directory",
    )
    figures.add_argument("--outdir", default="figures",
                         help="output directory (default ./figures)")
    _add_engine_flags(figures)

    check = commands.add_parser(
        "check",
        help="static analysis of a recorded run (paper-invariant sanitizer)",
    )
    check.add_argument("path", help="run directory written by --telemetry, "
                                    "or a bare events.tape / events.jsonl")
    check.add_argument("--replay", action="store_true",
                       help="additionally re-run the recorded configuration "
                            "and compare event-stream digests")
    check.add_argument("--max-violations", type=int, default=20,
                       help="violations to print before eliding (default 20)")

    export = commands.add_parser(
        "export",
        help="write a recorded run's events as events.jsonl",
    )
    export.add_argument("path", help="run directory written by --telemetry, "
                                     "or a bare events.tape / events.jsonl")
    export.add_argument("out", help="the JSONL file to write")

    trace = commands.add_parser(
        "trace",
        help="render or export a recorded span trace (trace.jsonl)",
    )
    trace.add_argument("path", help="run directory containing trace.jsonl "
                                    "(written by --telemetry with --trace), "
                                    "or a bare trace.jsonl file")
    trace.add_argument("--format", choices=("chrome", "tree", "json"),
                       default="tree",
                       help="chrome = trace_event JSON (Perfetto), "
                            "tree = self-time table, json = raw spans "
                            "(default tree)")
    trace.add_argument("--out", metavar="FILE", default=None,
                       help="write the document to FILE instead of stdout")
    trace.add_argument("--top", type=int, default=20, metavar="N",
                       help="span names shown in the tree table (default 20)")

    report = commands.add_parser(
        "report", help="render a recorded run directory"
    )
    report.add_argument("directory", help="run directory written by "
                                          "--telemetry")
    report.add_argument("--width", type=int, default=60,
                        help="sparkline width in cells (default 60)")
    report.add_argument("--no-plot", action="store_true",
                        help="skip the full trajectory plot")

    staticcheck = commands.add_parser(
        "staticcheck",
        help="whole-program static analysis (float-taint/determinism + lint)",
    )
    staticcheck.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to analyze "
             "(default: src/repro tools, as one program)",
    )
    staticcheck.add_argument("--format", choices=("text", "json", "sarif"),
                             default="text", help="report format")
    staticcheck.add_argument("--output", metavar="FILE", default=None,
                             help="write the report to FILE instead of stdout "
                                  "(a one-line summary still prints)")
    staticcheck.add_argument("--rules", metavar="NAME,...", default=None,
                             help="run only these rules/passes (names or "
                                  "rule ids, comma-separated)")
    staticcheck.add_argument("--list-rules", action="store_true",
                             help="print the rule catalog and exit")
    staticcheck.add_argument("--max-findings", type=int, default=100,
                             help="findings to print before eliding "
                                  "(text format, default 100)")

    exact = commands.add_parser("exact", help="micro-heap exact game value")
    exact.add_argument("--live", type=int, default=4)
    exact.add_argument("--object", type=int, default=2)
    exact.add_argument("--all-sizes", action="store_true",
                       help="allow every size, not just powers of two")
    exact.add_argument("--budget", type=int, default=None,
                       help="solve the budgeted game with B moved words")

    solve = commands.add_parser(
        "solve",
        help="scaled exact-game solver (canonical orbits, transposition "
             "tables, bracketed search)",
    )
    solve.add_argument("--live", type=int, default=8,
                       help="live-space bound M in words (default 8)")
    solve.add_argument("--object", type=int, default=2,
                       help="largest object n in words (default 2)")
    solve.add_argument("--all-sizes", action="store_true",
                       help="allow every size, not just powers of two")
    solve.add_argument("--budget", type=int, default=None,
                       help="solve the budgeted game with B moved words")
    solve.add_argument("--search", choices=("auto", "gallop", "linear"),
                       default="auto",
                       help="heap-size search strategy (default auto: "
                            "formula-seeded bracket)")
    solve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="on-disk result cache; repeated solves replay "
                            "the stored value")
    solve.add_argument("--record", metavar="DIR", default=None,
                       help="write a run manifest with solver.* counters "
                            "into DIR")
    solve.add_argument("--stats", action="store_true",
                       help="print per-probe solver counters")

    absolute = commands.add_parser(
        "absolute", help="Theorem-1 corollary for a B-bounded manager"
    )
    absolute.add_argument("--live", type=int, default=1 << 28)
    absolute.add_argument("--object", type=int, default=1 << 20)
    absolute.add_argument("--budget", type=int, required=True,
                          help="absolute move budget B, in words")

    verify = commands.add_parser(
        "verify", help="re-run every reproduction check"
    )
    verify.add_argument("--fast", action="store_true",
                        help="smaller simulation scale (seconds, not minutes)")

    commands.add_parser("managers", help="list registered managers")
    commands.add_parser("programs", help="list available programs")
    return parser


def _cmd_bounds(args: argparse.Namespace) -> int:
    params = _params_from(args)
    print(f"parameters: {params.describe()}")
    if params.allows_compaction:
        result = lower_bound(params)
        print(f"theorem 1 lower bound: h = {result.waste_factor:.4f} "
              f"(ell = {result.density_exponent}) "
              f"-> heap >= {result.heap_words:.0f} words")
        if args.profile:
            for ell, h in sorted(waste_profile(params).items()):
                print(f"  h(ell={ell}) = {h:.4f}")
    env = envelope(params)
    print(f"best lower bound: {env.lower_factor:.4f} x M ({env.lower_source})")
    print(f"best upper bound: {env.upper_factor:.4f} x M ({env.upper_source})")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    series = {
        "fig1": figure1_series,
        "fig2": figure2_series,
        "fig3": figure3_series,
    }[args.which]()
    print(render_figure(series))
    if args.table:
        print()
        print(figure_table(series))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .adversary.driver import ExecutionDriver

    params = _params_from(args)
    program = make_program(args.program, params)
    manager = create_manager(args.manager, params)
    sanitizer = None
    tracer = None
    if args.trace is not None:
        from .obs.trace import Tracer

        # Single-run drill-down: fine tracing (per-alloc/free/move
        # spans with SearchStats deltas), not just run/stage spans.
        tracer = Tracer(fine=True)
    if args.sanitize:
        from .check import CheckContext, Sanitizer

        sanitizer = Sanitizer(CheckContext.from_params(
            params, program=program.name, manager=args.manager,
        ))
        sanitizer.attach_program(program)
    if args.telemetry:
        from .obs.telemetry import run_recorded

        drivers: list = []
        result = run_recorded(
            params, program, manager, args.telemetry,
            on_driver=drivers.append,
            tracer=tracer,
            kernel=args.kernel,
        )
        heap = drivers[0].heap
        if sanitizer is not None:
            sanitizer.attach(drivers[0].observer)
    else:
        observer = None
        if sanitizer is not None:
            from .obs.events import EventBus

            observer = EventBus()
            sanitizer.attach(observer)
        driver = ExecutionDriver(params, manager, observer=observer,
                                 tracer=tracer, kernel=args.kernel)
        result = driver.run(program)
        heap = driver.heap
    print(result.summary())
    metrics = result.metrics
    print(f"utilization {metrics.utilization:.3f}, "
          f"external fragmentation {metrics.external_fragmentation:.3f}, "
          f"moves {result.move_count}")
    print(f"wall {result.wall_seconds:.4f} s, "
          f"{result.events_per_second:,.0f} events/s")
    if args.telemetry:
        print(f"telemetry written to {args.telemetry} "
              f"(render with: repro report {args.telemetry})")
    if tracer is not None:
        tracer.close_open()
        _export_chrome_trace(
            tracer, args.trace,
            trace_name=f"simulate {args.program} vs {args.manager}",
        )
    if args.heapmap:
        print(render_heap(heap))
    if sanitizer is not None:
        report = sanitizer.finish(raise_on_violation=False)
        print()
        print("sanitizer:", "clean" if report.ok else "VIOLATIONS")
        print(report.describe())
        if not report.ok:
            return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .check import check_run_directory, check_trace_file, replay_digest

    path = Path(args.path)
    try:
        if path.is_dir():
            report = check_run_directory(path)
        elif path.is_file():
            report = check_trace_file(path)
        else:
            print(f"error: no such run directory or trace: {path}",
                  file=sys.stderr)
            return 2
    except (FileNotFoundError, ValueError, KeyError, TypeError) as error:
        print(f"error: cannot load {path}: {error}", file=sys.stderr)
        return 2
    print(report.describe(max_violations=args.max_violations))
    failed = not report.ok
    if args.replay:
        if not path.is_dir():
            print("error: --replay needs a run directory (manifest.json)",
                  file=sys.stderr)
            return 2
        from .obs.export import load_manifest

        manifest = load_manifest(path)
        fresh = replay_digest(manifest)
        recorded = manifest.get("event_digest")
        if fresh is None:
            print("replay: skipped (program not reconstructible)")
        elif fresh == recorded:
            print(f"replay: deterministic (digest {fresh})")
        else:
            print(f"replay: DIGEST MISMATCH (recorded {recorded}, "
                  f"replayed {fresh})")
            failed = True
    if failed:
        print("\nFAIL: paper invariants violated", file=sys.stderr)
        return 1
    print("\nOK: all invariants hold")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs.export import load_run, read_tape

    path = Path(args.path)
    try:
        if path.is_dir():
            tape = load_run(path).tape
        elif path.is_file():
            tape = read_tape(path)
        else:
            print(f"error: no such run directory or event file: {path}",
                  file=sys.stderr)
            return 2
    except (FileNotFoundError, ValueError) as error:
        print(f"error: cannot load {path}: {error}", file=sys.stderr)
        return 2
    try:
        written = tape.write_jsonl(args.out)
    except OSError as error:
        print(f"error: cannot write {args.out}: {error}", file=sys.stderr)
        return 2
    print(f"wrote {written} ({len(tape)} events)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as json_mod
    from pathlib import Path

    from .obs.profile import render_top
    from .obs.trace import read_trace, to_chrome_trace

    try:
        spans = read_trace(args.path)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not spans:
        print("error: trace is empty", file=sys.stderr)
        return 2

    if args.format == "chrome":
        document = json_mod.dumps(to_chrome_trace(
            spans, trace_name=str(args.path)))
    elif args.format == "json":
        document = "\n".join(json_mod.dumps(span.to_dict(), sort_keys=True)
                             for span in spans)
    else:
        document = render_top(spans, limit=args.top)

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(document + "\n", encoding="utf-8")
        print(f"wrote {out} ({len(spans)} spans)")
    else:
        print(document)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.export import load_run
    from .obs.report import render_run

    try:
        run = load_run(args.directory)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_run(run, width=args.width, plot=not args.no_plot))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .check import InvariantViolationError

    from .parallel import default_jobs

    params = _params_from(args)
    telemetry_dir = args.telemetry
    sanitize = args.sanitize
    jobs = args.jobs if args.jobs > 0 else default_jobs()
    tracer = None
    if args.trace is not None:
        from .obs.trace import Tracer

        tracer = Tracer()
    engine_kwargs = {"jobs": jobs, "cache_dir": args.cache_dir,
                     "tracer": tracer, "kernel": args.kernel}
    try:
        if args.which == "robson":
            rows = robson_experiment(params.with_compaction(None),
                                     telemetry_dir=telemetry_dir,
                                     sanitize=sanitize, **engine_kwargs)
            bad = [r for r in rows if not r.respects_lower_bound]
        elif args.which == "pf":
            rows = pf_experiment(params, telemetry_dir=telemetry_dir,
                                 sanitize=sanitize, **engine_kwargs)
            bad = [r for r in rows if not r.respects_lower_bound]
        else:
            rows = upper_bound_experiment(params, telemetry_dir=telemetry_dir,
                                          sanitize=sanitize, **engine_kwargs)
            bad = [r for r in rows if not r.respects_upper_bound]
    except InvariantViolationError as error:
        print("SANITIZER VIOLATIONS:", file=sys.stderr)
        print(error.report.describe(), file=sys.stderr)
        return 1
    print(experiment_table(rows))
    if telemetry_dir:
        print(f"\nper-row telemetry written under {telemetry_dir}/")
    if tracer is not None:
        tracer.close_open()
        _export_chrome_trace(tracer, args.trace,
                             trace_name=f"experiment {args.which}")
    if bad:
        print(f"\nBOUND VIOLATIONS ({len(bad)}):")
        for row in bad:
            print(" ", row.result.summary())
        return 1
    print("\nall rows respect the bound")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from .analysis.sweep import simulation_sweep, sweep_to_csv

    try:
        c_values = tuple(float(c) for c in args.grid.split(",") if c)
    except ValueError:
        print(f"error: bad --grid {args.grid!r} (want C1,C2,...)",
              file=sys.stderr)
        return 2
    managers = tuple(name for name in args.managers.split(",") if name)
    known = set(manager_names())
    unknown = [name for name in managers if name not in known]
    if not c_values or not managers or unknown:
        detail = (f"unknown managers: {', '.join(unknown)}" if unknown
                  else "empty --grid or --managers")
        print(f"error: {detail}", file=sys.stderr)
        return 2
    base = BoundParams(args.live, args.object)
    tracer = None
    if args.trace is not None:
        from .obs.trace import Tracer

        tracer = Tracer()
    engine = _engine_from(args, tracer=tracer)
    rows = simulation_sweep(base, c_values, managers, engine=engine,
                            kernel=args.kernel)
    csv_text = sweep_to_csv(rows, managers)
    if args.csv:
        from pathlib import Path

        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(csv_text + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(rows)} rows)")
    else:
        print(csv_text)
    stats_obj = engine.stats
    print(f"sweep: {stats_obj.executed} simulated, "
          f"{stats_obj.cache_hits} cache hits, "
          f"{stats_obj.cache_misses} misses, "
          f"{stats_obj.cache_evictions} evicted, "
          f"jobs={stats_obj.jobs}, {stats_obj.wall_seconds:.2f}s")
    if tracer is not None:
        tracer.close_open()
        _export_chrome_trace(tracer, args.trace, trace_name="repro sweep")
    stats = stats_obj.as_dict()
    from .heap.kernel import resolve_kernel

    print("BENCH_JSON " + json.dumps({
        "name": "repro_sweep",
        "params": {
            "live": args.live, "object": args.object,
            "grid": list(c_values), "managers": list(managers),
            "kernel": resolve_kernel(args.kernel),
        },
        "wall_s": stats["wall_seconds"],
        "results": stats,
    }, sort_keys=True))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import to_csv
    from .analysis.sweep import simulation_sweep, sweep_to_csv

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, series in (
        ("figure1", figure1_series()),
        ("figure2", figure2_series()),
        ("figure3", figure3_series()),
    ):
        path = outdir / f"{name}.csv"
        path.write_text(to_csv(series.header(), series.rows()) + "\n",
                        encoding="utf-8")
        print(f"wrote {path} ({len(series.x_values)} rows)")
    managers = _SWEEP_DEFAULT_MANAGERS
    engine = _engine_from(args)
    rows = simulation_sweep(
        BoundParams(8192, 128), (10.0, 20.0, 50.0, 100.0), managers,
        engine=engine,
    )
    path = outdir / "simulation_sweep.csv"
    path.write_text(sweep_to_csv(rows, managers) + "\n", encoding="utf-8")
    stats = engine.stats
    print(f"wrote {path} ({len(rows)} rows; managers: {', '.join(managers)})")
    print(f"sweep: {stats.executed} simulated, {stats.cache_hits} cached, "
          f"jobs={stats.jobs}, {stats.wall_seconds:.2f}s")
    return 0


def _cmd_staticcheck(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .staticcheck import rule_catalog, render_text, to_json, to_sarif
    from .staticcheck.runner import repo_root, run_staticcheck

    if args.list_rules:
        from .staticcheck.base import TIERS

        catalog = rule_catalog()
        for tier in TIERS:
            specs = [spec for spec in catalog if spec.tier == tier]
            if not specs:
                continue
            print(f"{tier} tier:")
            for spec in specs:
                ids = ", ".join(spec.rule_ids)
                print(f"  {spec.name} [{spec.kind}] ({ids})")
                print(f"      {spec.description}")
        return 0

    root = repo_root()
    paths = [Path(p) for p in args.paths] if args.paths else None
    rules = ([token for token in args.rules.split(",") if token]
             if args.rules else None)
    if rules:
        known: set[str] = set()
        for spec in rule_catalog():
            known.add(spec.name)
            known.update(spec.rule_ids)
        unknown = sorted(set(rules) - known)
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            print("available rules:", file=sys.stderr)
            for spec in rule_catalog():
                ids = ", ".join(i for i in spec.rule_ids if i != spec.name)
                extra = f" (reports: {ids})" if ids else ""
                print(f"  {spec.name}{extra}", file=sys.stderr)
            return 2
    result = run_staticcheck(paths, root=root, rules=rules)
    if args.format == "text":
        document = render_text(result.findings, result.files_checked, root,
                               result.wall_seconds,
                               max_findings=args.max_findings)
    elif args.format == "json":
        document = to_json(result.findings, result.files_checked, root)
    else:
        document = to_sarif(result.findings, rule_catalog(), root)
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(document + "\n", encoding="utf-8")
        status = "FAIL" if result.findings else "OK"
        print(f"{status}: {result.files_checked} files checked, "
              f"{len(result.findings)} findings -> {out}")
    else:
        print(document)
    return result.exit_code


def _cmd_exact(args: argparse.Namespace) -> int:
    if args.budget is not None:
        words = minimum_heap_words_budgeted(
            args.live, args.object, args.budget
        )
        print(f"exact minimum heap for M={args.live}, n={args.object}, "
              f"B={args.budget}: {words} words ({words / args.live:.4f} x M)")
        return 0
    words = minimum_heap_words(
        args.live, args.object, power_of_two_sizes=not args.all_sizes
    )
    factor = exact_waste_factor(
        args.live, args.object, power_of_two_sizes=not args.all_sizes
    )
    print(f"exact minimum heap for M={args.live}, n={args.object}: "
          f"{words} words ({float(factor):.4f} x M)")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from .parallel.cache import RESULT_FILENAME, ResultCache
    from .parallel.tasks import (
        SolveResult,
        SolveTask,
        _write_json_atomic,
        run_solve_task,
    )

    task = SolveTask(
        live_bound=args.live,
        max_object=args.object,
        power_of_two_sizes=not args.all_sizes,
        move_budget=args.budget,
    )
    cache = (ResultCache(args.cache_dir, result_type=SolveResult)
             if args.cache_dir is not None else None)
    result = cache.get(task) if cache is not None else None
    if result is None:
        result = run_solve_task(task, search=args.search)
        if cache is not None:
            entry = cache.entry_dir(task)
            entry.mkdir(parents=True, exist_ok=True)
            payload = result.to_dict()
            payload["cache_key"] = cache.key_for(task)
            _write_json_atomic(entry / RESULT_FILENAME, payload)
            cache.record_executions([result])
    assert isinstance(result, SolveResult)

    family = f"sizes 1..{args.object}" if args.all_sizes else "P2 sizes"
    budget_note = (f", B={args.budget}" if args.budget is not None else "")
    source = "cache" if result.from_cache else "solved"
    print(f"exact minimum heap for M={args.live}, n={args.object}"
          f"{budget_note} ({family}): {result.minimum_heap_words} words "
          f"[{source}, {result.wall_seconds:.3f}s]")
    probe_text = ", ".join(
        f"H={heap}:{'program' if wins else 'manager'}"
        for heap, wins in result.probes
    )
    print(f"probes: {probe_text}")
    print(f"orbits visited: {result.event_count}")
    if args.stats:
        for stats in result.stats:
            # Cache entries written before the per-phase timings lack them.
            phases = "".join(
                f" {phase}={stats[f'{phase}_s']}s"
                for phase in ("explore", "attractor", "harvest")
                if f"{phase}_s" in stats
            )
            print(
                f"  H={stats['heap_words']}: orbits={stats['orbits_visited']}"
                f" edges={stats['edges']} epochs={stats['epochs']}"
                f" peak_frontier={stats['peak_frontier']}"
                f" tt_safe={stats['tt_safe_hits']}"
                f" tt_win={stats['tt_win_hits']}"
                f" wall={stats['wall_seconds']}s{phases}"
            )
    if args.record is not None:
        from .obs.export import build_manifest, write_manifest
        from .obs.metrics import MetricsRegistry
        from .obs.telemetry import record_solver_metrics

        registry = MetricsRegistry()
        record_solver_metrics(registry, list(result.stats))
        manifest = build_manifest(
            program="exact-solve",
            manager="game-solver",
            params={"live_space": args.live, "max_object": args.object,
                    "compaction_divisor": None},
            config={"task": task.to_dict(), "search": args.search},
            result={"minimum_heap_words": result.minimum_heap_words,
                    "probes": [list(pair) for pair in result.probes],
                    "from_cache": result.from_cache},
            metrics=registry.as_dict(),
            wall_seconds=result.wall_seconds,
            event_count=result.event_count,
            event_digest=result.event_digest,
        )
        path = write_manifest(args.record, manifest)
        print(f"recorded: {path}")
    return 0


def _cmd_absolute(args: argparse.Namespace) -> int:
    params = BoundParams(args.live, args.object)
    result = lower_bound_absolute(params, args.budget)
    print(f"parameters: {params.describe()}, B = {args.budget} words")
    if result.is_trivial:
        print("corollary: only the trivial bound HS >= M applies")
    else:
        print(f"corollary lower bound: h = {result.waste_factor:.4f} "
              f"(effective c = {result.effective_divisor:.2f}, "
              f"ell = {result.density_exponent}) -> heap >= "
              f"{result.heap_words:.0f} words")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "staticcheck":
            return _cmd_staticcheck(args)
        if args.command == "exact":
            return _cmd_exact(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "absolute":
            return _cmd_absolute(args)
        if args.command == "verify":
            from .analysis.verification import verify_reproduction

            results = verify_reproduction(fast=args.fast)
            failures = 0
            for check in results:
                status = "PASS" if check.passed else "FAIL"
                print(f"[{status}] {check.name}: {check.detail}")
                failures += 0 if check.passed else 1
            print(f"\n{len(results) - failures}/{len(results)} checks passed")
            return 0 if failures == 0 else 1
        if args.command == "managers":
            print("\n".join(manager_names()))
            return 0
        if args.command == "programs":
            print("\n".join(program_names()))
            return 0
    except (ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable: argparse enforces the command set")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
