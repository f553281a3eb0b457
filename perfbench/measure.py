"""One benchmark process: set up a workload, then measure it.

``run.py`` starts this script in a fresh interpreter, passing the
``perf_counter`` reading taken just before the spawn (``--t0``), so the
set-up time reported here covers interpreter start, imports and building
the workload.  With ``--setup-only`` it stops there; otherwise it runs
measured passes for ``--seconds`` seconds and prints one JSON line last.

With ``--trace 1`` the first half of the time runs untraced reference
passes, then :func:`layers.install` wraps the layers and the second half
runs traced passes; per-layer numbers are per traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import layers
from workloads import WORKLOADS, PassResult, SweepAudit, Tally, Workload


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter() of the parent just before spawning")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def measure(workload: Workload, seconds: float, tally: Tally,
            tracer: "layers.LayerTracer | None" = None) -> list[PassResult]:
    """Closed loop of passes: at least one, then more while they fit."""
    passes: list[PassResult] = []
    durations: list[float] = []
    began = perf_counter()
    while True:
        gc.collect()
        start = perf_counter()
        run_pass = layers.traced(tracer, workload.run_pass, layers.WORKLOAD,
                                 "workload", f"pass {len(passes) + 1}")
        passes.append(run_pass(tally, tracer))
        durations.append(perf_counter() - start)
        if perf_counter() - began + statistics.median(durations) > seconds:
            return passes


def median_of(passes: list[PassResult], key: str) -> float:
    """Median of one phase over the passes that have it (0.0 if none)."""
    values = [p.phases[key] for p in passes if key in p.phases]
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its reaped children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(passes: list[PassResult]) -> dict[str, float]:
    """The untraced metrics (set-up time is added by run.py)."""
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "events_per_s": statistics.median(p.events / p.events_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer: "layers.LayerTracer", reference: list[PassResult],
              traced: list[PassResult], tally: Tally) -> dict[str, float]:
    """Every per-layer metric, per traced pass; 0 for idle layers."""
    passes = len(traced)
    empty = layers.Accumulator()

    def acc(layer: str) -> layers.Accumulator:
        return tracer.layers.get(layer, empty)

    def self_s(layer: str) -> float:
        return acc(layer).self_ns / 1e9 / passes

    def total_s(layer: str) -> float:
        return acc(layer).total_ns / 1e9 / passes

    def calls(layer: str) -> float:
        return acc(layer).calls / passes

    def counter(name: str) -> float:
        return tracer.counters.get(name, 0) / passes

    def ratio(numerator: str, denominator: str) -> float:
        below = tracer.counters.get(denominator, 0)
        return tracer.counters.get(numerator, 0) / below if below else 0.0

    untraced_wall = statistics.median(p.wall_s for p in reference)
    traced_wall = statistics.median(p.wall_s for p in traced)
    return {
        "adversary.program.self_s": self_s(layers.PROGRAM),
        "adversary.program.requests": counter("adversary.program.requests"),
        "adversary.driver.calls": calls(layers.DRIVER),
        "adversary.driver.self_s": self_s(layers.DRIVER),
        "mm.prepare.calls": calls(layers.PREPARE),
        "mm.prepare.self_s": self_s(layers.PREPARE),
        "mm.move.calls": counter("mm.move.calls"),
        "mm.moved_words": counter("mm.moved_words"),
        "mm.place.calls": calls(layers.PLACE),
        "mm.place.self_s": self_s(layers.PLACE),
        "mm.notify.self_s": self_s(layers.NOTIFY),
        "mm.budget.calls": calls(layers.BUDGET),
        "mm.budget.self_s": self_s(layers.BUDGET),
        "mm.budget.grant_frac": ratio("mm.budget.granted", "mm.budget.asked"),
        "heap.mutate.calls": calls(layers.MUTATE),
        "heap.mutate.self_s": self_s(layers.MUTATE),
        "heap.query.calls": calls(layers.QUERY),
        "heap.query.self_s": self_s(layers.QUERY),
        "heap.search.gaps_per_search": ratio("heap.search.gaps_examined",
                                             "heap.search.searches"),
        "heap.search.index_hit_frac": ratio("heap.search.index_hits",
                                            "heap.search.searches"),
        "obs.emit.calls": calls(layers.EMIT),
        "obs.emit.self_s": self_s(layers.EMIT),
        "obs.export.self_s": self_s(layers.EXPORT),
        "obs.export.bytes": counter("obs.export.bytes"),
        "parallel.engine.executed": counter("parallel.engine.executed"),
        "parallel.cache.hits": counter("parallel.cache.hits"),
        "parallel.task.busy_s": total_s(layers.TASK),
        "parallel.pool.idle_s": max(
            0.0, counter("parallel.engine.slot_ns") / 1e9 - total_s(layers.TASK)),
        "parallel.cache.get_s": total_s(layers.CACHE_GET),
        "parallel.cache.record_s": total_s(layers.CACHE_RECORD),
        "check.events": counter("check.events"),
        "check.read_s": total_s(layers.READ),
        "check.checkers_s": total_s(layers.CHECKERS),
        "exact.probes": calls(layers.PROBE),
        "exact.probe_s": total_s(layers.PROBE),
        "exact.orbits": counter("exact.orbits"),
        "exact.edges": counter("exact.edges"),
        "exact.tt_hits": counter("exact.tt_hits"),
        "exact.peak_frontier": tracer.counters.get("exact.peak_frontier", 0),
        "exact.edges_per_orbit": ratio("exact.edges", "exact.orbits"),
        "trace.overhead": traced_wall / untraced_wall,
        "record_s": median_of(reference, "record_s"),
        "audit_s": median_of(reference, "audit_s"),
        "solve_s": median_of(reference, "solve_s"),
        "budgeted_solve_s": median_of(reference, "budgeted_solve_s"),
        "ops_failed_frac": tally.ops_failed_frac,
    }


def print_trace_summary(tracer: "layers.LayerTracer",
                        traced: list[PassResult]) -> None:
    """Self time per layer, then the coarse spans grouped by name."""
    wall = sum(p.wall_s for p in traced)
    print(f"traced passes: {len(traced)}, traced wall {wall:.3f} s")
    print(f"  {'layer':<22}{'calls':>12}{'self_s':>11}{'share':>8}")
    busy = [item for item in tracer.layers.items() if item[1].calls]
    for name, acc in sorted(busy, key=lambda item: -item[1].self_ns):
        seconds = acc.self_ns / 1e9
        share = seconds / wall if wall else 0.0
        print(f"  {name:<22}{acc.calls:>12}{seconds:>11.4f}{share:>8.1%}")
    groups: dict[str, list[tuple[str, int]]] = {}
    for name, label, start, end, _depth in tracer.spans:
        groups.setdefault(name, []).append((label, end - start))
    for name, items in groups.items():
        label, longest = max(items, key=lambda item: item[1])
        total = sum(duration for _, duration in items) / 1e9
        print(f"  span {name}: {len(items)} spans, {total:.3f} s, "
              f"longest {longest / 1e9:.3f} s ({label})")


def report_failures(tally: Tally, limit: int = 20) -> None:
    """Print the first failures to stderr."""
    for line in tally.failures[:limit]:
        print(f"FAILED {line}", file=sys.stderr)
    if len(tally.failures) > limit:
        print(f"... {len(tally.failures) - limit} more failures", file=sys.stderr)


def describe_environment(workload: Workload) -> str:
    """The resolved kernel, interpreter, numpy and core count."""
    from importlib import metadata

    from repro.heap.kernel import resolve_kernel

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    fields = {
        "kernel": resolve_kernel(None),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        **workload.environment(),
        "seed": workload.seed if workload.uses_seed else "unused",
    }
    return " ".join(f"{key}={value}" for key, value in fields.items())


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cls = WORKLOADS[args.workload]
    # Layers inside pool workers are invisible to an in-process tracer,
    # so the traced sweep runs its pool at jobs=1.
    jobs = 1 if args.trace and cls is SweepAudit else None
    workload = cls(args.seed, Path(args.work_dir), jobs=jobs)
    setup_s = perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"env: {describe_environment(workload)}")
    tally = Tally()
    if not args.trace:
        passes = measure(workload, args.seconds, tally)
        workload.final_check(tally)
        values = end_to_end(passes)
        phases = {key: median_of(passes, key)
                  for key in ("record_s", "audit_s", "solve_s", "budgeted_solve_s")
                  if any(key in p.phases for p in passes)}
    else:
        if jobs == 1:
            print("note: traced sweep_audit runs its pool at jobs=1, so pool "
                  "workers' layers are attributed in-process; its untraced "
                  "reference passes use jobs=1 too")
        reference = measure(workload, args.seconds / 2, tally)
        tracer = layers.LayerTracer()
        undo = layers.install(tracer)
        try:
            traced = measure(workload, args.seconds / 2, tally, tracer)
        finally:
            undo()
        workload.final_check(tally)
        values = per_layer(tracer, reference, traced, tally)
        print_trace_summary(tracer, traced)
        phases = {}
        passes = reference + traced
    print(f"passes: {len(passes)}, wall_s per pass: "
          + ", ".join(f"{p.wall_s:.4f}" for p in passes))
    report_failures(tally)
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "values": values,
        "phases": phases,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
