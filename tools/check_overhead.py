#!/usr/bin/env python
"""Telemetry and sanitizer overhead smoke check.

Runs the same P_F execution five ways — uninstrumented (``observer=None``
everywhere), with a bare :class:`repro.obs.events.EventBus` as the
driver's observer (the driver records one tape row per event and builds
no event objects), with a *disabled* :class:`repro.obs.trace.Tracer`
passed to the driver (collapses to the no-tracer fast path: one pointer
comparison per operation), with a full
:class:`repro.obs.telemetry.Telemetry` attached (what a recorded run
pays: tape rows, the heap sampler on the bus's row clock, timed
allocations, and one read of ``telemetry.registry``, which folds the
metrics from the tape's columns; no event object is built), and with
the :class:`repro.check.Sanitizer` attached to the instrumented bus
(its checkers make one pass each over the bus's tape at ``finish()``,
which is timed with the run) — and fails if
the bare bus is more than
``--no-sink-threshold`` (default 1.5) times slower, the disabled tracer
more than ``--no-trace-threshold`` (default 1.5, target ~1.05) times
slower, instrumentation more than ``--threshold`` (default 2.0) times
slower, or sanitizing more than ``--sanitize-threshold`` (default 6.0)
times slower than the baseline.

Each run is timed in process CPU time (``time.process_time``), so time
the process spends descheduled on a shared host does not count.  The
variants are interleaved: each of the ``--repeats`` rounds runs every
variant once, so a noisy stretch slows all of them alike, and the
*minimum* per variant is compared.

Usage::

    PYTHONPATH=src python tools/check_overhead.py [--threshold 2.0]

Exit status 0 when within budget, 1 when over.  The measurements are
also emitted as one ``BENCH_JSON {...}`` record (same schema as the
``bench_record`` fixture in ``benchmarks/conftest.py``) and, with
``--bench-out DIR``, written to ``DIR/BENCH_telemetry_overhead.json``
so the perf trajectory captures the checker cost across commits.  The
same check runs as an opt-in pytest marker:
``pytest tests/obs/test_overhead.py -m overhead``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.adversary import PFProgram
from repro.adversary.driver import ExecutionDriver
from repro.check import CheckContext, Sanitizer
from repro.core.params import BoundParams
from repro.mm import create_manager
from repro.obs.telemetry import Telemetry

#: The workload: big enough to dominate per-run setup, small enough to
#: finish in well under a second per repeat at pure-Python speed.
PARAMS = BoundParams(live_space=4096, max_object=64, compaction_divisor=20.0)
MANAGER = "sliding-compactor"


@dataclass(frozen=True)
class OverheadReport:
    """Minimum CPU times (seconds) and their ratios.

    ``sanitized_s`` / ``no_sink_s`` are ``None`` when those variants
    were not measured (the default for :func:`measure`, keeping the
    historical two-variant interface).
    """

    baseline_s: float
    instrumented_s: float
    sanitized_s: float | None = None
    no_sink_s: float | None = None
    trace_disabled_s: float | None = None

    @property
    def ratio(self) -> float:
        return self.instrumented_s / self.baseline_s if self.baseline_s else float("inf")

    @property
    def sanitizer_ratio(self) -> float | None:
        """Sanitized/baseline ratio (``None`` when not measured)."""
        if self.sanitized_s is None:
            return None
        return self.sanitized_s / self.baseline_s if self.baseline_s else float("inf")

    @property
    def no_sink_ratio(self) -> float | None:
        """Subscriber-free-bus/baseline ratio (``None`` if unmeasured)."""
        if self.no_sink_s is None:
            return None
        return self.no_sink_s / self.baseline_s if self.baseline_s else float("inf")

    @property
    def trace_disabled_ratio(self) -> float | None:
        """Disabled-tracer/baseline ratio (``None`` if unmeasured)."""
        if self.trace_disabled_s is None:
            return None
        return self.trace_disabled_s / self.baseline_s if self.baseline_s else float("inf")

    def describe(self) -> str:
        text = (
            f"baseline {self.baseline_s * 1e3:.1f} ms, "
            f"instrumented {self.instrumented_s * 1e3:.1f} ms, "
            f"ratio {self.ratio:.2f}x"
        )
        if self.no_sink_s is not None:
            text += (
                f"; no-sink bus {self.no_sink_s * 1e3:.1f} ms, "
                f"ratio {self.no_sink_ratio:.2f}x"
            )
        if self.trace_disabled_s is not None:
            text += (
                f"; disabled tracer {self.trace_disabled_s * 1e3:.1f} ms, "
                f"ratio {self.trace_disabled_ratio:.2f}x"
            )
        if self.sanitized_s is not None:
            text += (
                f"; sanitized {self.sanitized_s * 1e3:.1f} ms, "
                f"ratio {self.sanitizer_ratio:.2f}x"
            )
        return text

    def to_bench_payload(self) -> dict:
        """The ``BENCH_JSON`` record (``bench_record`` fixture schema)."""
        results = {
            "baseline_s": round(self.baseline_s, 6),
            "instrumented_s": round(self.instrumented_s, 6),
            "instrumented_ratio": round(self.ratio, 4),
        }
        if self.no_sink_s is not None and self.no_sink_ratio is not None:
            results["no_sink_s"] = round(self.no_sink_s, 6)
            results["no_sink_ratio"] = round(self.no_sink_ratio, 4)
        if (self.trace_disabled_s is not None
                and self.trace_disabled_ratio is not None):
            results["trace_disabled_s"] = round(self.trace_disabled_s, 6)
            results["trace_disabled_ratio"] = round(
                self.trace_disabled_ratio, 4)
        if self.sanitized_s is not None and self.sanitizer_ratio is not None:
            results["sanitized_s"] = round(self.sanitized_s, 6)
            results["sanitized_ratio"] = round(self.sanitizer_ratio, 4)
        return {
            "name": "telemetry_overhead",
            "params": {
                "live_space": PARAMS.live_space,
                "max_object": PARAMS.max_object,
                "compaction_divisor": PARAMS.compaction_divisor,
                "manager": MANAGER,
            },
            "wall_s": round(self.baseline_s + self.instrumented_s
                            + (self.sanitized_s or 0.0)
                            + (self.no_sink_s or 0.0)
                            + (self.trace_disabled_s or 0.0), 6),
            "results": results,
        }


def _run_baseline() -> float:
    program = PFProgram(PARAMS)
    driver = ExecutionDriver(PARAMS, create_manager(MANAGER, PARAMS))
    start = time.process_time()
    driver.run(program)
    return time.process_time() - start


def _run_no_sink() -> float:
    from repro.obs.events import EventBus

    bus = EventBus()  # tape rows only: no sampler, no metrics
    program = PFProgram(PARAMS)
    driver = ExecutionDriver(
        PARAMS, create_manager(MANAGER, PARAMS), observer=bus
    )
    start = time.process_time()
    driver.run(program)
    return time.process_time() - start


def _run_trace_disabled() -> float:
    from repro.obs.trace import Tracer

    # A constructed-but-disabled tracer: active_tracer() collapses it to
    # None inside the driver, so the whole span machinery costs one
    # pointer comparison per operation.  Target ratio <= 1.05.
    tracer = Tracer(enabled=False)
    program = PFProgram(PARAMS)
    driver = ExecutionDriver(
        PARAMS, create_manager(MANAGER, PARAMS), tracer=tracer
    )
    start = time.process_time()
    driver.run(program)
    return time.process_time() - start


def _run_instrumented() -> float:
    telemetry = Telemetry()
    program = PFProgram(PARAMS)
    driver = ExecutionDriver(
        PARAMS, create_manager(MANAGER, PARAMS), observer=telemetry.bus
    )
    telemetry.bind(driver)
    start = time.process_time()
    driver.run(program)
    telemetry.registry.as_dict()  # the manifest metrics, folded from the tape
    return time.process_time() - start


def _run_sanitized() -> float:
    telemetry = Telemetry()
    program = PFProgram(PARAMS)
    sanitizer = Sanitizer(CheckContext.from_params(
        PARAMS, program=program.name, manager=MANAGER,
    ))
    sanitizer.attach(telemetry.bus)
    sanitizer.attach_program(program)
    driver = ExecutionDriver(
        PARAMS, create_manager(MANAGER, PARAMS), observer=telemetry.bus
    )
    telemetry.bind(driver)
    start = time.process_time()
    driver.run(program)
    sanitizer.finish()
    return time.process_time() - start


def measure(repeats: int = 3, *, sanitize: bool = False,
            no_sink: bool = False,
            trace_disabled: bool = False) -> OverheadReport:
    """Run ``repeats`` interleaved rounds of the variants; compare minima.

    ``sanitize=False`` (the default) measures baseline vs instrumented
    only, preserving the historical interface; ``sanitize=True`` adds
    the checker-loaded variant as ``sanitized_s``; ``no_sink=True``
    adds the bare-bus variant as ``no_sink_s``;
    ``trace_disabled=True`` adds the disabled-tracer variant as
    ``trace_disabled_s``.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    variants = {"baseline_s": _run_baseline,
                "instrumented_s": _run_instrumented}
    if sanitize:
        variants["sanitized_s"] = _run_sanitized
    if no_sink:
        variants["no_sink_s"] = _run_no_sink
    if trace_disabled:
        variants["trace_disabled_s"] = _run_trace_disabled
    best = dict.fromkeys(variants, float("inf"))
    for _ in range(repeats):
        for name, run in variants.items():
            best[name] = min(best[name], run())
    return OverheadReport(**best)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="maximum tolerated instrumented/baseline ratio")
    parser.add_argument("--sanitize-threshold", type=float, default=6.0,
                        help="maximum tolerated sanitized/baseline ratio")
    parser.add_argument("--no-sink-threshold", type=float, default=1.5,
                        help="maximum tolerated bare-bus/"
                             "baseline ratio (target is ~1.05)")
    parser.add_argument("--no-trace-threshold", type=float, default=1.5,
                        help="maximum tolerated disabled-tracer/baseline "
                             "ratio (target is ~1.05)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved rounds, one run of each variant "
                             "per round (minimum is compared)")
    parser.add_argument("--no-sanitize", action="store_true",
                        help="skip the sanitizer-loaded variant")
    parser.add_argument("--bench-out", metavar="DIR", default=None,
                        help="also write the BENCH_JSON record to "
                             "DIR/BENCH_telemetry_overhead.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if (args.threshold <= 0 or args.sanitize_threshold <= 0
            or args.no_sink_threshold <= 0 or args.no_trace_threshold <= 0):
        parser.error("thresholds must be positive")

    report = measure(repeats=args.repeats, sanitize=not args.no_sanitize,
                     no_sink=True, trace_disabled=True)
    print(f"telemetry overhead: {report.describe()} "
          f"(thresholds {args.threshold:.2f}x / "
          f"{args.sanitize_threshold:.2f}x / "
          f"no-sink {args.no_sink_threshold:.2f}x / "
          f"no-trace {args.no_trace_threshold:.2f}x)")
    payload = report.to_bench_payload()
    print("BENCH_JSON " + json.dumps(payload, sort_keys=True))
    if args.bench_out:
        target = Path(args.bench_out)
        target.mkdir(parents=True, exist_ok=True)
        (target / f"BENCH_{payload['name']}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    failed = False
    if report.ratio > args.threshold:
        print("FAIL: instrumentation exceeds the overhead budget",
              file=sys.stderr)
        failed = True
    sanitizer_ratio = report.sanitizer_ratio
    if sanitizer_ratio is not None and sanitizer_ratio > args.sanitize_threshold:
        print("FAIL: sanitizer exceeds the overhead budget", file=sys.stderr)
        failed = True
    no_sink_ratio = report.no_sink_ratio
    if no_sink_ratio is not None and no_sink_ratio > args.no_sink_threshold:
        print("FAIL: bare bus exceeds the overhead budget",
              file=sys.stderr)
        failed = True
    trace_ratio = report.trace_disabled_ratio
    if trace_ratio is not None and trace_ratio > args.no_trace_threshold:
        print("FAIL: disabled tracer exceeds the overhead budget",
              file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
