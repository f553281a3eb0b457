"""Operational benchmark: what the invariant sanitizer costs.

Not a paper figure — this captures the checker subsystem's price in the
perf trajectory: the same :math:`P_F` execution baseline (no observer),
with a bare bus (the driver's tape rows only, no event objects — the
price every unarchived parallel-engine task pays for its digest;
target overhead ≤5%), instrumented (full telemetry), and
sanitized (telemetry plus the whole :mod:`repro.check` checker set,
each checker one pass over the run's tape at the end of the run).
The ratios land in the ``BENCH_JSON`` record so a commit that makes the
checkers quadratic — or puts event construction back on the recording
path — shows up as a trajectory jump, not a mystery slowdown.

The ad-hoc equivalent is ``PYTHONPATH=src python
tools/check_overhead.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from check_overhead import MANAGER, PARAMS, measure  # noqa: E402


#: Interleaved rounds (each runs every variant once; minima compared):
#: one round let the no-sink ratio spread as wide as its 1.5x wall.
REPEATS = 5


def test_sanitizer_overhead(benchmark, bench_record):
    report = benchmark.pedantic(
        lambda: measure(repeats=REPEATS, sanitize=True, no_sink=True),
        rounds=1, iterations=1,
    )
    print(f"\nsanitizer overhead: {report.describe()}")
    bench_record(
        "sanitizer_overhead",
        {"live_space": PARAMS.live_space, "max_object": PARAMS.max_object,
         "compaction_divisor": PARAMS.compaction_divisor,
         "manager": MANAGER},
        report.to_bench_payload()["results"],
    )
    # Hard walls rather than tight budgets: timing is machine-noisy,
    # but a checker gone quadratic blows straight through 25x, and a
    # no-sink path that rebuilds event objects blows through 1.5x
    # (its *target*, recorded in the trajectory, is <=1.05).
    assert report.sanitizer_ratio is not None
    assert report.sanitizer_ratio < 25.0, report.describe()
    assert report.no_sink_ratio is not None
    assert report.no_sink_ratio < 1.5, report.describe()
