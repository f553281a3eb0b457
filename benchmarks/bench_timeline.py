"""Waste over time: how each manager's heap grows under attack.

Records P_F against three managers through :class:`repro.obs.Telemetry`,
whose heap sampler snapshots the heap every 256 event-tape rows, then
renders the waste-factor trajectories on one ASCII plot — the dynamic
view behind the single end-of-run numbers the other benches report.
The compactors' curves flatten where they spend budget; the
non-mover's climbs monotonically through both stages.
"""

from repro.adversary import ExecutionDriver, PFProgram
from repro.analysis import render_series
from repro.mm.registry import create_manager
from repro.obs import Telemetry

MANAGERS = ("first-fit", "sliding-compactor", "theorem2")


def _run_timelines(sim_params):
    series = {}
    for name in MANAGERS:
        telemetry = Telemetry(sample_every=256)
        driver = ExecutionDriver(sim_params, create_manager(name, sim_params),
                                 observer=telemetry.bus)
        telemetry.bind(driver)
        driver.run(PFProgram(sim_params))
        series[name] = telemetry.sampler.waste_series()
    return series


def test_timeline_waste_trajectories(benchmark, sim_params, bench_record):
    series = benchmark.pedantic(
        _run_timelines, args=(sim_params,), rounds=1, iterations=1
    )
    # Align on a shared x-axis (event index) by padding with last values.
    longest = max(len(xs) for xs, _ in series.values())
    xs_shared = list(range(longest))
    plot = {}
    for name, (xs, ys) in series.items():
        padded = list(ys) + [ys[-1]] * (longest - len(ys))
        plot[name] = padded
    print(f"\n=== Waste factor over time under P_F "
          f"({sim_params.describe()}) ===")
    print(render_series(
        xs_shared, plot, width=70, height=16,
        y_label="HS / M", x_label=f"events (x256)",
    ))
    bench_record(
        "timeline",
        {"live_space": sim_params.live_space,
         "max_object": sim_params.max_object,
         "compaction_divisor": sim_params.compaction_divisor,
         "managers": list(MANAGERS), "sample_every": 256},
        {"final_waste": {name: values[-1] for name, values in plot.items()},
         "trajectory_points": {name: len(values)
                               for name, values in plot.items()}},
    )
    for name, values in plot.items():
        # High water never shrinks: every trajectory is non-decreasing.
        assert values == sorted(values), name
        assert values[-1] > 1.0
