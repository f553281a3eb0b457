"""Figure regeneration, simulation experiments and reporting.

* :mod:`~repro.analysis.figures` — the data series behind the paper's
  Figures 1–3;
* :mod:`~repro.analysis.experiments` — grids of adversary × manager
  executions compared against the closed-form bounds;
* :mod:`~repro.analysis.ascii_plot` / :mod:`~repro.analysis.report` —
  terminal rendering.
"""

from .ascii_plot import render_figure, render_series
from .defrag import cheapest_window, evacuation_cost
from .experiments import (
    DEFAULT_PF_MANAGERS,
    DEFAULT_ROBSON_MANAGERS,
    ExperimentRow,
    best_manager_against_pf,
    discretization_allowance,
    pf_experiment,
    robson_experiment,
    upper_bound_experiment,
)
from .figures import FigureData, figure1_series, figure2_series, figure3_series
from .heapmap import density_bar, render_heap
from .report import experiment_table, figure_table, format_table, to_csv
from .sweep import SweepRow, simulation_sweep, sweep_to_csv, theory_sweep
from .verification import CheckResult, verify_reproduction

__all__ = [
    "DEFAULT_PF_MANAGERS",
    "DEFAULT_ROBSON_MANAGERS",
    "ExperimentRow",
    "FigureData",
    "SweepRow",
    "best_manager_against_pf",
    "CheckResult",
    "cheapest_window",
    "discretization_allowance",
    "evacuation_cost",
    "experiment_table",
    "figure1_series",
    "figure2_series",
    "figure3_series",
    "density_bar",
    "figure_table",
    "format_table",
    "pf_experiment",
    "render_figure",
    "render_heap",
    "render_series",
    "robson_experiment",
    "simulation_sweep",
    "sweep_to_csv",
    "theory_sweep",
    "to_csv",
    "upper_bound_experiment",
    "verify_reproduction",
]
