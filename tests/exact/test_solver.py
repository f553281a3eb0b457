"""Tests for the scaled canonical solver.

The contract is byte-identical verdicts with :mod:`repro.exact.game`'s
naive explorer on every previously solvable point, plus the scaling
machinery itself: transposition-table reuse across heap sizes, the
bracketed search, the explored graph pinned per probe, and the
stats/report surface the benches and ``repro solve`` consume.
"""

import pytest

from repro.exact.budgeted import BudgetedConfig, naive_program_wins_budgeted
from repro.exact.game import GameConfig, naive_program_wins
from repro.exact.solver import (
    GameSolver,
    formula_guess,
    solver_ceiling,
)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GameSolver(0, 1)
        with pytest.raises(ValueError):
            GameSolver(4, 8)
        with pytest.raises(ValueError):
            GameSolver(4, 2, move_budget=-1)
        with pytest.raises(ValueError):
            GameSolver(4, 2, move_budget=128)  # budget field is 7 bits

    def test_heap_guards(self):
        solver = GameSolver(4, 2)
        with pytest.raises(ValueError):
            solver.solve(64)  # beyond the packed encoding
        with pytest.raises(ValueError):
            solver.solve(3)  # below the live bound


class TestParityWithNaive:
    @pytest.mark.parametrize("power_of_two", [True, False])
    def test_verdicts_match_on_micro_grid(self, power_of_two):
        for live in range(1, 6):
            for objects in range(1, live + 1):
                solver = GameSolver(
                    live, objects, power_of_two_sizes=power_of_two
                )
                for heap in range(live, live + 5):
                    config = GameConfig(
                        live, objects, heap,
                        power_of_two_sizes=power_of_two,
                    )
                    assert solver.program_wins(heap) == naive_program_wins(
                        config
                    ), (live, objects, heap, power_of_two)

    def test_known_game_values(self):
        values = {(2, 2): 2, (4, 2): 5, (4, 4): 5, (6, 2): 8}
        for (live, objects), expected in values.items():
            assert GameSolver(live, objects).minimum_heap_words() == expected

    def test_budgeted_parity(self):
        for live, objects in [(3, 2), (4, 2), (4, 4)]:
            for budget in range(3):
                solver = GameSolver(live, objects, move_budget=budget)
                for heap in range(live, live + 4):
                    config = BudgetedConfig(
                        GameConfig(live, objects, heap), budget
                    )
                    assert solver.program_wins(heap) == (
                        naive_program_wins_budgeted(config)
                    ), (live, objects, budget, heap)


class TestSearch:
    @pytest.mark.parametrize("live, objects", [(4, 2), (5, 2), (4, 3), (6, 2)])
    def test_modes_agree(self, live, objects):
        values = {
            mode: GameSolver(live, objects).minimum_heap_words(search=mode)
            for mode in ("linear", "gallop", "auto")
        }
        assert len(set(values.values())) == 1, values

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GameSolver(4, 2).minimum_heap_words(search="psychic")

    def test_formula_guess_within_ceiling(self):
        for live in range(1, 12):
            for objects in (1, 2, 4):
                if objects > live:
                    continue
                assert live <= formula_guess(live, objects)
                assert formula_guess(live, objects) <= solver_ceiling(
                    live, objects
                )


class TestTranspositionTables:
    def test_warm_walk_prunes(self):
        """The second probe of a walk reuses facts harvested by the
        first — fewer orbits than a cold solve of the same heap."""
        solver = GameSolver(6, 2)
        solver.minimum_heap_words()
        warm_orbits = {
            stats.heap_words: stats.orbits_visited
            for stats in solver.history
        }
        cold = GameSolver(6, 2, use_tt=False)
        for heap, orbits in warm_orbits.items():
            cold_report = cold.solve(heap)
            assert orbits <= cold_report.stats.orbits_visited

    def test_warm_hits_are_counted(self):
        solver = GameSolver(6, 2)
        solver.minimum_heap_words()
        assert sum(
            stats.tt_safe_hits + stats.tt_win_hits
            for stats in solver.history
        ) > 0

    def test_repeat_queries_are_cached(self):
        solver = GameSolver(4, 2)
        first = solver.minimum_heap_words()
        probes = len(solver.history)
        assert solver.minimum_heap_words() == first
        assert solver.program_wins(first) is False
        assert solver.program_wins(first - 1) is True
        assert len(solver.history) == probes  # watermarks, no new solves


#: Per probe of ``minimum_heap_words``: (heap_words, program_wins,
#: orbits_visited, p_orbits, q_orbits, edges, winning_orbits,
#: safe_orbits).  ``raw_successors`` is deliberately absent: it counts
#: candidates generated, and generation stops once a node resolves.
EXPLORED_GRAPH_PINS = {
    (6, 2, None): (8, [(8, False, 905, 427, 478, 3653, 77, 828),
                       (7, True, 441, 202, 239, 1261, 423, 0)]),
    (8, 2, None): (11, [(11, False, 12404, 5620, 6784, 64336, 964, 11440),
                        (10, True, 5838, 2618, 3220, 23025, 5652, 0)]),
    (4, 4, 2): (5, [(5, False, 219, 108, 111, 930, 9, 210),
                    (4, True, 128, 56, 72, 362, 116, 0)]),
    (8, 2, 1): (11, [(11, False, 24808, 11240, 13568, 252640, 1004, 23804),
                     (10, True, 12623, 5277, 7346, 96346, 11998, 0)]),
}


class TestExploredGraph:
    @pytest.mark.parametrize("point", list(EXPLORED_GRAPH_PINS),
                             ids=lambda point: "M%d-n%d-B%s" % point)
    def test_probe_counts_are_pinned(self, point):
        """Per-probe orbit and edge counts fingerprint the explored
        graph, so a change to candidate order, pruning or truncation
        shows up here even when every verdict holds."""
        live, objects, budget = point
        value, probes = EXPLORED_GRAPH_PINS[point]
        solver = GameSolver(live, objects, move_budget=budget)
        assert solver.minimum_heap_words() == value
        assert [
            (s.heap_words, s.program_wins, s.orbits_visited, s.p_orbits,
             s.q_orbits, s.edges, s.winning_orbits, s.safe_orbits)
            for s in solver.history
        ] == probes


class TestReportSurface:
    def test_stats_sanity(self):
        solver = GameSolver(6, 2)
        report = solver.solve(8)
        stats = report.stats
        assert not report.program_wins
        assert stats.orbits_visited == stats.p_orbits + stats.q_orbits
        assert stats.winning_orbits + stats.safe_orbits == (
            stats.orbits_visited
        )
        assert stats.epochs == len(stats.frontier_widths)
        assert stats.peak_frontier == max(stats.frontier_widths)
        assert stats.raw_successors >= stats.edges
        assert stats.as_dict()["heap_words"] == 8

    def test_manager_win_reports_are_settled(self):
        report = GameSolver(6, 2).solve(8)
        assert report.settled
        root = 0  # the empty state, program to move
        assert report.is_explored_safe(root)
        assert not report.is_winning(root)

    def test_ranks_mode(self):
        report = GameSolver(4, 2).solve(4, compute_ranks=True)
        assert report.program_wins
        assert report.rank is not None
        root_rank = report.node_rank(0)
        assert root_rank is not None and root_rank > 0

    def test_phase_timings_stay_out_of_digest_and_metrics(self):
        """Per-phase timings are out-of-band: results that differ only
        in them share the digest and the ``solver.*`` metrics."""
        from dataclasses import replace

        from repro.obs.metrics import MetricsRegistry
        from repro.obs.telemetry import record_solver_metrics
        from repro.parallel.tasks import SolveTask, run_solve_task, solve_digest

        timings = ("explore_s", "attractor_s", "harvest_s", "wall_seconds")
        result = run_solve_task(SolveTask(6, 2))
        for entry in result.stats:
            assert all(entry[name] >= 0 for name in timings)
        retimed = replace(result, stats=tuple(
            {**entry, **{name: entry[name] + 1.5 for name in timings}}
            for entry in result.stats
        ))
        assert retimed.stats != result.stats
        digests = {
            solve_digest(r.task, r.minimum_heap_words, r.probes)
            for r in (result, retimed)
        }
        assert digests == {result.event_digest}
        metrics = []
        for r in (result, retimed):
            registry = MetricsRegistry()
            record_solver_metrics(registry, list(r.stats))
            metrics.append(registry.as_dict())
        assert metrics[0] == metrics[1]

    def test_history_accumulates(self):
        solver = GameSolver(4, 2)
        solver.minimum_heap_words()
        assert len(solver.history) >= 2  # at least one win + one loss probe
        verdicts = {s.heap_words: s.program_wins for s in solver.history}
        assert verdicts[5] is False
        assert verdicts[4] is True
