#!/usr/bin/env python
"""CI gate: the scaled solver agrees with the naive explorer everywhere.

The canonical :class:`~repro.exact.solver.GameSolver` (reflection
orbits, packed encodings, transposition tables) replaced the naive
tuple-keyed explorer behind every public entry point.  This tool is the
independent cross-check CI runs on every push: over the legacy bench
points *and* an exhaustive micro grid it compares

* the per-heap ``program_wins`` verdict (canonical vs naive, every heap
  from ``M`` up past the game value), and
* the resulting ``minimum_heap_words`` value,

for both request-size families, plus the budgeted variant on a smaller
grid (both families, budgets 0-3, ``M <= 5``).  Any mismatch prints the
offending point and exits 1 — verdict parity is the whole soundness
story of the reduction, so this gate must stay green no matter how the
solver internals move.

Usage::

    PYTHONPATH=src python tools/solver_parity.py [--max-live 6]

Exit status 0 on full parity, 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.exact.budgeted import BudgetedConfig, naive_program_wins_budgeted
from repro.exact.game import GameConfig, naive_program_wins
from repro.exact.solver import GameSolver

#: The legacy bench points — every value the repo ever published.
LEGACY_POINTS = ((2, 2), (4, 2), (4, 4), (6, 2), (8, 2))


def _naive_minimum(live: int, objects: int, power_of_two: bool) -> int:
    heap = live
    while naive_program_wins(
        GameConfig(live, objects, heap, power_of_two_sizes=power_of_two)
    ):
        heap += 1
    return heap


def check_point(live: int, objects: int, power_of_two: bool,
                slack: int = 2) -> list[str]:
    """Verdict + value parity at one (M, n, family) point."""
    failures = []
    solver = GameSolver(live, objects, power_of_two_sizes=power_of_two)
    naive_value = _naive_minimum(live, objects, power_of_two)
    canonical_value = solver.minimum_heap_words()
    if canonical_value != naive_value:
        failures.append(
            f"minimum_heap_words mismatch at M={live}, n={objects}, "
            f"p2={power_of_two}: canonical {canonical_value}, "
            f"naive {naive_value}"
        )
    for heap in range(live, naive_value + slack + 1):
        config = GameConfig(
            live, objects, heap, power_of_two_sizes=power_of_two
        )
        if solver.program_wins(heap) != naive_program_wins(config):
            failures.append(
                f"verdict mismatch at M={live}, n={objects}, H={heap}, "
                f"p2={power_of_two}"
            )
    return failures


def check_budgeted(max_live: int) -> list[str]:
    """Budgeted parity on a micro grid (its graphs grow much faster):
    both request-size families, budgets 0-3, ``M <= 5`` — the all-sizes
    family has size-3 segments to move."""
    failures = []
    for live in range(1, min(max_live, 5) + 1):
        for objects in range(1, live + 1):
            for power_of_two in (True, False):
                for budget in range(4):
                    solver = GameSolver(
                        live, objects, power_of_two_sizes=power_of_two,
                        move_budget=budget,
                    )
                    for heap in range(live, live + 4):
                        config = BudgetedConfig(
                            GameConfig(live, objects, heap,
                                       power_of_two_sizes=power_of_two),
                            budget,
                        )
                        if solver.program_wins(heap) != (
                            naive_program_wins_budgeted(config)
                        ):
                            failures.append(
                                f"budgeted verdict mismatch at M={live}, "
                                f"n={objects}, B={budget}, H={heap}, "
                                f"p2={power_of_two}"
                            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-live", type=int, default=6, metavar="M",
                        help="exhaustive micro-grid ceiling (default 6)")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    failures: list[str] = []
    points = 0
    for live, objects in LEGACY_POINTS:
        failures += check_point(live, objects, True)
        points += 1
    for live in range(1, args.max_live + 1):
        for objects in range(1, live + 1):
            for power_of_two in (True, False):
                if (live, objects) in LEGACY_POINTS and power_of_two:
                    continue
                failures += check_point(live, objects, power_of_two)
                points += 1
    failures += check_budgeted(args.max_live)

    elapsed = time.perf_counter() - started
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print(f"{len(failures)} parity failure(s) over {points} points",
              file=sys.stderr)
        return 1
    print(f"solver parity OK: {points} points (both families) + budgeted "
          f"micro grid (M<=5, B<=3, both families), {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
