"""Benchmark: whole-program static analysis over the full repository.

``repro staticcheck`` runs in CI on every push, so its wall-clock is a
developer-facing latency budget, not a nicety: the analyzer parses the
entire tree **once**, builds the symbol table and call graph once, and
runs every registered rule and pass over that shared program model.  The
gate here asserts the whole pipeline — parse, call graph, float-taint
fixpoint, determinism walk, the dataflow tier, the five lexical rules
and fingerprinting — finishes the full repository (src/repro + tools +
tests + benchmarks) in under ``BUDGET_SECONDS``.

The bench also asserts the run is *clean* (no findings): a regression
here means either new unvetted code or an analyzer change that started
misfiring, and both should be loud.
"""

from __future__ import annotations

import time

from repro.staticcheck.runner import (
    default_paths,
    repo_root,
    run_staticcheck,
)

#: Hard wall-clock ceiling for one full-repo analysis (ISSUE budget).
BUDGET_SECONDS = 10.0
#: Analysis repetitions (the record reports the best; CI asserts each).
REPEATS = 3


def _scope():
    root = repo_root()
    return [*default_paths(root), root / "tests", root / "benchmarks"]


def test_staticcheck_full_repo_under_budget(bench_record):
    root = repo_root()
    scope = _scope()
    walls = []
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = run_staticcheck(scope, root=root)
        walls.append(time.perf_counter() - started)
        assert walls[-1] < BUDGET_SECONDS, (
            f"staticcheck took {walls[-1]:.2f}s on {result.files_checked} "
            f"files (budget {BUDGET_SECONDS}s)"
        )
    assert result is not None
    assert not result.parse_errors, result.parse_errors
    assert result.ok, "\n".join(
        finding.describe(root) for finding in result.findings
    )

    program = result.program
    print(f"staticcheck: {result.files_checked} files, "
          f"{len(program.functions)} functions, "
          f"{len(program.classes)} classes; "
          f"best of {REPEATS}: {min(walls):.2f}s "
          f"(budget {BUDGET_SECONDS:.0f}s)")
    bench_record(
        "staticcheck_full_repo",
        params={
            "files": result.files_checked,
            "repeats": REPEATS,
            "budget_s": BUDGET_SECONDS,
        },
        results={
            "wall_best_s": round(min(walls), 4),
            "wall_worst_s": round(max(walls), 4),
            "functions": len(program.functions),
            "classes": len(program.classes),
            "findings": len(result.findings),
        },
    )
