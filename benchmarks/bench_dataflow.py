"""Benchmark: the flow-sensitive dataflow tier, cold.

The dataflow passes (budget-range, invariant-safety, alias-escape)
build one CFG per function and run worklist solvers over it — strictly
more work per module than the lexical rules.  This bench pins that
cost:

* one run of the three passes over ``src/repro`` + ``tools`` stays
  under ``BUDGET_SECONDS`` and is clean;
* CFG construction itself is measured separately (blocks/edges per
  second) so a solver regression and a builder regression are
  distinguishable in the perf trajectory.
"""

from __future__ import annotations

import ast
import time

from repro.staticcheck.cfg import build_cfg
from repro.staticcheck.runner import (
    default_paths,
    repo_root,
    run_staticcheck,
)

#: Hard wall-clock ceiling for one dataflow-tier run.
BUDGET_SECONDS = 15.0

_DATAFLOW_RULES = ["budget-range", "invariant-safety", "alias-escape"]


def test_dataflow_tier_under_budget(bench_record):
    root = repo_root()
    scope = default_paths(root)

    started = time.perf_counter()
    result = run_staticcheck(scope, root=root, rules=_DATAFLOW_RULES)
    wall_s = time.perf_counter() - started
    assert wall_s < BUDGET_SECONDS, (
        f"dataflow tier took {wall_s:.2f}s on {result.files_checked} "
        f"files (budget {BUDGET_SECONDS}s)"
    )
    assert not result.parse_errors
    assert result.ok, "\n".join(f.describe(root) for f in result.findings)

    # CFG construction throughput, measured apart from the solvers.
    functions = [
        info.node for info in result.program.functions.values()
        if isinstance(info.node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    started = time.perf_counter()
    blocks = edges = 0
    for node in functions:
        cfg = build_cfg(node)
        blocks += len(cfg.blocks)
        edges += sum(len(s) for s in cfg.succs)
    cfg_s = time.perf_counter() - started

    print(f"dataflow tier: {result.files_checked} files in {wall_s:.2f}s; "
          f"{len(functions)} CFGs, {blocks} blocks, {edges} edges "
          f"in {cfg_s:.2f}s")
    bench_record(
        "dataflow_tier",
        params={
            "files": result.files_checked,
            "rules": ",".join(_DATAFLOW_RULES),
            "budget_s": BUDGET_SECONDS,
        },
        results={
            "wall_s": round(wall_s, 4),
            "cfg_functions": len(functions),
            "cfg_blocks": blocks,
            "cfg_edges": edges,
            "cfg_build_s": round(cfg_s, 4),
            "findings": len(result.findings),
        },
    )
