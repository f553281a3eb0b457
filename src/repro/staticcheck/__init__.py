"""Whole-program static analysis for the reproduction's own invariants.

Generic linters check style; this package proves the code properties
the paper's reproduced numbers rest on, on every path, where the
runtime gates can only sample them:

* **float-taint** (:mod:`~repro.staticcheck.taint`) and its lexical
  twin **no-float** — no float value, produced anywhere in the program,
  reaches the budget-critical code whose comparisons Theorem 1 makes
  ULP-tight;
* **determinism** (:mod:`~repro.staticcheck.determinism`) — code that
  can reach an event emission or digest is free of iteration-order,
  identity, environment and wall-clock nondeterminism;
* the **dataflow tier** (:mod:`~repro.staticcheck.cfg`,
  :mod:`~repro.staticcheck.dataflow`) — per-function control-flow
  graphs and a worklist solver feeding three flow-sensitive passes:
  **budget-range** (:mod:`~repro.staticcheck.budget_range`, interval
  analysis proving ledger counters non-negative and the
  cross-multiplication exact), **invariant-safety** and
  **alias-escape** (:mod:`~repro.staticcheck.flowpasses`, the heap
  index's paired updates and internals);
* four more cheap per-module rules (:mod:`~repro.staticcheck.rules_lint`):
  **unseeded-random**, **event-registry**, **all-consistency** and
  **interval-internals**.

Everything registers into one plugin registry
(:data:`~repro.staticcheck.base.RULE_REGISTRY`); ``repro staticcheck``
runs it all, and pragmas are the only suppression mechanism.  See
``docs/static-analysis.md`` for the rule catalog and the audit that
decided which rules stay, and :mod:`repro.staticcheck.fixtures` for the
known-bad corpus proving each rule actually fires.
"""

from .base import (
    Finding,
    RuleSpec,
    Severity,
    StaticCheckConfig,
    module_rule,
    program_pass,
    rule_catalog,
)
from .callgraph import CallGraph, build_call_graph
from .cfg import CFG, Block, build_cfg
from .dataflow import (
    DataflowAnalysis,
    IntervalAnalysis,
    IntervalState,
    IntRange,
    solve,
)
from .model import FunctionInfo, ModuleInfo, Program, module_name_for
from .output import render_text, to_json, to_sarif
from .runner import (
    AnalysisResult,
    iter_python_files,
    run_on_program,
    run_staticcheck,
)

__all__ = [
    "Finding",
    "RuleSpec",
    "Severity",
    "StaticCheckConfig",
    "module_rule",
    "program_pass",
    "rule_catalog",
    "CallGraph",
    "build_call_graph",
    "CFG",
    "Block",
    "build_cfg",
    "DataflowAnalysis",
    "IntervalAnalysis",
    "IntervalState",
    "IntRange",
    "solve",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "module_name_for",
    "render_text",
    "to_json",
    "to_sarif",
    "AnalysisResult",
    "iter_python_files",
    "run_on_program",
    "run_staticcheck",
]
