#!/usr/bin/env python3
"""Regenerate docs/api.md from the package's public (__all__) surfaces.

Run from the repository root:  python tools/gen_api_docs.py
"""

import importlib
import inspect
import pathlib

MODULES = [
    "repro", "repro.core", "repro.core.params", "repro.core.theorem1",
    "repro.core.theorem2", "repro.core.robson", "repro.core.bendersky_petrank",
    "repro.core.envelope", "repro.core.absolute", "repro.core.series",
    "repro.core.tables",
    "repro.heap", "repro.heap.heap", "repro.heap.intervals",
    "repro.heap.gap_index", "repro.heap.kernel",
    "repro.heap.object_model", "repro.heap.chunks", "repro.heap.metrics",
    "repro.heap.units", "repro.heap.errors",
    "repro.mm", "repro.mm.base", "repro.mm.budget", "repro.mm.fastpath",
    "repro.mm.fits",
    "repro.mm.segregated", "repro.mm.buddy", "repro.mm.compacting",
    "repro.mm.collectors", "repro.mm.randomized", "repro.mm.robson_manager",
    "repro.mm.theorem2_manager", "repro.mm.registry",
    "repro.adversary", "repro.adversary.base", "repro.adversary.driver",
    "repro.adversary.robson_program", "repro.adversary.pf_program",
    "repro.adversary.ghosts", "repro.adversary.association",
    "repro.adversary.potential", "repro.adversary.stats",
    "repro.adversary.claims", "repro.adversary.checkerboard",
    "repro.adversary.workloads", "repro.adversary.replay",
    "repro.adversary.catalog",
    "repro.analysis", "repro.analysis.figures", "repro.analysis.experiments",
    "repro.analysis.sweep",
    "repro.analysis.report", "repro.analysis.ascii_plot",
    "repro.analysis.heapmap",
    "repro.exact", "repro.exact.game", "repro.exact.strategy",
    "repro.exact.budgeted",
    "repro.obs", "repro.obs.events", "repro.obs.tape", "repro.obs.metrics",
    "repro.obs.sampler", "repro.obs.export", "repro.obs.telemetry",
    "repro.obs.report", "repro.obs.trace", "repro.obs.profile",
    "repro.parallel", "repro.parallel.tasks", "repro.parallel.cache",
    "repro.parallel.engine",
    "repro.check", "repro.check.base", "repro.check.shadow_heap",
    "repro.check.budget_replay", "repro.check.program_model",
    "repro.check.density", "repro.check.determinism",
    "repro.check.fixtures", "repro.check.runner",
    "repro.staticcheck", "repro.staticcheck.base",
    "repro.staticcheck.model", "repro.staticcheck.callgraph",
    "repro.staticcheck.rules_lint", "repro.staticcheck.taint",
    "repro.staticcheck.determinism",
    "repro.staticcheck.cfg", "repro.staticcheck.dataflow",
    "repro.staticcheck.budget_range", "repro.staticcheck.flowpasses",
    "repro.staticcheck.output",
    "repro.staticcheck.runner", "repro.staticcheck.fixtures",
    "repro.cli",
]


def main() -> None:
    lines = [
        "# API reference", "",
        "Generated from the package's `__all__` surfaces.  Every public",
        "symbol carries a full docstring; this index gives the one-liners.",
        "",
    ]
    for name in MODULES:
        mod = importlib.import_module(name)
        doc = (inspect.getdoc(mod) or "").splitlines()
        lines.append(f"## `{name}`")
        lines.append("")
        if doc:
            lines.append(doc[0])
            lines.append("")
        public = getattr(mod, "__all__", None)
        if public:
            for symbol in public:
                obj = getattr(mod, symbol, None)
                sdoc = (inspect.getdoc(obj) or "").splitlines()
                one = sdoc[0] if sdoc else ""
                kind = "class" if inspect.isclass(obj) else (
                    "func" if callable(obj) else "const")
                lines.append(f"* **`{symbol}`** ({kind}) — {one}")
            lines.append("")
    target = pathlib.Path(__file__).resolve().parent.parent / "docs" / "api.md"
    target.write_text("\n".join(lines) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
