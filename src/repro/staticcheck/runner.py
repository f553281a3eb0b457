"""Orchestration: parse once, run every registered rule, report.

:func:`run_staticcheck` is the programmatic entry point (the CLI, the
benchmark and the tests all go through it):

1. expand the requested paths into ``.py`` files and parse them into one
   :class:`~repro.staticcheck.model.Program`;
2. run every registered module rule over every module, and every
   registered program pass over the whole program (optionally filtered
   with ``rules=``);
3. fingerprint and sort the findings.

Exit-code contract (``repro staticcheck``): ``0`` clean, ``1`` at least
one finding, ``2`` the invocation itself was invalid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .base import (
    Finding,
    RuleSpec,
    Severity,
    StaticCheckConfig,
    fingerprint_findings,
    rule_catalog,
)
from .model import Program

__all__ = [
    "AnalysisResult",
    "repo_root",
    "default_paths",
    "iter_python_files",
    "run_staticcheck",
    "run_on_program",
]

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules"}


def repo_root() -> Path:
    """The repository root (three levels above this file's package)."""
    return Path(__file__).resolve().parents[3]


def default_paths(root: Path | None = None) -> list[Path]:
    """The default analysis scope: ``src/repro`` and ``tools``."""
    base = root if root is not None else repo_root()
    return [base / "src" / "repro", base / "tools"]


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files beneath them."""
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    yield candidate
        elif path.suffix == ".py":
            yield path


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    program: Program
    #: Every finding (these fail the gate), sorted.
    findings: list[Finding]
    files_checked: int = 0
    wall_seconds: float = 0.0
    #: Files that failed to parse ((path, error) pairs) — reported as
    #: syntax-error findings too.
    parse_errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the gate passes."""
        return not self.findings

    @property
    def exit_code(self) -> int:
        """The process exit code for this result."""
        return 0 if self.ok else 1


def _selected_rules(rules: Sequence[str] | None) -> list[RuleSpec]:
    catalog = rule_catalog()
    if rules is None:
        return catalog
    wanted = set(rules)
    known = {spec.name for spec in catalog}
    for spec in catalog:
        known.update(spec.rule_ids)
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    return [
        spec for spec in catalog
        if spec.name in wanted or wanted.intersection(spec.rule_ids)
    ]


def run_on_program(program: Program, config: StaticCheckConfig | None = None,
                   rules: Sequence[str] | None = None) -> list[Finding]:
    """Run the selected rules over an already-built program.

    Findings come back fingerprinted and sorted; this is the fixture
    corpus's entry point, and ``run_staticcheck`` builds on it.
    """
    cfg = config if config is not None else StaticCheckConfig()
    findings: list[Finding] = []
    for spec in _selected_rules(rules):
        if spec.kind == "module":
            for module in program.modules.values():
                findings.extend(spec.func(module, cfg))
        else:
            findings.extend(spec.func(program, cfg))
    return fingerprint_findings(findings, program.root)


def run_staticcheck(
    paths: Sequence[Path] | None = None,
    *,
    root: Path | None = None,
    config: StaticCheckConfig | None = None,
    rules: Sequence[str] | None = None,
) -> AnalysisResult:
    """Parse and analyze the given paths (defaults: src/repro, tools)."""
    started = time.perf_counter()
    base = root if root is not None else repo_root()
    scope = list(paths) if paths else default_paths(base)
    files = list(iter_python_files(scope))
    program = Program.load(files, base)
    findings = run_on_program(program, config, rules)
    if program.parse_errors:
        findings.extend(fingerprint_findings(
            [Finding(path, 0, "syntax-error", error,
                     severity=Severity.ERROR)
             for path, error in program.parse_errors],
            base,
        ))
    return AnalysisResult(
        program=program,
        findings=findings,
        files_checked=len(files),
        wall_seconds=time.perf_counter() - started,
        parse_errors=list(program.parse_errors),
    )
