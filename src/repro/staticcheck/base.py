"""Framework primitives: findings, severities, pragmas, the rule registry.

Everything the analyzer reports is a :class:`Finding` — one violation of
one named rule, anchored to a file/line and (when known) the enclosing
function, carrying a *stable fingerprint* that SARIF viewers use to
track it across unrelated edits.  Rules come in two shapes:

* **module rules** look at one parsed module at a time (the lexical
  rules in :mod:`repro.staticcheck.rules_lint`);
* **program passes** see the whole :class:`~repro.staticcheck.model.Program`
  at once — symbol tables and the call graph — and can therefore reason
  *interprocedurally* (float-taint, determinism, budget-range).

Both register into one :data:`RULE_REGISTRY` via the
:func:`module_rule` / :func:`program_pass` decorators, so the runner,
the CLI, the docs and the SARIF rule catalog all enumerate the same set.

Pragmas
-------

A finding is suppressed in source with a trailing comment pragma
(``# lint: float-ok``, ``# lint: determinism-ok``, ``# lint:
invariant-ok``); pragmas are the only suppression mechanism.  Pragma
scope is the **innermost statement** covering the pragma's line: on a
multi-line expression the pragma may sit on *any* line of the statement
— including the closing-paren line — and the whole statement is exempt
(see ``exempt_lines``).
"""

from __future__ import annotations

import hashlib
import io
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import ast

    from .model import ModuleInfo, Program

__all__ = [
    "Severity",
    "Finding",
    "StaticCheckConfig",
    "RuleSpec",
    "RULE_REGISTRY",
    "module_rule",
    "program_pass",
    "rule_catalog",
    "pragma_lines",
    "exempt_lines",
    "fingerprint_findings",
    "FLOAT_OK_PRAGMA",
    "DETERMINISM_OK_PRAGMA",
    "INVARIANT_OK_PRAGMA",
    "TIERS",
]

#: Pragma suppressing the float rules (``no-float``, the taint pass and
#: the budget-range interval pass).
FLOAT_OK_PRAGMA = "lint: float-ok"
#: Pragma suppressing the determinism pass.
DETERMINISM_OK_PRAGMA = "lint: determinism-ok"
#: Pragma suppressing the invariant-safety exception-path pass.
INVARIANT_OK_PRAGMA = "lint: invariant-ok"

#: Analysis tiers, in the order the rule catalog presents them.
TIERS = ("lexical", "interprocedural", "dataflow")


class Severity:
    """Finding severities (string constants; SARIF ``level`` values)."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``fingerprint`` is filled in by :func:`fingerprint_findings` — it
    hashes the rule, file, enclosing symbol and message (plus an
    occurrence index for duplicates), *not* the line number, so the
    identity survives unrelated edits above the finding.
    """

    path: Path
    line: int
    rule: str
    message: str
    severity: str = Severity.ERROR
    #: Qualified name of the enclosing function/class, when known.
    symbol: str | None = None
    #: Which analysis produced it (``lint``, ``float-taint``, ...).
    source: str = "lint"
    fingerprint: str = ""

    def describe(self, root: Path | None = None) -> str:
        """``path:line: rule: message`` with ``path`` relative to ``root``."""
        rel = self.path
        if root is not None:
            try:
                rel = self.path.relative_to(root)
            except ValueError:
                pass
        return f"{rel}:{self.line}: {self.rule}: {self.message}"

    def to_dict(self, root: Path | None = None) -> dict:
        """JSON-ready encoding (the ``--format json`` record)."""
        rel = self.path
        if root is not None:
            try:
                rel = self.path.relative_to(root)
            except ValueError:
                pass
        return {
            "path": rel.as_posix(),
            "line": self.line,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "symbol": self.symbol,
            "source": self.source,
            "fingerprint": self.fingerprint,
        }


def fingerprint_findings(findings: Iterable[Finding],
                         root: Path) -> list[Finding]:
    """Assign stable fingerprints; returns findings sorted for output.

    Identical (rule, path, symbol, message) tuples are disambiguated by
    an occurrence index in line order, so two copies of the same mistake
    in one function keep distinct, stable identities.
    """
    ordered = sorted(
        findings,
        key=lambda f: (f.path.as_posix(), f.line, f.rule, f.message),
    )
    seen: dict[tuple, int] = {}
    out: list[Finding] = []
    for finding in ordered:
        try:
            rel = finding.path.relative_to(root).as_posix()
        except ValueError:
            rel = finding.path.as_posix()
        key = (finding.rule, rel, finding.symbol, finding.message)
        index = seen.get(key, 0)
        seen[key] = index + 1
        material = "|".join((
            "v1", finding.rule, rel, finding.symbol or "-",
            finding.message, str(index),
        ))
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]
        out.append(replace(finding, fingerprint=digest))
    return out


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------


def pragma_lines(source: str, pragma: str) -> set[int]:
    """Line numbers whose trailing comment carries ``pragma``."""
    lines: set[int] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT and pragma in token.string:
                lines.add(token.start[0])
    except (tokenize.TokenError, SyntaxError, IndentationError):
        pass
    return lines


def exempt_lines(tree: "ast.Module", source: str, pragma: str) -> set[int]:
    """All lines exempted by ``pragma``, statement-span aware.

    For every pragma comment, the *innermost* statement whose source
    span covers the pragma line is exempted in full — so a pragma on the
    closing line of a multi-line expression covers the float literal
    three lines up.  The innermost rule keeps a pragma on a ``def`` or
    ``if`` header from silencing the whole suite below it: only when no
    simple statement covers the line does the compound statement win.
    """
    import ast

    carriers = pragma_lines(source, pragma)
    if not carriers:
        return set()
    # (span start, span end, last exempted line): a simple statement
    # exempts its whole span; a compound one (def/if/for/...) exempts
    # only its header lines, so the suite below stays checked.
    spans: list[tuple[int, int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            start = node.lineno
            end = node.end_lineno or start
            body = getattr(node, "body", None)
            if (isinstance(body, list) and body
                    and isinstance(body[0], ast.stmt)):
                exempt_end = max(start, body[0].lineno - 1)
            else:
                exempt_end = end
            spans.append((start, end, exempt_end))
    exempt: set[int] = set()
    for line in carriers:
        covering = [(end - start, start, exempt_end)
                    for start, end, exempt_end in spans
                    if start <= line <= end]
        if covering:
            _, start, exempt_end = min(covering)
            exempt.update(range(start, exempt_end + 1))
        else:
            exempt.add(line)  # pragma on a bare/blank line
    return exempt


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticCheckConfig:
    """What the passes treat as sinks and scopes.

    Paths are repo-root-relative POSIX strings so the same config works
    on the real tree and on synthetic fixture programs (whose "files"
    exist only in memory).
    """

    #: Budget-critical files: float taint must not reach them.
    float_sink_files: tuple[str, ...] = (
        "src/repro/mm/budget.py",
        "src/repro/check/budget_replay.py",
    )
    #: Budget-critical directories (every module beneath them is a sink).
    float_sink_dirs: tuple[str, ...] = ("src/repro/exact",)
    #: Attribute names whose call marks a function as event-emitting:
    #: the bus's per-kind producers, which the execution driver calls;
    #: ``stage``, the view call through which a program announces the
    #: phases the driver records; and ``emit``, the generic form the
    #: fixture corpus uses.
    emit_attr_names: tuple[str, ...] = (
        "emit", "emit_alloc", "emit_free", "emit_move", "emit_window",
        "emit_stage", "emit_charge", "stage",
    )
    #: Fully qualified digest helpers (callers become digest-relevant).
    #: Each name's last segment is also matched as an attribute call,
    #: so ``bus.tape.digest()`` counts without knowing the receiver.
    digest_functions: tuple[str, ...] = (
        "repro.check.determinism.canonical_event_bytes",
        "repro.check.determinism.event_stream_digest",
        "repro.obs.tape.EventTape.digest",
    )
    #: Module holding the telemetry event registry.
    events_module: str = "src/repro/obs/events.py"
    #: Package owning the interval/gap-index internals.
    heap_package: str = "src/repro/heap"
    #: Ledger counter attributes the budget-range pass proves non-negative
    #: (seeded ``[0, +inf)`` at function entry: the inductive hypothesis).
    budget_counter_attrs: tuple[str, ...] = ("_allocated", "_moved")
    #: Paired mutations (open, close): once ``recv.open(...)`` runs, some
    #: ``recv.close(...)`` must run before control can escape the function.
    invariant_pairs: tuple[tuple[str, str], ...] = (
        ("remove", "add"),
        ("free", "place"),
    )
    #: Directories whose modules the invariant-safety pass analyzes
    #: (heap structures and the managers that mutate them).
    invariant_scope_dirs: tuple[str, ...] = (
        "src/repro/heap",
        "src/repro/mm",
    )

    def in_invariant_scope(self, relpath: str) -> bool:
        """Whether ``relpath`` is subject to paired-mutation analysis."""
        return any(relpath.startswith(prefix + "/")
                   for prefix in self.invariant_scope_dirs)

    def is_float_sink(self, relpath: str) -> bool:
        """Whether ``relpath`` is budget-critical (exact-arithmetic scope)."""
        return (relpath in self.float_sink_files
                or any(relpath.startswith(prefix + "/")
                       for prefix in self.float_sink_dirs))

    def in_heap_package(self, relpath: str) -> bool:
        """Whether ``relpath`` lives under the heap package."""
        return relpath.startswith(self.heap_package + "/")


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------

#: A module rule: (module, config) -> findings.
ModuleRuleFunc = Callable[["ModuleInfo", StaticCheckConfig],
                          Iterator[Finding]]
#: A program pass: (program, config) -> findings.
ProgramPassFunc = Callable[["Program", StaticCheckConfig],
                           Iterator[Finding]]


@dataclass(frozen=True)
class RuleSpec:
    """One registered rule or pass, with its catalog metadata."""

    name: str
    kind: str  # "module" | "program"
    description: str
    func: Callable = field(compare=False)
    #: Rule ids this spec may report (SARIF rule catalog entries).
    rule_ids: tuple[str, ...] = ()
    #: Analysis tier (one of :data:`TIERS`) — how ``--list-rules``
    #: groups the catalog.
    tier: str = "lexical"


#: Every registered rule/pass, in registration order.
RULE_REGISTRY: dict[str, RuleSpec] = {}


def _register(spec: RuleSpec) -> None:
    if spec.name in RULE_REGISTRY:
        raise ValueError(f"duplicate rule registration: {spec.name!r}")
    RULE_REGISTRY[spec.name] = spec


def module_rule(name: str, description: str,
                rule_ids: tuple[str, ...] = (),
                tier: str = "lexical") -> Callable[
                    [ModuleRuleFunc], ModuleRuleFunc]:
    """Register a per-module rule under ``name``."""
    def decorate(func: ModuleRuleFunc) -> ModuleRuleFunc:
        _register(RuleSpec(name, "module", description, func,
                           rule_ids or (name,), tier))
        return func
    return decorate


def program_pass(name: str, description: str,
                 rule_ids: tuple[str, ...] = (),
                 tier: str = "interprocedural") -> Callable[
                     [ProgramPassFunc], ProgramPassFunc]:
    """Register a whole-program pass under ``name``."""
    def decorate(func: ProgramPassFunc) -> ProgramPassFunc:
        _register(RuleSpec(name, "program", description, func,
                           rule_ids or (name,), tier))
        return func
    return decorate


def rule_catalog() -> list[RuleSpec]:
    """Every registered spec (importing the rule modules first)."""
    # Import for side effects: each module registers its rules on import.
    from . import budget_range, determinism, flowpasses, rules_lint, taint

    _ = (budget_range, determinism, flowpasses, rules_lint, taint)
    return list(RULE_REGISTRY.values())
