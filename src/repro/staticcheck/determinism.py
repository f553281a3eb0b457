"""Determinism pass: no nondeterminism in digest-relevant code.

The runtime determinism checker (``repro check --replay``) proves a
*given* run was reproducible; this pass proves the *code* cannot emit a
nondeterministic event stream in the first place.  "Digest-relevant"
means: every function that can transitively reach an event emission
(``EventBus.emit`` or a per-kind producer such as ``emit_alloc``) or
one of the canonical digest helpers (:mod:`repro.check.determinism`,
``EventTape.digest``).  Both are also matched by attribute name, so
``self.observer.emit_charge(...)`` and ``bus.tape.digest()`` count
without knowing the receiver's class.  Reachability is computed over
the whole-program call graph, so a nondeterministic helper three calls
upstream of the emission is still in scope.

Inside that scope the pass flags:

* ``unordered-iteration`` — iterating a ``set``/``frozenset`` (display,
  constructor or comprehension) without an enclosing ``sorted(...)``:
  set order varies with hash seeding across processes, so any event or
  digest derived from it breaks same-seed-same-digest.  (Dict iteration
  is insertion-ordered in CPython ≥ 3.7 and allowed — but converting a
  dict through ``set()`` re-randomizes it, which is the classic
  "unordered dict into digest" bug this rule exists for.)
* ``id-ordering`` — ordering by object identity (``sorted(key=id)``,
  ``list.sort(key=id)``, ``id(a) < id(b)``): CPython addresses change
  run to run.
* ``env-read`` — ``os.environ`` / ``os.getenv`` reads: two runs of the
  same seed under different environments would diverge.
* ``time-read`` — wall-clock reads (``time.time``, ``datetime.now``,
  ...) feeding digest-relevant code.  ``time.perf_counter`` is *not*
  flagged: it only ever populates latency fields, which the canonical
  digest excludes (see ``_NONDETERMINISTIC_FIELDS`` in
  :mod:`repro.check.determinism`).

Suppression: ``# lint: determinism-ok`` on any line of the statement.
The repo-wide ``unseeded-random`` module rule already covers hidden-RNG
draws, so this pass does not duplicate it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import Finding, StaticCheckConfig, program_pass
from .callgraph import build_call_graph
from .model import FunctionInfo, ModuleInfo, Program

__all__ = ["DeterminismAnalysis", "run_determinism"]

#: Wall-clock callables (canonical dotted names) that vary run to run.
_TIME_SOURCES = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.localtime", "time.gmtime", "time.ctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Environment readers.
_ENV_SOURCES = frozenset({"os.getenv", "os.environb"})


def _is_set_expression(node: ast.expr) -> bool:
    """Whether an expression's value has nondeterministic iteration order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"}):
        return True
    return False


class DeterminismAnalysis:
    """Digest-relevant scope + the nondeterminism walks."""

    def __init__(self, program: Program, config: StaticCheckConfig) -> None:
        self.program = program
        self.config = config
        self.graph = build_call_graph(program)
        targets = {
            qualname for qualname in program.functions
            if qualname.split(".")[-1] in config.emit_attr_names
        }
        targets.update(
            resolved for name in config.digest_functions
            if (resolved := program.resolve_symbol(name)) is not None
        )
        # The tape digest is a method reached through attribute chains
        # (``bus.tape.digest()``, ``tape.digest()``) whose receivers the
        # call graph cannot type, so digest names match by attribute
        # like the emitters do.
        attr_targets = frozenset(config.emit_attr_names).union(
            name.rsplit(".", 1)[-1] for name in config.digest_functions)
        #: Functions that can transitively reach an emission or digest.
        self.relevant: set[str] = self.graph.can_reach(
            targets, attr_targets=attr_targets)
        self.relevant.update(targets & set(program.functions))

    def findings(self) -> Iterator[Finding]:
        """All determinism findings over the relevant scope."""
        for qualname in sorted(self.relevant):
            function = self.program.functions.get(qualname)
            if function is None:
                continue
            module = self.program.modules[function.module]
            exempt = module.determinism_ok_lines
            for node in self._own_nodes(function):
                yield from self._check_node(function, module, node, exempt)

    @staticmethod
    def _own_nodes(function: FunctionInfo) -> Iterator[ast.AST]:
        def walk(node: ast.AST) -> Iterator[ast.AST]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    continue
                yield child
                yield from walk(child)
        yield from walk(function.node)

    def _check_node(self, function: FunctionInfo, module: ModuleInfo,
                    node: ast.AST, exempt: set[int]) -> Iterator[Finding]:
        line = getattr(node, "lineno", 0)
        if line in exempt:
            return
        # unordered-iteration: for-loops and comprehension generators.
        iter_exprs: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_exprs.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iter_exprs.extend(gen.iter for gen in node.generators)
        for expr in iter_exprs:
            if _is_set_expression(expr):
                yield Finding(
                    module.path, getattr(expr, "lineno", line),
                    "unordered-iteration",
                    "iteration over a set in digest-relevant code: set "
                    "order varies with hash seeding, so emitted events "
                    "or digests become nondeterministic; wrap in "
                    "sorted(...)",
                    symbol=function.qualname, source="determinism",
                )
        if isinstance(node, ast.Call):
            yield from self._check_call(function, module, node, exempt)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, ast.Call)
                   and isinstance(op.func, ast.Name) and op.func.id == "id"
                   for op in operands):
                yield Finding(
                    module.path, line, "id-ordering",
                    "comparison by id(...) in digest-relevant code: "
                    "CPython object addresses change run to run",
                    symbol=function.qualname, source="determinism",
                )
        elif isinstance(node, ast.Attribute):
            dotted = _dotted_name(node, module)
            if dotted == "os.environ":
                yield Finding(
                    module.path, line, "env-read",
                    "os.environ read in digest-relevant code: the event "
                    "stream must depend only on (params, program, "
                    "manager, seed)",
                    symbol=function.qualname, source="determinism",
                )

    def _check_call(self, function: FunctionInfo, module: ModuleInfo,
                    node: ast.Call, exempt: set[int]) -> Iterator[Finding]:
        line = node.lineno
        # id-ordering through sort keys.
        callee_text = (ast.unparse(node.func)
                       if not isinstance(node.func, ast.Name)
                       else node.func.id)
        if (callee_text == "sorted" or callee_text.endswith(".sort")
                or callee_text in {"min", "max"}):
            for keyword in node.keywords:
                if (keyword.arg == "key"
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id == "id"):
                    yield Finding(
                        module.path, line, "id-ordering",
                        f"{callee_text}(key=id) orders by object identity "
                        "in digest-relevant code: CPython addresses "
                        "change run to run",
                        symbol=function.qualname, source="determinism",
                    )
        resolved = self.program.resolve_call(
            module, node, owner_class=function.owner_class)
        if resolved is None:
            return
        if resolved in _TIME_SOURCES:
            yield Finding(
                module.path, line, "time-read",
                f"wall-clock read {resolved}() in digest-relevant code: "
                "only perf_counter latency (excluded from the canonical "
                "digest) may vary between runs",
                symbol=function.qualname, source="determinism",
            )
        elif resolved in _ENV_SOURCES or resolved == "os.getenv":
            yield Finding(
                module.path, line, "env-read",
                f"{resolved}() read in digest-relevant code: the event "
                "stream must depend only on (params, program, manager, "
                "seed)",
                symbol=function.qualname, source="determinism",
            )


def _dotted_name(node: ast.Attribute, module: ModuleInfo) -> str | None:
    """``os.environ``-style dotted text with the root resolved."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = module.imports.get(current.id, current.id)
    return ".".join([root, *reversed(parts)])


@program_pass(
    "determinism",
    "digest-relevant code (anything that can reach EventBus.emit or the "
    "canonical digest) must be free of iteration-order, identity, "
    "environment and wall-clock nondeterminism",
    rule_ids=("unordered-iteration", "id-ordering", "env-read", "time-read"),
)
def run_determinism(program: Program,
                    config: StaticCheckConfig) -> Iterator[Finding]:
    """The registered pass entry point."""
    yield from DeterminismAnalysis(program, config).findings()
