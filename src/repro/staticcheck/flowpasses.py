"""Flow-sensitive module passes: invariant-safety and alias-escape.

Two passes built on the CFG (:mod:`repro.staticcheck.cfg`) and the
worklist solver (:mod:`repro.staticcheck.dataflow`):

* **invariant-safety** — exception-path analysis of *paired mutations*.
  ``IntervalSet.add``/``remove`` keep the gap index synchronized as a
  remove/add pair; ``SimHeap.move`` is a remove/add on the occupied
  set.  Once the opening half has run, the structure is torn until the
  closing half runs — so on every path between the pair, an explicit
  ``raise``, a failing ``assert`` or an early ``return`` leaks a state
  that ``check_invariants`` would reject.  The pass searches the CFG
  from each open site and flags any such exit reachable before a close
  on the same receiver.  ``try/finally`` and rollback-in-handler are
  *naturally* clean: the duplicated finally/handler blocks put the
  close on the exceptional path, so the search passes a close first
  (``SimHeap.move`` verifies clean for exactly this reason).  A lone
  ``remove`` with no reachable ``add`` is a complete operation
  (``SimHeap.free``), not a pair — the pass only arms between a pair.

* **alias-escape** — flow-sensitive may-alias tracking of interval /
  gap-index internals, the flow half of the lexical
  ``interval-internals`` rule (:mod:`repro.staticcheck.rules_lint`,
  whose ``INTERVAL_INTERNALS`` set both rules share).  Outside the
  heap package, *mutating through an alias* (``rows = iv._starts;
  rows.pop()``) desynchronizes the index one step removed from the
  attribute access — the lexical rule sees the access, only the
  dataflow sees the mutation (``interval-alias``).
  Inside the heap package, returning or yielding an alias of an
  internal hands callers a live reference (``interval-escape``);
  copies (``list(...)``, ``sorted(...)``, ``.copy()``) do not alias.

A ``# lint: invariant-ok`` pragma suppresses an invariant-safety
finding on the statement carrying it, same spans as ``float-ok``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .base import (INVARIANT_OK_PRAGMA, Finding, StaticCheckConfig,
                   module_rule)
from .cfg import CFG, EXC, build_cfg
from .dataflow import DataflowAnalysis, solve
from .model import FunctionInfo, ModuleInfo
from .rules_lint import INTERVAL_INTERNALS

__all__ = [
    "check_invariant_safety",
    "check_alias_escape",
    "MUTATOR_METHODS",
]

#: Method calls that mutate a list/set/dict alias in place.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
})


def _functions_of(module: ModuleInfo) -> Iterator[FunctionInfo]:
    for function in module.functions.values():
        if not function.is_module_body:
            yield function


# ---------------------------------------------------------------------------
# invariant-safety
# ---------------------------------------------------------------------------


def _attr_calls(node: ast.AST) -> Iterator[tuple[str, str]]:
    """``(receiver text, method name)`` for attr calls inside ``node``."""
    for call in ast.walk(node):
        if (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)):
            yield ast.unparse(call.func.value), call.func.attr


def _torn_exits(cfg: CFG, open_block: int,
                close_blocks: set[int]) -> Iterator[int]:
    """Blocks with an exit statement reachable from ``open_block``
    without first completing a close.

    Traversal starts *after* the open: an exc edge out of the open
    block itself means the open never mutated anything, and a normal
    edge out of a close block means the pair completed (an exc edge
    out of a close means the close itself failed, so the torn state
    survives it — that path keeps exploring).
    """
    seen: set[int] = set()
    frontier = [dst for dst, kind in cfg.succs[open_block] if kind != EXC]
    while frontier:
        index = frontier.pop()
        if index in seen:
            continue
        seen.add(index)
        node = cfg.blocks[index].node
        if isinstance(node, (ast.Raise, ast.Assert, ast.Return)):
            yield index
        if index in close_blocks:
            frontier.extend(dst for dst, kind in cfg.succs[index]
                            if kind == EXC)
        else:
            frontier.extend(dst for dst, _ in cfg.succs[index])


@module_rule(
    "invariant-safety",
    "paired mutations on IntervalSet/GapIndex/SimHeap must reach a "
    "consistent state on every exit edge; raise/early-return between "
    "the pair leaks a torn structure",
    tier="dataflow",
)
def check_invariant_safety(module: ModuleInfo,
                           config: StaticCheckConfig) -> Iterator[Finding]:
    """Flag exits reachable between a paired open/close mutation."""
    if not config.in_invariant_scope(module.relpath):
        return
    exempt = module.exempt(INVARIANT_OK_PRAGMA)
    for function in _functions_of(module):
        cfg = build_cfg(function.node)
        calls_by_block: dict[int, list[tuple[str, str]]] = {}
        for block in cfg.statement_blocks():
            pairs = list(_attr_calls(block.node))
            if pairs:
                calls_by_block[block.index] = pairs
        reported: set[tuple[int, str]] = set()
        for open_name, close_name in config.invariant_pairs:
            opens = [(index, recv)
                     for index, pairs in calls_by_block.items()
                     for recv, meth in pairs if meth == open_name]
            for open_block, receiver in opens:
                open_line = cfg.blocks[open_block].line
                if open_line in exempt:
                    continue
                closes = {index
                          for index, pairs in calls_by_block.items()
                          for recv, meth in pairs
                          if meth == close_name and recv == receiver
                          and index != open_block}
                reachable = cfg.reachable(open_block)
                if not closes & reachable:
                    continue  # lone open: a complete operation, not a pair
                for exit_block in _torn_exits(cfg, open_block, closes):
                    block = cfg.blocks[exit_block]
                    if block.line in exempt:
                        continue
                    key = (block.line, type(block.node).__name__)
                    if key in reported:
                        continue
                    reported.add(key)
                    how = {"Raise": "raise", "Assert": "failing assert",
                           "Return": "early return"}[
                               type(block.node).__name__]
                    yield Finding(
                        module.path, block.line, "invariant-safety",
                        f"{how} between `{receiver}.{open_name}(...)` "
                        f"(line {open_line}) and its matching "
                        f"`{receiver}.{close_name}(...)` leaves the "
                        "structure torn (check_invariants would fail); "
                        "complete the pair first, or protect it with "
                        "try/finally or a rollback handler",
                        symbol=function.qualname, source="invariant-safety",
                    )


# ---------------------------------------------------------------------------
# alias-escape
# ---------------------------------------------------------------------------


class _AliasAnalysis(DataflowAnalysis[frozenset]):
    """Forward may-alias analysis: which local names alias an internal."""

    def boundary(self) -> frozenset:
        return frozenset()

    def bottom(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, block, state: frozenset) -> frozenset:
        node = block.node
        if node is None or not isinstance(node, ast.Assign):
            return state
        new = set(state)
        if (len(node.targets) == 1
                and isinstance(node.targets[0], ast.Tuple)
                and isinstance(node.value, ast.Tuple)
                and len(node.targets[0].elts) == len(node.value.elts)):
            for target, value in zip(node.targets[0].elts, node.value.elts):
                if isinstance(target, ast.Name):
                    if is_alias_expr(value, state):
                        new.add(target.id)
                    else:
                        new.discard(target.id)
            return frozenset(new)
        aliased = is_alias_expr(node.value, state)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if aliased:
                    new.add(target.id)
                else:
                    new.discard(target.id)
        return frozenset(new)


def is_alias_expr(expr: ast.expr, aliases: Iterable[str]) -> bool:
    """Whether ``expr`` evaluates to a live reference into an internal.

    Attribute access to an internal aliases it; so does a name already
    aliasing one, and a conditional choosing between aliases.  A
    *subscript* of either does not: the internals are flat sequences of
    ints, so ``self._ends[-1]`` extracts an immutable element (stores
    through ``alias[i] = x`` are caught separately, on the container).
    A call — ``list(...)``, ``sorted(...)``, ``x.copy()`` — returns a
    fresh object, so it never aliases.
    """
    if isinstance(expr, ast.Attribute):
        return expr.attr in INTERVAL_INTERNALS
    if isinstance(expr, ast.Name):
        return expr.id in set(aliases)
    if isinstance(expr, ast.IfExp):
        return (is_alias_expr(expr.body, aliases)
                or is_alias_expr(expr.orelse, aliases))
    return False


def _mutations_of(node: ast.AST,
                  aliases: frozenset) -> Iterator[tuple[int, str]]:
    """``(line, description)`` of in-place mutations through an alias."""
    for child in ast.walk(node):
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in MUTATOR_METHODS
                and is_alias_expr(child.func.value, aliases)):
            yield (child.lineno,
                   f"{ast.unparse(child.func)}(...) mutates")
        elif isinstance(child, (ast.Assign, ast.AugAssign)):
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target])
            for target in targets:
                if (isinstance(target, ast.Subscript)
                        and is_alias_expr(target.value, aliases)):
                    yield (child.lineno,
                           f"subscript store into "
                           f"{ast.unparse(target.value)} mutates")
        elif isinstance(child, ast.Delete):
            for target in child.targets:
                if (isinstance(target, ast.Subscript)
                        and is_alias_expr(target.value, aliases)):
                    yield (child.lineno,
                           f"del through {ast.unparse(target.value)} mutates")


@module_rule(
    "alias-escape",
    "flow-sensitive escape analysis of interval/gap-index internals: "
    "mutation through an alias outside the heap package, and heap code "
    "returning a live reference to an internal",
    rule_ids=("interval-alias", "interval-escape"),
    tier="dataflow",
)
def check_alias_escape(module: ModuleInfo,
                       config: StaticCheckConfig) -> Iterator[Finding]:
    """Flag alias mutations (outside heap) and alias escapes (inside)."""
    inside_heap = config.in_heap_package(module.relpath)
    for function in _functions_of(module):
        cfg = build_cfg(function.node)
        before, _ = solve(cfg, _AliasAnalysis())
        for block in cfg.statement_blocks():
            aliases = before[block.index]
            node = block.node
            if not inside_heap:
                for line, what in _mutations_of(node, aliases):
                    yield Finding(
                        module.path, line, "interval-alias",
                        f"{what} interval/gap-index internals through an "
                        "alias; the gap index mirrors the interval "
                        "arrays, so this desynchronizes placement "
                        "search — copy (`list(...)`) instead of "
                        "aliasing, or use the IntervalSet public API",
                        symbol=function.qualname, source="alias-escape",
                    )
            else:
                escaped: ast.expr | None = None
                if isinstance(node, ast.Return) and node.value is not None:
                    escaped = node.value
                elif (isinstance(node, ast.Expr)
                        and isinstance(node.value, (ast.Yield, ast.YieldFrom))
                        and node.value.value is not None):
                    escaped = node.value.value
                if escaped is None:
                    continue
                leaking = [element for element in
                           (escaped.elts if isinstance(escaped, ast.Tuple)
                            else [escaped])
                           if is_alias_expr(element, aliases)]
                for element in leaking:
                    yield Finding(
                        module.path, node.lineno, "interval-escape",
                        f"returning/yielding {ast.unparse(element)} hands "
                        "the caller a live reference to interval/gap-index "
                        "internals; return a copy (`list(...)`, "
                        "`tuple(...)`) so external code cannot "
                        "desynchronize the index",
                        symbol=function.qualname, source="alias-escape",
                    )

