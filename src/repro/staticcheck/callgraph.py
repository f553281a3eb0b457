"""Call graph over the whole-program model.

One node per :class:`~repro.staticcheck.model.FunctionInfo` (including
the synthetic ``<module>`` bodies, so import-time calls count).  Edges
point at *canonical* callee qualnames; calls into the standard library
keep their dotted name (``math.sqrt``, ``time.time``) so the taint and
determinism passes can recognise float/time sources without the targets
being part of the program.  Calls that cannot be resolved at all are
remembered by attribute name (``.emit``) — enough for the determinism
pass to treat ``self.observer.emit(...)`` as an emission site without
knowing the observer's class.

The graph exposes per-function call sites (the float-taint pass walks
them) and reverse reachability (:meth:`CallGraph.can_reach`, used by
the determinism pass to find everything that can emit into the digest).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from .model import Program

__all__ = ["CallSite", "CallGraph", "build_call_graph"]


@dataclass(frozen=True)
class CallSite:
    """One call expression inside one function."""

    caller: str
    callee: str | None  # canonical qualname or external dotted name
    attr: str | None    # attribute name for unresolved method calls
    node: ast.Call = field(compare=False, hash=False)
    line: int = 0


class CallGraph:
    """Adjacency over canonical qualnames, plus per-function call sites."""

    def __init__(self) -> None:
        #: caller -> set of resolved callee qualnames (internal + external).
        self.edges: dict[str, set[str]] = {}
        #: caller -> set of unresolved attribute-call names.
        self.attr_calls: dict[str, set[str]] = {}
        #: caller -> every call site, in source order.
        self.sites: dict[str, list[CallSite]] = {}
        self._reverse: dict[str, set[str]] | None = None

    def add(self, site: CallSite) -> None:
        """Record one call site."""
        self.sites.setdefault(site.caller, []).append(site)
        self.edges.setdefault(site.caller, set())
        self.attr_calls.setdefault(site.caller, set())
        if site.callee is not None:
            self.edges[site.caller].add(site.callee)
            self._reverse = None
        if site.attr is not None:
            self.attr_calls[site.caller].add(site.attr)

    def callees(self, caller: str) -> set[str]:
        """Resolved callees of one function."""
        return self.edges.get(caller, set())

    def callers(self, callee: str) -> set[str]:
        """Resolved callers of one function (reverse edges, cached)."""
        if self._reverse is None:
            reverse: dict[str, set[str]] = {}
            for caller, callees in self.edges.items():
                for target in callees:
                    reverse.setdefault(target, set()).add(caller)
            self._reverse = reverse
        return self._reverse.get(callee, set())

    def can_reach(self, targets: set[str], *,
                  attr_targets: frozenset[str] = frozenset()) -> set[str]:
        """Every function from which some target is transitively callable.

        ``attr_targets`` matches unresolved attribute calls by name, so
        ``self.bus.emit(...)`` marks its caller even though the bus's
        class is unknown.
        """
        relevant: set[str] = set()
        for caller, callees in self.edges.items():
            if callees & targets:
                relevant.add(caller)
        if attr_targets:
            for caller, attrs in self.attr_calls.items():
                if attrs & attr_targets:
                    relevant.add(caller)
        changed = True
        while changed:
            changed = False
            for caller, callees in self.edges.items():
                if caller not in relevant and callees & relevant:
                    relevant.add(caller)
                    changed = True
        return relevant


def build_call_graph(program: Program) -> CallGraph:
    """Walk every function body once and record its call sites."""
    graph = CallGraph()
    for qualname, function in program.functions.items():
        module = program.modules[function.module]
        graph.edges.setdefault(qualname, set())
        graph.attr_calls.setdefault(qualname, set())
        graph.sites.setdefault(qualname, [])
        for node in _own_nodes(function.node):
            if not isinstance(node, ast.Call):
                continue
            callee = program.resolve_call(
                module, node, owner_class=function.owner_class
            )
            attr = (node.func.attr
                    if callee is None and isinstance(node.func, ast.Attribute)
                    else None)
            graph.add(CallSite(
                caller=qualname, callee=callee, attr=attr,
                node=node, line=node.lineno,
            ))
    return graph


def _own_nodes(root: ast.AST) -> Iterable[ast.AST]:
    """Every node belonging to ``root`` but not to a nested def/class.

    The module pseudo-function owns only true top-level statements;
    function bodies own everything except nested functions and classes
    (those get their own call-graph nodes).
    """
    def walk(node: ast.AST) -> Iterable[ast.AST]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            yield child
            yield from walk(child)

    yield from walk(root)
