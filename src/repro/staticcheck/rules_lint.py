"""The per-module (lexical) rules.

Five rules that need one parsed module and nothing else: ``no-float``
(float syntax in budget-critical files), ``unseeded-random``,
``event-registry``, ``all-consistency`` and ``interval-internals``.
``# lint: float-ok`` pragmas are honoured anywhere on a multi-line
statement via :func:`repro.staticcheck.base.exempt_lines`.

Each rule is a :func:`~repro.staticcheck.base.module_rule` plugin taking
one :class:`~repro.staticcheck.model.ModuleInfo`; scoping decisions
(which files the float rule covers, which package owns the interval
internals) come from the shared
:class:`~repro.staticcheck.base.StaticCheckConfig`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import Finding, StaticCheckConfig, module_rule
from .model import ModuleInfo

__all__ = [
    "check_no_float",
    "check_unseeded_random",
    "check_event_registry",
    "check_all_consistency",
    "check_interval_internals",
    "GLOBAL_RANDOM_FUNCS",
    "INTERVAL_INTERNALS",
]

#: ``random`` module-level callables drawing from the hidden global RNG.
#: ``random.Random`` (the seeded class) is deliberately absent.
GLOBAL_RANDOM_FUNCS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "setstate", "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: Interval-set / gap-index internals owned by ``src/repro/heap/``.
INTERVAL_INTERNALS = frozenset({
    "_starts", "_ends",
    "_gap_end", "_gap_buckets", "_class_mask", "_size_order",
})


def _node_lines(node: ast.AST) -> range:
    """The source lines a node spans (1-based, inclusive)."""
    start = getattr(node, "lineno", 0)
    end = getattr(node, "end_lineno", start) or start
    return range(start, end + 1)


# ---------------------------------------------------------------------------
# no-float
# ---------------------------------------------------------------------------


@module_rule(
    "no-float",
    "budget-critical code must use exact integer/Fraction arithmetic "
    "(Theorem 1 is ULP-tight at the budget boundary)",
)
def check_no_float(module: ModuleInfo,
                   config: StaticCheckConfig) -> Iterator[Finding]:
    """Flag float literals, ``float(...)`` and true division in scope."""
    if not config.is_float_sink(module.relpath):
        return
    exempt = module.float_ok_lines

    def flagged(node: ast.AST, message: str) -> Iterator[Finding]:
        if not exempt.intersection(_node_lines(node)):
            yield Finding(module.path, getattr(node, "lineno", 0),
                          "no-float", message)

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield from flagged(node, f"float literal {node.value!r}")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            yield from flagged(
                node, "true division `/` (use integer or Fraction arithmetic)"
            )
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            yield from flagged(node, "float(...) conversion")


# ---------------------------------------------------------------------------
# unseeded-random
# ---------------------------------------------------------------------------


@module_rule(
    "unseeded-random",
    "module-level random.* draws share hidden global state and break "
    "same-seed-same-digest; draw from a seeded random.Random(seed)",
)
def check_unseeded_random(module: ModuleInfo,
                          config: StaticCheckConfig) -> Iterator[Finding]:
    """Flag global-state ``random`` usage (module functions, bare imports)."""
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "random"
                and node.func.attr in GLOBAL_RANDOM_FUNCS):
            yield Finding(
                module.path, node.lineno, "unseeded-random",
                f"random.{node.func.attr}() uses the hidden global RNG; "
                "draw from a seeded random.Random(seed) instance",
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            bad = sorted(
                alias.name for alias in node.names
                if alias.name in GLOBAL_RANDOM_FUNCS
            )
            if bad:
                yield Finding(
                    module.path, node.lineno, "unseeded-random",
                    f"importing {', '.join(bad)} from random binds the "
                    "global RNG; use a seeded random.Random(seed) instance",
                )


# ---------------------------------------------------------------------------
# event-registry
# ---------------------------------------------------------------------------


def _kind_of(class_node: ast.ClassDef) -> str | None:
    """The ``kind: ClassVar[str] = "..."`` value of an event class."""
    for statement in class_node.body:
        if (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and statement.target.id == "kind"
                and isinstance(statement.value, ast.Constant)
                and isinstance(statement.value.value, str)):
            return statement.value.value
    return None


@module_rule(
    "event-registry",
    "every TelemetryEvent subclass must be in _EVENT_TYPES and __all__ "
    "or event_from_dict round-trips (and repro check) silently break",
)
def check_event_registry(module: ModuleInfo,
                         config: StaticCheckConfig) -> Iterator[Finding]:
    """Every concrete event class must be in ``_EVENT_TYPES`` / ``__all__``."""
    if module.relpath != config.events_module:
        return
    event_classes: dict[str, int] = {}
    registered: set[str] = set()
    exported: set[str] = set()
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            bases = {base.id for base in node.bases
                     if isinstance(base, ast.Name)}
            if "TelemetryEvent" in bases and _kind_of(node) is not None:
                event_classes[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            raw_targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            targets = [t.id for t in raw_targets if isinstance(t, ast.Name)]
            if "_EVENT_TYPES" in targets and node.value is not None:
                for name_node in ast.walk(node.value):
                    if isinstance(name_node, ast.Name):
                        registered.add(name_node.id)
            if "__all__" in targets and isinstance(
                    node.value, (ast.List, ast.Tuple)):
                exported = {
                    element.value for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                }
    for name, line in sorted(event_classes.items(), key=lambda item: item[1]):
        if name not in registered:
            yield Finding(
                module.path, line, "event-registry",
                f"event class {name} is not registered in _EVENT_TYPES; "
                "event_from_dict cannot round-trip it",
            )
        if name not in exported:
            yield Finding(
                module.path, line, "event-registry",
                f"event class {name} is missing from __all__",
            )


# ---------------------------------------------------------------------------
# all-consistency
# ---------------------------------------------------------------------------


def _top_level_names(tree: ast.Module) -> set[str] | None:
    """Names bound at module scope (None when ``import *`` defeats it)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        names.add(name_node.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    return None
                names.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING blocks and import fallbacks bind names too.
            inner = ast.Module(body=list(ast.iter_child_nodes(node)),
                               type_ignores=[])
            nested = _top_level_names(inner)
            if nested is None:
                return None
            names.update(nested)
    return names


@module_rule(
    "all-consistency",
    "__all__ entries must be unique and actually bound in the module",
)
def check_all_consistency(module: ModuleInfo,
                          config: StaticCheckConfig) -> Iterator[Finding]:
    """``__all__`` entries must be unique and bound in the module."""
    tree = module.tree
    for node in tree.body:
        if not (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            continue
        entries = [element.value for element in node.value.elts
                   if isinstance(element, ast.Constant)
                   and isinstance(element.value, str)]
        seen: set[str] = set()
        for entry in entries:
            if entry in seen:
                yield Finding(module.path, node.lineno, "all-consistency",
                              f"duplicate __all__ entry {entry!r}")
            seen.add(entry)
        defined = _top_level_names(tree)
        if defined is None:
            return
        for entry in entries:
            if entry not in defined:
                yield Finding(
                    module.path, node.lineno, "all-consistency",
                    f"__all__ exports {entry!r} but the module never binds it",
                )


# ---------------------------------------------------------------------------
# interval-internals
# ---------------------------------------------------------------------------


@module_rule(
    "interval-internals",
    "interval/gap-index internals are owned by src/repro/heap/; external "
    "access desynchronizes the placement index",
)
def check_interval_internals(module: ModuleInfo,
                             config: StaticCheckConfig) -> Iterator[Finding]:
    """Flag attribute access to interval/gap-index internals outside
    the heap package (reads and writes alike)."""
    if config.in_heap_package(module.relpath):
        return
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in INTERVAL_INTERNALS):
            yield Finding(
                module.path, node.lineno, "interval-internals",
                f"direct access to {node.attr!r}: the gap index mirrors "
                "the interval arrays, so external pokes desynchronize "
                "placement search; use the IntervalSet public API",
            )
