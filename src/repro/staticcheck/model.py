"""The whole-program model: modules, symbol tables, name resolution.

The analyzer parses every file **once** into a :class:`Program`:

* each file becomes a :class:`ModuleInfo` — its AST, its import table
  (local alias → fully qualified target), its module-level bindings and
  every function/method as a :class:`FunctionInfo` keyed by qualified
  name (``repro.mm.budget.CompactionBudget.can_move``);
* module-level statements are wrapped in a synthetic ``<module>``
  function so import-time code participates in the call graph;
* :meth:`Program.resolve_call` turns a call expression into the callee's
  canonical qualified name, chasing ``from x import y`` chains through
  package re-exports — which is exactly what a per-line linter cannot
  do, and what the interprocedural passes are built on.

Resolution is deliberately *best effort*: calls through objects whose
class is unknown stay unresolved (the call graph records the attribute
name so passes like determinism can still recognise ``*.emit``).  The
passes are written so an unresolved call defaults to "no finding" —
the framework under-reports rather than flooding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .base import DETERMINISM_OK_PRAGMA, FLOAT_OK_PRAGMA, exempt_lines

__all__ = [
    "module_name_for",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "Program",
]

#: Top-level directories whose files map onto importable dotted names.
_SOURCE_ROOTS = ("src",)


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative POSIX path.

    ``src/repro/mm/budget.py`` → ``repro.mm.budget``;
    ``tools/perf_smoke.py`` → ``tools.perf_smoke``;
    ``src/repro/check/__init__.py`` → ``repro.check``.
    """
    parts = list(Path(relpath).parts)
    if parts and parts[0] in _SOURCE_ROOTS:
        parts = parts[1:]
    if not parts:
        raise ValueError(f"cannot derive a module name from {relpath!r}")
    parts[-1] = parts[-1].removesuffix(".py")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts:
        raise ValueError(f"cannot derive a module name from {relpath!r}")
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function, method or synthetic module body."""

    qualname: str
    module: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Module
    lineno: int
    #: Owning class qualname for methods, else None.
    owner_class: str | None = None
    #: Parameter names in order (``self``/``cls`` included).
    params: tuple[str, ...] = ()
    #: Parameter annotations, unparsed (name → source text).
    annotations: dict[str, str] = field(default_factory=dict)

    @property
    def body(self) -> Sequence[ast.stmt]:
        """The statements of the function (or module) body."""
        return self.node.body  # type: ignore[attr-defined, no-any-return]

    @property
    def is_module_body(self) -> bool:
        """Whether this is the synthetic ``<module>`` pseudo-function."""
        return self.qualname.endswith(".<module>")


@dataclass
class ClassInfo:
    """One class: its AST, base names and annotated fields."""

    qualname: str
    module: str
    node: ast.ClassDef
    lineno: int
    #: Base-class names as written (``Name``/dotted text).
    bases: tuple[str, ...] = ()
    #: Annotated class-body fields in declaration order
    #: (name, unparsed annotation) — a dataclass's constructor params.
    fields: tuple[tuple[str, str], ...] = ()


class ModuleInfo:
    """One parsed module and its local symbol table."""

    def __init__(self, relpath: str, path: Path, source: str,
                 tree: ast.Module) -> None:
        self.relpath = relpath
        self.path = path
        self.source = source
        self.tree = tree
        self.name = module_name_for(relpath)
        self.is_package = Path(relpath).name == "__init__.py"
        #: Local alias → fully qualified target ("math", "repro.mm.budget",
        #: or "repro.adversary.catalog.make_program").
        self.imports: dict[str, str] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._index()
        self._pragma_cache: dict[str, set[int]] = {}

    # -- pragma access -------------------------------------------------------

    def exempt(self, pragma: str) -> set[int]:
        """Lines exempted by ``pragma`` (statement-span aware, cached)."""
        cached = self._pragma_cache.get(pragma)
        if cached is None:
            cached = exempt_lines(self.tree, self.source, pragma)
            self._pragma_cache[pragma] = cached
        return cached

    @property
    def float_ok_lines(self) -> set[int]:
        """Lines exempt from the float rules."""
        return self.exempt(FLOAT_OK_PRAGMA)

    @property
    def determinism_ok_lines(self) -> set[int]:
        """Lines exempt from the determinism pass."""
        return self.exempt(DETERMINISM_OK_PRAGMA)

    # -- indexing ------------------------------------------------------------

    def _resolve_import_from(self, node: ast.ImportFrom) -> str | None:
        """Absolute dotted module a ``from``-import pulls from."""
        if node.level == 0:
            return node.module
        parts = self.name.split(".")
        if not self.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop:
            if drop >= len(parts):
                return None
            parts = parts[:-drop]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None

    def _index_imports(self, body: Iterable[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else bound
                    self.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_import_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{base}.{alias.name}"
            elif isinstance(node, (ast.If, ast.Try)):
                # TYPE_CHECKING blocks and import fallbacks bind names too.
                self._index_imports(ast.iter_child_nodes(node))  # type: ignore[arg-type]

    def _index_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                        owner: ClassInfo | None) -> None:
        prefix = owner.qualname if owner is not None else self.name
        qualname = f"{prefix}.{node.name}"
        args = node.args
        ordered = (list(args.posonlyargs) + list(args.args)
                   + list(args.kwonlyargs))
        params = tuple(a.arg for a in ordered)
        annotations = {
            a.arg: ast.unparse(a.annotation)
            for a in ordered if a.annotation is not None
        }
        self.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=self.name,
            node=node,
            lineno=node.lineno,
            owner_class=owner.qualname if owner is not None else None,
            params=params,
            annotations=annotations,
        )

    def _index_class(self, node: ast.ClassDef) -> None:
        qualname = f"{self.name}.{node.name}"
        bases = tuple(ast.unparse(base) for base in node.bases)
        fields: list[tuple[str, str]] = []
        info = ClassInfo(qualname=qualname, module=self.name, node=node,
                         lineno=node.lineno, bases=bases)
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(statement, info)
            elif (isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)):
                fields.append((statement.target.id,
                               ast.unparse(statement.annotation)))
        info.fields = tuple(fields)
        self.classes[qualname] = info

    def _index(self) -> None:
        self._index_imports(self.tree.body)
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(node, None)
            elif isinstance(node, ast.ClassDef):
                self._index_class(node)
        # Synthetic function for the module-level statements, so the call
        # graph sees import-time calls.
        self.functions[f"{self.name}.<module>"] = FunctionInfo(
            qualname=f"{self.name}.<module>",
            module=self.name,
            node=self.tree,
            lineno=1,
        )


class Program:
    """Every module of the analyzed program, with global resolution."""

    def __init__(self, modules: Sequence[ModuleInfo], root: Path) -> None:
        self.root = root
        self.modules: dict[str, ModuleInfo] = {}
        for module in modules:
            self.modules[module.name] = module
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        for module in self.modules.values():
            self.functions.update(module.functions)
            self.classes.update(module.classes)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_sources(cls, sources: Mapping[str, str] | Sequence[tuple[str, str]],
                     root: Path | None = None) -> "Program":
        """Build from in-memory ``{relpath: source}`` pairs (fixtures)."""
        if isinstance(sources, Mapping):
            pairs = list(sources.items())
        else:
            pairs = list(sources)
        base = root if root is not None else Path("/virtual")
        modules = []
        for relpath, source in pairs:
            tree = ast.parse(source, filename=relpath)
            modules.append(ModuleInfo(relpath, base / relpath, source, tree))
        return cls(modules, base)

    @classmethod
    def load(cls, paths: Iterable[Path], root: Path) -> "Program":
        """Parse files on disk (paths inside ``root``); skips bad syntax.

        Files that fail to parse are recorded in ``parse_errors`` on the
        returned program rather than aborting the whole analysis.
        """
        modules: list[ModuleInfo] = []
        errors: list[tuple[Path, str]] = []
        for path in paths:
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = path.name
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as error:
                errors.append((path, str(error)))
                continue
            modules.append(ModuleInfo(rel, path, source, tree))
        program = cls(modules, root)
        program.parse_errors = errors
        return program

    parse_errors: list[tuple[Path, str]] = []

    # -- resolution ----------------------------------------------------------

    def resolve_symbol(self, qualified: str,
                       _depth: int = 0) -> str | None:
        """Canonicalize a dotted name to a program function/class.

        Chases re-export chains (``repro.check.Sanitizer`` →
        ``repro.check.runner.Sanitizer``) up to a small depth.  Returns
        ``None`` for names outside the program (stdlib, third party).
        """
        if _depth > 8:
            return None
        if qualified in self.functions or qualified in self.classes:
            return qualified
        # Longest module prefix + attribute chain.
        parts = qualified.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module_name = ".".join(parts[:cut])
            module = self.modules.get(module_name)
            if module is None:
                continue
            remainder = parts[cut:]
            head = remainder[0]
            candidate = f"{module_name}.{'.'.join(remainder)}"
            if candidate in self.functions or candidate in self.classes:
                return candidate
            target = module.imports.get(head)
            if target is not None:
                chased = ".".join([target] + remainder[1:])
                return self.resolve_symbol(chased, _depth + 1)
            return None
        return None

    def resolve_call(self, module: ModuleInfo, call: ast.Call,
                     owner_class: str | None = None) -> str | None:
        """The callee's canonical qualified name, best effort.

        Handles ``name(...)`` through local definitions and imports,
        ``mod.attr(...)`` through module aliases, and ``self.m(...)`` /
        ``cls.m(...)`` within a known class.  External targets resolve
        to their dotted name (``math.sqrt``) even though they are not in
        the program — passes match those by prefix.
        """
        func = call.func
        if isinstance(func, ast.Name):
            local = f"{module.name}.{func.id}"
            if local in self.functions or local in self.classes:
                return local
            target = module.imports.get(func.id)
            if target is not None:
                return self.resolve_symbol(target) or target
            return None
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                if value.id in ("self", "cls") and owner_class is not None:
                    return self._resolve_method(owner_class, func.attr)
                target = module.imports.get(value.id)
                if target is not None:
                    dotted = f"{target}.{func.attr}"
                    return self.resolve_symbol(dotted) or dotted
                local_class = f"{module.name}.{value.id}"
                if local_class in self.classes:
                    return self._resolve_method(local_class, func.attr)
            elif isinstance(value, ast.Attribute):
                dotted = ast.unparse(func)
                resolved = self.resolve_symbol(f"{module.name}.{dotted}")
                if resolved is not None:
                    return resolved
                # `a.b.c(...)` where `a` is an imported module alias.
                root_chain = dotted.split(".")
                target = module.imports.get(root_chain[0])
                if target is not None:
                    dotted = ".".join([target] + root_chain[1:])
                    return self.resolve_symbol(dotted) or dotted
        return None

    def _resolve_method(self, class_qualname: str, method: str,
                        _depth: int = 0) -> str | None:
        """Resolve ``Class.method`` through program base classes."""
        if _depth > 8:
            return None
        info = self.classes.get(class_qualname)
        if info is None:
            return None
        candidate = f"{class_qualname}.{method}"
        if candidate in self.functions:
            return candidate
        module = self.modules.get(info.module)
        for base in info.bases:
            head = base.split(".")[0].split("[")[0]
            if module is not None and head in module.imports:
                base_qual = self.resolve_symbol(module.imports[head])
            else:
                base_qual = self.resolve_symbol(
                    f"{info.module}.{head}") if module else None
            if base_qual is not None:
                found = self._resolve_method(base_qual, method, _depth + 1)
                if found is not None:
                    return found
        return None

    def init_params_of(self, class_qualname: str) -> tuple[
            tuple[str, ...], dict[str, str]] | None:
        """Constructor parameter names/annotations for a program class.

        For a dataclass these are its annotated fields in order; for a
        plain class, ``__init__``'s parameters minus ``self``.
        """
        info = self.classes.get(class_qualname)
        if info is None:
            return None
        init = self.functions.get(f"{class_qualname}.__init__")
        if init is not None and len(init.params) > 0:
            return init.params[1:], init.annotations
        if info.fields:
            return (tuple(name for name, _ in info.fields),
                    dict(info.fields))
        return (), {}
