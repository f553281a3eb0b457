"""Every environment read under ``src/repro`` is carried by the cache key.

A cached :class:`~repro.parallel.tasks.TaskResult` is keyed by its
task's fields (``TestTaskDigest`` pins each one as load-bearing).  An
environment variable read by code the task runs would change the
result without changing the key, and the cache would serve a stale
entry.  The one sanctioned read is ``REPRO_KERNEL`` in
``heap.kernel.resolve_kernel``: ``SimTask.build`` resolves it in the
parent into ``SimTask.kernel``, so the key carries it.

The scan is an AST walk over the package: ``os.environ`` (subscript,
``.get``, or any other use), ``os.getenv`` and names imported from
``os`` all count, and the variable name is read from the literal or the
module-level constant passed in.
"""

from __future__ import annotations

import ast
from pathlib import Path
from textwrap import dedent

import pytest

from repro.core.params import BoundParams
from repro.heap.kernel import KERNEL_ENV_VAR
from repro.parallel.cache import task_digest
from repro.parallel.tasks import SimTask

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Environment variables the result-cache key carries, with the
#: ``SimTask`` field that carries each.
KEYED_ENV_VARS = {"REPRO_KERNEL": "kernel"}

_ENV_ATTRS = {"environ", "environb", "getenv"}


def _env_reads(source: str) -> list[tuple[int, str | None, str | None]]:
    """``(line, enclosing function, variable or None)`` per env read."""
    tree = ast.parse(source)
    constants = {
        target.id: node.value.value
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }
    from_os = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "os"
        for alias in node.names if alias.name in _ENV_ATTRS
    }
    parents: dict[ast.AST, ast.AST] = {}
    owner: dict[ast.AST, str] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner[child] = node.name
            elif node in owner:
                owner[child] = owner[node]

    def literal(node: ast.AST | None) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return constants.get(node.id)
        return None

    reads = []
    for node in ast.walk(tree):
        is_os_attr = (isinstance(node, ast.Attribute)
                      and node.attr in _ENV_ATTRS
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "os")
        is_bare = (isinstance(node, ast.Name) and node.id in from_os
                   and isinstance(node.ctx, ast.Load))
        if not (is_os_attr or is_bare):
            continue
        parent = parents.get(node)
        variable = None
        if isinstance(parent, ast.Call) and parent.func is node:
            variable = literal(parent.args[0] if parent.args else None)
        elif isinstance(parent, ast.Subscript):
            variable = literal(parent.slice)
        elif (isinstance(parent, ast.Attribute) and parent.attr == "get"
                and isinstance(parents.get(parent), ast.Call)):
            call = parents[parent]
            variable = literal(call.args[0] if call.args else None)
        reads.append((node.lineno, owner.get(node), variable))
    return sorted(reads, key=lambda read: read[0])


def _package_reads() -> dict[tuple[str, str | None, str | None], int]:
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for line, function, variable in _env_reads(
                path.read_text(encoding="utf-8")):
            found[(rel, function, variable)] = line
    return found


def test_scanner_sees_every_read_shape():
    reads = _env_reads(dedent("""
        import os
        from os import environ, getenv as ge

        NAME = "VIA_CONSTANT"


        def f():
            a = os.environ["SUBSCRIPT"]
            b = os.environ.get(NAME)
            c = os.getenv("GETENV")
            d = environ.get("FROM_IMPORT")
            e = ge("ALIASED")
            return "X" in os.environ
    """))
    assert [(function, variable) for _, function, variable in reads] == [
        ("f", "SUBSCRIPT"), ("f", "VIA_CONSTANT"), ("f", "GETENV"),
        ("f", "FROM_IMPORT"), ("f", "ALIASED"), ("f", None),
    ]


def test_every_env_read_is_carried_by_the_cache_key():
    reads = _package_reads()
    unkeyed = {key: line for key, line in reads.items()
               if key[2] not in KEYED_ENV_VARS}
    assert not unkeyed, (
        "environment reads the result-cache key does not carry (resolve "
        "them parent-side into a SimTask field): "
        + ", ".join(f"{rel}:{line} in {function} reads {variable!r}"
                    for (rel, function, variable), line in unkeyed.items())
    )


def test_the_only_read_is_the_kernel_resolution():
    assert set(_package_reads()) == {
        ("heap/kernel.py", "resolve_kernel", KERNEL_ENV_VAR),
    }


@pytest.mark.parametrize("variable, field", sorted(KEYED_ENV_VARS.items()))
def test_keyed_variable_changes_the_task_digest(monkeypatch, variable,
                                                field):
    params = BoundParams(256, 8, 10.0)
    digests = {}
    for value in ("reference", "bitmap"):
        monkeypatch.setenv(variable, value)
        task = SimTask.build(params, "first-fit", "pf")
        assert getattr(task, field) == value
        digests[value] = task_digest(task)
    assert digests["reference"] != digests["bitmap"]
