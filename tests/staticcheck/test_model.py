"""Unit tests: the program model, symbol resolution, and the call graph."""

from __future__ import annotations

from textwrap import dedent

from repro.staticcheck.callgraph import build_call_graph
from repro.staticcheck.model import Program, module_name_for


def _program(files: dict[str, str]) -> Program:
    return Program.from_sources({
        relpath: dedent(source).lstrip("\n")
        for relpath, source in files.items()
    })


class TestModuleNaming:
    def test_src_layout_maps_to_package_names(self):
        assert module_name_for("src/repro/mm/budget.py") == "repro.mm.budget"
        assert module_name_for("src/repro/__init__.py") == "repro"
        assert module_name_for("tools/perf_smoke.py") == "tools.perf_smoke"

    def test_package_init_drops_the_suffix(self):
        assert module_name_for("src/repro/check/__init__.py") == "repro.check"


class TestSymbolResolution:
    def test_plain_function(self):
        program = _program({"src/repro/a.py": "def f():\n    return 1\n"})
        assert program.resolve_symbol("repro.a.f") == "repro.a.f"

    def test_reexport_chain_is_chased(self):
        program = _program({
            "src/repro/pkg/__init__.py": "from .impl import thing\n",
            "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
        })
        assert program.resolve_symbol("repro.pkg.thing") == (
            "repro.pkg.impl.thing")

    def test_external_names_resolve_to_none(self):
        program = _program({"src/repro/a.py": "x = 1\n"})
        assert program.resolve_symbol("math.sqrt") is None

    def test_method_resolution(self):
        program = _program({"src/repro/a.py": """
            class Widget:
                def ping(self):
                    return self.pong()

                def pong(self):
                    return 1
        """})
        assert "repro.a.Widget.ping" in program.functions
        assert program.resolve_symbol("repro.a.Widget.pong") == (
            "repro.a.Widget.pong")


class TestCallGraph:
    def test_cross_module_edge(self):
        program = _program({
            "src/repro/a.py": """
                from repro.b import helper


                def top():
                    return helper()
            """,
            "src/repro/b.py": """
                def helper():
                    return 1
            """,
        })
        graph = build_call_graph(program)
        assert "repro.b.helper" in graph.callees("repro.a.top")
        assert "repro.a.top" in graph.callers("repro.b.helper")

    def test_external_calls_keep_their_dotted_names(self):
        program = _program({"src/repro/a.py": """
            import time


            def stamp():
                return time.time()
        """})
        graph = build_call_graph(program)
        assert "time.time" in graph.callees("repro.a.stamp")

    def test_module_alias_is_resolved(self):
        program = _program({"src/repro/a.py": """
            import time as clock


            def stamp():
                return clock.monotonic()
        """})
        graph = build_call_graph(program)
        assert "time.monotonic" in graph.callees("repro.a.stamp")

    def test_self_method_call_resolves_within_the_class(self):
        program = _program({"src/repro/a.py": """
            class Widget:
                def ping(self):
                    return self.pong()

                def pong(self):
                    return 1
        """})
        graph = build_call_graph(program)
        assert "repro.a.Widget.pong" in graph.callees("repro.a.Widget.ping")

    def test_reverse_reachability_through_attr_calls(self):
        program = _program({"src/repro/a.py": """
            def outer(bus, items):
                inner(bus, items)


            def inner(bus, items):
                bus.emit(items)


            def unrelated():
                return 1
        """})
        graph = build_call_graph(program)
        relevant = graph.can_reach(set(), attr_targets=frozenset({"emit"}))
        assert {"repro.a.outer", "repro.a.inner"} <= relevant
        assert "repro.a.unrelated" not in relevant

    def test_module_body_owns_import_time_calls(self):
        program = _program({"src/repro/a.py": """
            def setup():
                return 1


            VALUE = setup()
        """})
        graph = build_call_graph(program)
        assert "repro.a.setup" in graph.callees("repro.a.<module>")


class TestTaintSummaries:
    def test_returns_float_fixpoint_crosses_modules(self):
        from repro.staticcheck.base import StaticCheckConfig
        from repro.staticcheck.taint import FloatTaintAnalysis

        program = _program({
            "src/repro/a.py": """
                def leaf():
                    return 0.5


                def mid():
                    return leaf()
            """,
            "src/repro/b.py": """
                from repro.a import mid


                def top():
                    return mid()
            """,
        })
        analysis = FloatTaintAnalysis(program, StaticCheckConfig())
        assert analysis.tainted["repro.a.leaf"]
        assert analysis.tainted["repro.a.mid"]
        assert analysis.tainted["repro.b.top"]

    def test_integer_chain_stays_clean(self):
        from repro.staticcheck.base import StaticCheckConfig
        from repro.staticcheck.taint import FloatTaintAnalysis

        program = _program({"src/repro/a.py": """
            def leaf():
                return 3


            def mid():
                return leaf() * 2
        """})
        analysis = FloatTaintAnalysis(program, StaticCheckConfig())
        assert not analysis.tainted["repro.a.leaf"]
        assert not analysis.tainted["repro.a.mid"]

    def test_math_int_functions_are_not_sources(self):
        from repro.staticcheck.base import StaticCheckConfig
        from repro.staticcheck.taint import FloatTaintAnalysis

        program = _program({"src/repro/a.py": """
            import math


            def ok(n):
                return math.isqrt(n) + math.gcd(n, 6)


            def bad(n):
                return math.sqrt(n)
        """})
        analysis = FloatTaintAnalysis(program, StaticCheckConfig())
        assert not analysis.tainted["repro.a.ok"]
        assert analysis.tainted["repro.a.bad"]
