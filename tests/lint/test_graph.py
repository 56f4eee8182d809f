"""Unit tests for the whole-program symbol table and call graph."""

from __future__ import annotations

import textwrap

from repro.lint.core import ModuleInfo
from repro.lint.graph import (
    ModuleSummary,
    build_graph,
    extract_module,
    module_name_for_rel,
)


def _summaries(sources: dict[str, str]) -> list:
    return [
        extract_module(ModuleInfo(rel, textwrap.dedent(src), rel=rel))
        for rel, src in sorted(sources.items())
    ]


def _graph(sources: dict[str, str]):
    return build_graph(_summaries(sources))


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for_rel("src/repro/obs/trace.py") == (
            "repro.obs.trace"
        )

    def test_package_init(self):
        assert module_name_for_rel("src/repro/obs/__init__.py") == (
            "repro.obs"
        )

    def test_bare_repro_prefix(self):
        assert module_name_for_rel("repro/api.py") == "repro.api"

    def test_outside_project_is_none(self):
        assert module_name_for_rel("tools/script.py") is None


class TestExtraction:
    def test_relative_import_resolution(self):
        sources = {
            "repro/pkg/__init__.py": "",
            "repro/pkg/a.py": """
                from . import b
                from .b import helper
                from ..other import thing

                def entry():
                    b.helper()
                    helper()
            """,
        }
        summary = _summaries(sources)[1]
        assert summary.aliases["b"] == "repro.pkg.b"
        assert summary.aliases["helper"] == "repro.pkg.b.helper"
        assert summary.aliases["thing"] == "repro.other.thing"

    def test_nested_functions_get_parent_qualified_quals(self):
        sources = {
            "repro/m.py": """
                def outer():
                    def inner():
                        return 1
                    return inner()
            """,
        }
        summary = _summaries(sources)[0]
        quals = {fn.qual for fn in summary.functions}
        assert quals == {"repro.m.outer", "repro.m.outer.inner"}

    def test_summary_roundtrips_through_json_dict(self):
        sources = {
            "repro/m.py": """
                import time

                def tick():
                    return time.perf_counter()
            """,
        }
        summary = _summaries(sources)[0]
        clone = ModuleSummary.from_dict(summary.to_dict())
        assert clone.to_dict() == summary.to_dict()
        assert clone.functions[0].clock_calls == [
            ("wall-clock read time.perf_counter()", 5)
        ]


class TestBinding:
    def test_dotted_cross_module_call_binds(self):
        graph = _graph({
            "repro/a.py": """
                from repro import b

                def entry():
                    return b.helper()
            """,
            "repro/b.py": """
                def helper():
                    return 1
            """,
        })
        assert graph.callees_of("repro.a.entry") == [
            ("repro.b.helper", 5)
        ]

    def test_reexport_alias_chased_through_init(self):
        graph = _graph({
            "repro/pkg/__init__.py": """
                from .impl import helper
            """,
            "repro/pkg/impl.py": """
                def helper():
                    return 1
            """,
            "repro/a.py": """
                from repro import pkg

                def entry():
                    return pkg.helper()
            """,
        })
        assert graph.callees_of("repro.a.entry") == [
            ("repro.pkg.impl.helper", 5)
        ]

    def test_self_call_binds_within_class(self):
        graph = _graph({
            "repro/m.py": """
                class Engine:
                    def run(self):
                        return self._step()

                    def _step(self):
                        return 1
            """,
        })
        assert graph.callees_of("repro.m.Engine.run") == [
            ("repro.m.Engine._step", 4)
        ]

    def test_name_call_binds_nested_then_module(self):
        graph = _graph({
            "repro/m.py": """
                def entry():
                    def inner():
                        return helper()
                    return inner()

                def helper():
                    return 1
            """,
        })
        assert graph.callees_of("repro.m.entry") == [
            ("repro.m.entry.inner", 5)
        ]
        assert graph.callees_of("repro.m.entry.inner") == [
            ("repro.m.helper", 4)
        ]

    def test_dynamic_receiver_falls_back_to_attr_name(self):
        # obj comes from a container: the call cannot be resolved, so
        # it conservatively binds to every project function named run
        graph = _graph({
            "repro/a.py": """
                def entry(objs):
                    return [o.run() for o in objs]
            """,
            "repro/b.py": """
                class EngineB:
                    def run(self):
                        return 2
            """,
            "repro/c.py": """
                class EngineC:
                    def run(self):
                        return 3
            """,
        })
        callees = {q for q, _ in graph.callees_of("repro.a.entry")}
        assert callees == {
            "repro.b.EngineB.run", "repro.c.EngineC.run"
        }

    def test_class_constructor_binds_to_init(self):
        graph = _graph({
            "repro/a.py": """
                from repro.b import Engine

                def entry():
                    return Engine()
            """,
            "repro/b.py": """
                class Engine:
                    def __init__(self):
                        self.x = 1
            """,
        })
        assert graph.callees_of("repro.a.entry") == [
            ("repro.b.Engine.__init__", 5)
        ]

    def test_external_library_calls_have_no_edges(self):
        graph = _graph({
            "repro/a.py": """
                import numpy as np

                def entry(x):
                    return np.asarray(x)
            """,
        })
        assert graph.callees_of("repro.a.entry") == []


class TestReachability:
    SOURCES = {
        "repro/a.py": """
            from repro import b

            def public_entry():
                return b.middle()
        """,
        "repro/b.py": """
            from repro import c

            def middle():
                return c.sink()
        """,
        "repro/c.py": """
            import time

            def sink():
                return time.time()
        """,
    }

    def test_transitive_closure_and_chain(self):
        graph = _graph(self.SOURCES)
        fn = graph.functions["repro.c.sink"]
        assert fn.clock_calls
        reach = graph.reach({
            "repro.c.sink": fn.clock_calls[0],
        })
        assert reach.covers("repro.a.public_entry")
        assert reach.covers("repro.b.middle")
        chain = reach.chain("repro.a.public_entry")
        assert chain[0].startswith("repro.a.public_entry")
        assert chain[-1] == "wall-clock read time.time()"
        assert reach.path("repro.a.public_entry") == [
            "repro.a.public_entry", "repro.b.middle", "repro.c.sink",
        ]

    def test_unrelated_function_not_covered(self):
        graph = _graph(self.SOURCES)
        fn = graph.functions["repro.c.sink"]
        reach = graph.reach({"repro.c.sink": fn.clock_calls[0]})
        assert not reach.covers("repro.c.sink") is False  # source
        assert "repro.c.sink" in reach.covered
