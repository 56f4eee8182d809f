"""One failing and one clean fixture per lint rule.

Fixtures go through :func:`repro.lint.core.lint_source` with a
synthetic ``rel`` path chosen to match (or miss) each rule's scope, so
these sources never need to exist on disk and never get linted when
the real tree is scanned.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.core import REGISTRY, lint_source


def _lint(source: str, rel: str, rule: str) -> list:
    return lint_source(textwrap.dedent(source), rel, select=[rule])


def _rule_ids(findings: list) -> set[str]:
    return {f.rule for f in findings}


class TestRegistry:
    def test_expected_rules_registered(self):
        assert set(REGISTRY) == {
            "RPR001", "RPR002", "RPR003",
            "RPR101", "RPR102",
            "RPR201", "RPR202",
            "RPR301",
        }

    def test_rules_have_metadata(self):
        for rule in REGISTRY.values():
            assert rule.id and rule.name and rule.summary
            assert rule.scopes


class TestWallClockRPR001:
    BAD = """
        import time

        def run():
            start = time.perf_counter()
            return start
    """

    GOOD = """
        from repro.obs import Stopwatch

        def run():
            watch = Stopwatch()
            return watch.elapsed()
    """

    def test_flags_perf_counter_in_engine(self):
        findings = _lint(self.BAD, "repro/eplace/fake.py", "RPR001")
        assert _rule_ids(findings) == {"RPR001"}
        assert "perf_counter" in findings[0].message

    def test_flags_aliased_import(self):
        src = """
            from time import perf_counter as pc

            def run():
                return pc()
        """
        findings = _lint(src, "repro/annealing/fake.py", "RPR001")
        assert _rule_ids(findings) == {"RPR001"}

    def test_clean_via_stopwatch(self):
        assert not _lint(self.GOOD, "repro/eplace/fake.py", "RPR001")

    def test_obs_package_is_excluded(self):
        assert not _lint(self.BAD, "repro/obs/fake.py", "RPR001")


class TestPlantedReads:
    """A nondeterministic read hidden in a private helper.

    The helper is reached from a public function of a legalize module;
    the per-module rules flag the read itself, so no caller of the
    helper can launder it.
    """

    CLOCK = """
        import time

        def separation_constraints(placement):
            return _stamp(placement)

        def _stamp(placement):
            return time.time(), placement
    """

    RNG = """
        import random

        def separation_constraints(placement):
            return _jitter(placement)

        def _jitter(placement):
            return random.random(), placement
    """

    def test_clock_read_in_private_helper(self):
        findings = lint_source(
            textwrap.dedent(self.CLOCK), "repro/legalize/pairs.py")
        assert [(f.rule, f.line) for f in findings] == [("RPR001", 8)]
        assert "time.time" in findings[0].message

    def test_rng_call_in_private_helper(self):
        findings = lint_source(
            textwrap.dedent(self.RNG), "repro/legalize/pairs.py")
        assert [(f.rule, f.line) for f in findings] == [("RPR002", 8)]
        assert "random.random" in findings[0].message

    def test_planted_read_respects_line_suppression(self):
        src = self.CLOCK.replace(
            "time.time(), placement",
            "time.time(), placement  # repro-lint: disable=RPR001",
        )
        assert lint_source(
            textwrap.dedent(src), "repro/legalize/pairs.py") == []


class TestUnseededRngRPR002:
    def test_flags_legacy_global_numpy_rng(self):
        src = """
            import numpy as np

            def jitter(n):
                return np.random.rand(n)
        """
        findings = _lint(src, "repro/annealing/fake.py", "RPR002")
        assert _rule_ids(findings) == {"RPR002"}
        assert "numpy.random.rand" in findings[0].message

    def test_flags_unseeded_default_rng(self):
        src = """
            import numpy as np

            def jitter(n):
                rng = np.random.default_rng()
                return rng.random(n)
        """
        findings = _lint(src, "repro/annealing/fake.py", "RPR002")
        assert _rule_ids(findings) == {"RPR002"}
        assert "seed" in findings[0].message

    def test_flags_module_level_rng(self):
        src = """
            import numpy as np

            RNG = np.random.default_rng(7)
        """
        findings = _lint(src, "repro/annealing/fake.py", "RPR002")
        assert _rule_ids(findings) == {"RPR002"}
        assert "module level" in findings[0].message

    def test_clean_seeded_rng_inside_function(self):
        src = """
            import numpy as np

            def jitter(n, seed):
                rng = np.random.default_rng(seed)
                return rng.random(n)
        """
        assert not _lint(src, "repro/annealing/fake.py", "RPR002")


class TestSetIterationRPR003:
    def test_flags_for_over_set_literal(self):
        src = """
            def walk():
                out = []
                for name in {"a", "b"}:
                    out.append(name)
                return out
        """
        findings = _lint(src, "repro/netlist/fake.py", "RPR003")
        assert _rule_ids(findings) == {"RPR003"}

    def test_flags_list_of_assigned_set(self):
        src = """
            def walk(names):
                pending = set(names)
                return list(pending)
        """
        findings = _lint(src, "repro/netlist/fake.py", "RPR003")
        assert _rule_ids(findings) == {"RPR003"}

    def test_flags_comprehension_over_set(self):
        src = """
            def walk(names):
                return [n.upper() for n in set(names)]
        """
        findings = _lint(src, "repro/netlist/fake.py", "RPR003")
        assert _rule_ids(findings) == {"RPR003"}

    def test_clean_sorted_iteration(self):
        src = """
            def walk(names):
                pending = set(names)
                return [n for n in sorted(pending)]
        """
        assert not _lint(src, "repro/netlist/fake.py", "RPR003")


class TestUnclippedExpLogRPR101:
    def test_flags_bare_np_exp(self):
        src = """
            import numpy as np

            def kernel(x, gamma):
                return np.exp(x / gamma)
        """
        findings = _lint(src, "repro/analytic/fake.py", "RPR101")
        assert _rule_ids(findings) == {"RPR101"}
        assert "overflow" in findings[0].message

    def test_flags_bare_np_log(self):
        src = """
            import numpy as np

            def kernel(s):
                return np.log(s.sum())
        """
        findings = _lint(src, "repro/analytic/fake.py", "RPR101")
        assert _rule_ids(findings) == {"RPR101"}

    def test_clean_clipped_argument(self):
        src = """
            import numpy as np

            def kernel(x, gamma):
                return np.exp(np.clip(x / gamma, -60.0, 60.0))
        """
        assert not _lint(src, "repro/analytic/fake.py", "RPR101")

    def test_clean_clip_through_assignment(self):
        src = """
            import numpy as np

            def kernel(x, gamma):
                shifted = np.minimum((x - x.max()) / gamma, 0.0)
                return np.exp(shifted)
        """
        assert not _lint(src, "repro/analytic/fake.py", "RPR101")

    def test_outside_analytic_scope_not_checked(self):
        src = """
            import numpy as np

            def kernel(x):
                return np.exp(x)
        """
        assert not _lint(src, "repro/eplace/fake.py", "RPR101")


class TestBareDivisionRPR102:
    def test_flags_unguarded_sum_denominator(self):
        src = """
            def grad(a, w):
                return a / w.sum()
        """
        findings = _lint(src, "repro/analytic/fake.py", "RPR102")
        assert _rule_ids(findings) == {"RPR102"}
        assert "epsilon" in findings[0].message

    def test_flags_unguarded_subscript_denominator(self):
        src = """
            def grad(a, sums, seg):
                return a / sums[seg]
        """
        findings = _lint(src, "repro/analytic/fake.py", "RPR102")
        assert _rule_ids(findings) == {"RPR102"}

    def test_clean_maximum_guard(self):
        src = """
            import numpy as np

            def grad(a, w):
                return a / np.maximum(w.sum(), 1e-30)
        """
        assert not _lint(src, "repro/analytic/fake.py", "RPR102")

    def test_clean_comparison_guard(self):
        src = """
            def grad(a, w):
                den = w.sum()
                if den <= 0.0:
                    return a * 0.0
                return a / den
        """
        assert not _lint(src, "repro/analytic/fake.py", "RPR102")

    def test_clean_safe_div_helper(self):
        src = """
            from repro.analytic.stable import safe_div

            def grad(a, w):
                return safe_div(a, w.sum())
        """
        assert not _lint(src, "repro/analytic/fake.py", "RPR102")


class TestSpanContractRPR201:
    BAD = """
        from repro.placement import PlacerResult

        def place(circuit) -> PlacerResult:
            return _solve(circuit)

        def _solve(circuit):
            return PlacerResult()
    """

    GOOD = """
        from repro.obs import trace
        from repro.placement import PlacerResult

        def place(circuit) -> PlacerResult:
            with trace.span("engine.place"):
                return _solve(circuit)

        def _solve(circuit):
            return PlacerResult()
    """

    def test_flags_entry_point_without_span(self):
        findings = _lint(self.BAD, "repro/eplace/fake.py", "RPR201")
        assert _rule_ids(findings) == {"RPR201"}
        assert "span" in findings[0].message

    def test_clean_direct_span(self):
        assert not _lint(self.GOOD, "repro/eplace/fake.py", "RPR201")

    def test_clean_span_via_same_module_callee(self):
        src = """
            from repro.obs import trace
            from repro.placement import PlacerResult

            def place(circuit) -> "PlacerResult":
                return _solve(circuit)

            def _solve(circuit):
                with trace.span("engine.solve"):
                    return PlacerResult()
        """
        assert not _lint(src, "repro/legalize/fake.py", "RPR201")

    def test_non_engine_scope_not_checked(self):
        assert not _lint(self.BAD, "repro/parasitics/fake.py", "RPR201")


class TestNoPrintRPR202:
    def test_flags_print(self):
        src = """
            def solve(model):
                print("status", model)
                return model
        """
        findings = _lint(src, "repro/legalize/fake.py", "RPR202")
        assert _rule_ids(findings) == {"RPR202"}

    def test_clean_logger(self):
        src = """
            from repro.obs.log import get_logger

            logger = get_logger(__name__)

            def solve(model):
                logger.debug("status %s", model)
                return model
        """
        assert not _lint(src, "repro/legalize/fake.py", "RPR202")


class TestApiHygieneRPR301:
    def test_flags_missing_annotations_and_docstring(self):
        src = """
            def place(circuit, method="eplace-a"):
                return circuit
        """
        findings = _lint(src, "repro/api.py", "RPR301")
        assert _rule_ids(findings) == {"RPR301"}
        messages = " ".join(f.message for f in findings)
        assert "type hints" in messages
        assert "docstring" in messages

    def test_flags_untyped_public_method(self):
        src = """
            class Placement:
                '''Coordinates.'''

                def shift(self, dx):
                    '''Move everything by dx.'''
                    return dx
        """
        findings = _lint(src, "repro/placement/fake.py", "RPR301")
        assert _rule_ids(findings) == {"RPR301"}
        assert "Placement.shift" in findings[0].message

    def test_clean_typed_documented_function(self):
        src = """
            def place(circuit: object, method: str = "eplace-a",
                      **kwargs: object) -> object:
                '''Run one placement flow.'''
                return circuit
        """
        assert not _lint(src, "repro/api.py", "RPR301")

    def test_private_names_exempt(self):
        src = """
            def _helper(x):
                return x
        """
        assert not _lint(src, "repro/api.py", "RPR301")


#: one failing fixture per registered rule: ``(scoped path, source)``
FAILING_FIXTURES = {
    "RPR001": ("repro/legalize/pairs.py", TestPlantedReads.CLOCK),
    "RPR002": ("repro/legalize/pairs.py", TestPlantedReads.RNG),
    "RPR003": ("repro/netlist/fake.py", """
        def walk(names):
            return list(set(names))
    """),
    "RPR101": ("repro/analytic/fake.py", """
        import numpy as np

        def kernel(x, gamma):
            return np.exp(x / gamma)
    """),
    "RPR102": ("repro/analytic/fake.py", """
        def grad(a, w):
            return a / w.sum()
    """),
    "RPR201": ("repro/eplace/fake.py", TestSpanContractRPR201.BAD),
    "RPR202": ("repro/legalize/fake.py", """
        def solve(model):
            print("status", model)
            return model
    """),
    "RPR301": ("repro/api.py", """
        def place(circuit, method="eplace-a"):
            return circuit
    """),
}


@pytest.mark.parametrize("rule_id", sorted(REGISTRY))
def test_rule_has_failing_fixture(rule_id):
    """Every registered rule fires, alone, on its failing fixture."""
    assert rule_id in FAILING_FIXTURES, f"{rule_id} has no fixture"
    rel, source = FAILING_FIXTURES[rule_id]
    findings = lint_source(textwrap.dedent(source), rel)
    assert _rule_ids(findings) == {rule_id}
