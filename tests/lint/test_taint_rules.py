"""Failing and clean fixtures for the whole-program rules.

RPR004/RPR005 (interprocedural determinism taint) go through
:func:`repro.lint.core.lint_sources`, which runs the full pipeline —
per-module rules, summary extraction, graph binding — over a dict of
synthetic modules, so cross-module chains are exercised exactly as
`python -m repro.lint src` would see them.
"""

from __future__ import annotations

import textwrap

from repro.lint.core import lint_sources


def _lint(sources: dict[str, str], rule: str) -> list:
    return lint_sources(
        {
            rel: textwrap.dedent(src)
            for rel, src in sources.items()
        },
        select=[rule],
    )


class TestWallClockTaintRPR004:
    BAD = {
        "repro/eplace/entry.py": """
            from repro.eplace import util

            def place(circuit):
                return util._stamp(circuit)
        """,
        "repro/eplace/util.py": """
            import time

            def _stamp(circuit):
                return time.time(), circuit
        """,
    }

    def test_flags_public_entry_with_chain(self):
        findings = _lint(self.BAD, "RPR004")
        assert [f.rule for f in findings] == ["RPR004"]
        finding = findings[0]
        assert finding.path == "repro/eplace/entry.py"
        assert "repro.eplace.entry.place" in finding.message
        assert finding.chain
        assert finding.chain[-1] == "wall-clock read time.time()"
        assert any("util._stamp" in step for step in finding.chain)

    def test_public_intermediate_is_the_anchor(self):
        # when a *public* helper sits between the entry point and the
        # clock read, the helper is the nearest public ancestor and
        # gets the finding; the entry point above it stays clean
        sources = {
            "repro/eplace/entry.py": """
                from repro.eplace import util

                def place(circuit):
                    return util.stamp(circuit)
            """,
            "repro/eplace/util.py": """
                import time

                def stamp(circuit):
                    return _now(), circuit

                def _now():
                    return time.time()
            """,
        }
        findings = _lint(sources, "RPR004")
        assert [f.path for f in findings] == ["repro/eplace/util.py"]
        assert "repro.eplace.util.stamp" in findings[0].message

    def test_clean_when_clock_stays_in_obs(self):
        sources = {
            "repro/eplace/entry.py": """
                from repro.obs import timer

                def place(circuit):
                    return timer.elapsed(), circuit
            """,
            "repro/obs/timer.py": """
                import time

                def elapsed():
                    return time.perf_counter()
            """,
        }
        assert not _lint(sources, "RPR004")

    def test_nearest_public_ancestor_only(self):
        # two public hops: only the innermost public function on the
        # chain is flagged, not every public caller above it
        sources = {
            "repro/api.py": """
                from repro.eplace import entry

                def place(circuit):
                    return entry.place(circuit)
            """,
            "repro/eplace/entry.py": """
                import time

                def place(circuit):
                    return _stamp(circuit)

                def _stamp(circuit):
                    return time.time(), circuit
            """,
        }
        findings = _lint(sources, "RPR004")
        assert [f.path for f in findings] == ["repro/eplace/entry.py"]


class TestRngTaintRPR005:
    def test_flags_laundered_unseeded_rng(self):
        sources = {
            "repro/annealing/entry.py": """
                from repro.annealing import noise

                def anneal(circuit):
                    return noise.jitter(circuit)
            """,
            "repro/annealing/noise.py": """
                import numpy as np

                def jitter(circuit):
                    return _rng().random(), circuit

                def _rng():
                    return np.random.default_rng()
            """,
        }
        findings = _lint(sources, "RPR005")
        assert findings
        assert findings[0].rule == "RPR005"
        assert findings[0].chain

    def test_clean_seeded_rng_chain(self):
        sources = {
            "repro/annealing/entry.py": """
                from repro.annealing import noise

                def anneal(circuit, seed):
                    return noise.jitter(circuit, seed)
            """,
            "repro/annealing/noise.py": """
                import numpy as np

                def jitter(circuit, seed):
                    return np.random.default_rng(seed).random(), circuit
            """,
        }
        assert not _lint(sources, "RPR005")


class TestSuppression:
    def test_graph_finding_respects_line_suppression(self):
        sources = {
            "repro/eplace/entry.py": """
                from repro.eplace import util

                def place(circuit):  # repro-lint: disable=RPR004
                    return util._stamp(circuit)
            """,
            "repro/eplace/util.py": """
                import time

                def _stamp(circuit):
                    return time.time(), circuit
            """,
        }
        assert _lint(sources, "RPR004") == []
