"""CLI behaviour, suppression comments, and the self-check.

The self-check is the satellite's acceptance criterion: the linter run
over the repository's own ``src`` tree must exit 0, i.e. the codebase
satisfies its own static-analysis contract.
"""

from __future__ import annotations

import json
import pathlib
import textwrap

import pytest

from repro.lint.cli import main
from repro.lint.core import lint_paths, lint_source

#: repository root (tests/lint/test_cli.py -> repo)
_REPO = pathlib.Path(__file__).resolve().parents[2]

_BAD_ENGINE = textwrap.dedent(
    """
    import time

    def run():
        print("starting")
        return time.perf_counter()
    """
)


@pytest.fixture
def bad_tree(tmp_path):
    """A throwaway tree whose one module violates RPR001 and RPR202."""
    pkg = tmp_path / "repro" / "eplace"
    pkg.mkdir(parents=True)
    target = pkg / "fake.py"
    target.write_text(_BAD_ENGINE)
    return tmp_path


class TestCli:
    def test_findings_exit_code_and_format(self, bad_tree, capsys):
        assert main([str(bad_tree)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "RPR202" in out
        # canonical path:line:col: RULE message lines
        assert "fake.py:6:12: RPR001" in out
        assert "2 findings" in out

    def test_select_restricts_rules(self, bad_tree, capsys):
        assert main([str(bad_tree), "--select", "RPR202"]) == 1
        out = capsys.readouterr().out
        assert "RPR202" in out
        assert "RPR001" not in out

    def test_ignore_drops_rules(self, bad_tree, capsys):
        assert main(
            [str(bad_tree), "--ignore", "RPR001,RPR202"]
        ) == 0
        assert "RPR" not in capsys.readouterr().out.replace(
            "repro.lint", ""
        )

    def test_unknown_rule_id_rejected(self, bad_tree):
        with pytest.raises(SystemExit, match="unknown rule id"):
            main([str(bad_tree), "--select", "RPR999"])

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR001", "RPR101", "RPR201", "RPR301"):
            assert rule_id in out

    def test_quiet_suppresses_summary(self, bad_tree, capsys):
        main([str(bad_tree), "--quiet"])
        assert "findings" not in capsys.readouterr().out

    def test_syntax_error_reported_not_raised(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "broken.py"
        bad.parent.mkdir()
        bad.write_text("def oops(:\n")
        assert main([str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestJsonFormat:
    def test_json_document_schema(self, bad_tree, capsys):
        assert main([str(bad_tree), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.lint.findings/2"
        assert doc["errors"] == []
        assert {f["rule"] for f in doc["findings"]} == {
            "RPR001", "RPR202"
        }
        for finding in doc["findings"]:
            assert set(finding) == {
                "rule", "path", "line", "col", "message"
            }
            assert finding["path"].endswith("fake.py")
            assert isinstance(finding["line"], int)

    def test_json_clean_run(self, tmp_path, capsys):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "ok.py").write_text("def _f(x):\n    return x\n")
        assert main([str(tmp_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"] == [] and doc["errors"] == []


class TestSuppression:
    def test_line_suppression(self):
        src = textwrap.dedent(
            """
            import time

            def run():
                return time.perf_counter()  # repro-lint: disable=RPR001
            """
        )
        assert not lint_source(src, "repro/eplace/fake.py")

    def test_line_suppression_is_rule_specific(self):
        src = textwrap.dedent(
            """
            import time

            def run():
                return time.perf_counter()  # repro-lint: disable=RPR202
            """
        )
        findings = lint_source(src, "repro/eplace/fake.py")
        assert {f.rule for f in findings} == {"RPR001"}

    def test_file_suppression(self):
        src = textwrap.dedent(
            """
            # repro-lint: disable-file=RPR001
            import time

            def run():
                return time.perf_counter()
            """
        )
        assert not lint_source(src, "repro/eplace/fake.py")

    def test_disable_all(self):
        src = textwrap.dedent(
            """
            import time

            def run():
                print("x")
                return time.perf_counter()  # repro-lint: disable=all
            """
        )
        findings = lint_source(src, "repro/eplace/fake.py")
        assert {f.rule for f in findings} == {"RPR202"}


class TestSelfCheck:
    def test_src_tree_is_clean(self):
        findings, errors = lint_paths([_REPO / "src"])
        assert errors == []
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_self_check_exits_zero(self, capsys):
        assert main([str(_REPO / "src")]) == 0
        assert "0 findings" in capsys.readouterr().out
