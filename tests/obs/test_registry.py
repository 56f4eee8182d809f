"""Run registry: directories, manifests, CLI list/show/compare/gc."""

from __future__ import annotations

import json
import resource
import shutil
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import trace
from repro.obs.registry import (
    DEFAULT_ROOT,
    RegistryError,
    RunRegistry,
)


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(tmp_path / "runs")


class TestRegistryCore:
    def test_create_writes_running_manifest(self, registry):
        writer = registry.create("place", "Comp1:annealing",
                                 config={"seed": 3})
        manifest_path = writer.path / "manifest.json"
        assert manifest_path.is_file()
        doc = json.loads(manifest_path.read_text())
        assert doc["schema"] == "repro.run/2"
        assert doc["status"] == "running"  # crash-visible
        assert doc["kind"] == "place"
        assert doc["config"] == {"seed": 3}
        assert doc["run_id"] == writer.run_id

    def test_finalize_flushes_metrics(self, registry):
        writer = registry.create("place", "x")
        writer.finalize(metrics={"hpwl": 2.0, "note": "text"})
        (run,) = registry.list_runs()
        assert run.status == "complete"
        # only numeric metrics summarise into the manifest
        assert run.metrics["hpwl"] == 2.0
        assert "note" not in run.metrics
        doc = json.loads((writer.path / "metrics.json").read_text())
        assert doc["note"] == "text"
        assert not (writer.path / "events.jsonl").exists()

    def test_write_trace_emits_convergence_series(self, registry):
        with trace.tracing() as tracer:
            with trace.span("engine"):
                for i in range(3):
                    tracer.record("engine.loop", i, hpwl=float(10 - i))
        writer = registry.create("place", "x")
        count = writer.write_trace(tracer.to_trace(), method="test")
        assert count > 0
        doc = json.loads(
            (writer.path / "convergence.json").read_text()
        )
        series = doc["phases"]["engine.loop"]
        assert series["iterations"] == [0, 1, 2]
        assert series["values"]["hpwl"] == [10.0, 9.0, 8.0]

    def test_same_config_same_fingerprint(self, registry):
        a = registry.create("place", "x", config={"seed": 1})
        b = registry.create("place", "x", config={"seed": 1})
        c = registry.create("place", "x", config={"seed": 2})
        fp = lambda w: w.run_id.rsplit("-", 1)[1].split(".")[0]  # noqa: E731
        assert fp(a) == fp(b)
        assert fp(a) != fp(c)
        assert a.run_id != b.run_id  # disambiguated directories

    def test_resolve_exact_prefix_latest_and_errors(self, registry):
        with pytest.raises(RegistryError):
            registry.resolve("latest")  # empty registry
        first = registry.create("place", "x", config={"seed": 1})
        first.finalize()
        second = registry.create("bench", "y", config={"seed": 2})
        second.finalize()
        assert registry.resolve("latest").run_id == second.run_id
        assert registry.resolve(first.run_id).run_id == first.run_id
        with pytest.raises(RegistryError):
            registry.resolve("nosuchrun")
        with pytest.raises(RegistryError):
            registry.resolve("2")  # ambiguous prefix (both stamps)

    def test_gc_keeps_newest(self, registry):
        ids = []
        for seed in range(4):
            writer = registry.create("place", "x",
                                     config={"seed": seed})
            writer.finalize()
            ids.append(writer.run_id)
        would = registry.gc(keep=2, dry_run=True)
        assert [r.run_id for r in would] == ids[:2]
        assert len(registry.list_runs()) == 4  # dry run: untouched
        deleted = registry.gc(keep=2)
        assert [r.run_id for r in deleted] == ids[:2]
        assert [r.run_id for r in registry.list_runs()] == ids[2:]

    def test_env_root_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "custom"))
        assert RunRegistry().root == tmp_path / "custom"
        monkeypatch.delenv("REPRO_RUNS_DIR")
        assert str(RunRegistry().root) == DEFAULT_ROOT

    def test_write_trace_stores_diagnosis(self, registry):
        with trace.tracing() as tracer:
            for i in range(10):
                tracer.record("engine.loop", i,
                              best_cost=float(10 - i))
        writer = registry.create("place", "x")
        writer.write_trace(tracer.to_trace(), method="test")
        writer.finalize()
        (run,) = registry.list_runs()
        doc = run.manifest["diagnosis"]
        assert doc["schema"] == "repro.diagnosis/1"
        assert doc["verdict"] == "converged"
        assert "engine.loop" in doc["phases"]

    def test_finalize_merges_resource_summary(self, registry):
        writer = registry.create("place", "x")
        writer.finalize(metrics={"hpwl": 2.0})
        (run,) = registry.list_runs()
        assert run.metrics["hpwl"] == 2.0
        # getrusage: a lifetime peak of this process, in KiB
        own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert run.metrics["peak_rss_kib"] >= own_peak > 0
        assert run.metrics["mean_cpu"] >= 0.0

    def test_v1_manifest_still_loads(self, registry):
        """``repro.run/1`` directories (no diagnosis/resource keys)
        keep listing, resolving and comparing."""
        path = registry.root / "20250101-000000-deadbeef"
        path.mkdir(parents=True)
        (path / "manifest.json").write_text(json.dumps({
            "schema": "repro.run/1",
            "run_id": path.name,
            "kind": "place",
            "label": "old:annealing",
            "config": {"seed": 1},
            "status": "complete",
            "metrics": {"hpwl": 3.5},
        }))
        (run,) = registry.list_runs()
        assert run.status == "complete"
        assert run.metrics == {"hpwl": 3.5}
        assert registry.resolve("latest").run_id == path.name
        assert "diagnosis" not in run.manifest


class TestLegacyRaceEvents:
    """Run directories written by older versions may hold an
    ``events.jsonl`` with ``{"event": "race", ...}`` lines; nothing
    reads it, and the inspection commands still work."""

    @pytest.fixture
    def legacy_run(self, registry):
        writer = registry.create("place", "old:annealing")
        writer.finalize()
        records = [
            {"event": "progress", "phase": "sa.stage", "iteration": 0,
             "values": {"best_cost": 2.0}, "source": 0},
            {"event": "race", "action": "kill", "seed": 2, "task": 1,
             "iteration": 3, "value": 2.0, "best": 1.0,
             "landed": True, "source": None},
        ]
        (writer.path / "events.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        # no stored verdicts and no trace: nothing to diagnose from
        manifest_path = writer.path / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc.pop("diagnosis", None)
        manifest_path.write_text(json.dumps(doc))
        return writer.path

    def test_show_and_doctor_exit_normally(self, registry, legacy_run,
                                           capsys):
        root = str(registry.root)
        assert main(["runs", "--root", root, "show", "latest"]) == 0
        assert "file     : events.jsonl" in capsys.readouterr().out
        assert main(["runs", "--root", root, "doctor", "latest"]) == 0
        assert "insufficient-data" in capsys.readouterr().out


#: a committed ``repro.run/1`` run directory from before the trace was
#: the one telemetry channel: its ``events.jsonl`` holds resource
#: samples and a ``race`` line
OLD_RUNS = Path(__file__).parent / "data" / "runs_v1"


class TestRunLayouts:
    """The inspection commands work on an old-layout run and on a
    fresh ``place --save-run`` run alike."""

    @pytest.fixture
    def runs(self, tmp_path, monkeypatch, capsys):
        """(root, old run id, fresh run id) under a temp registry."""
        root = tmp_path / "runs"
        shutil.copytree(OLD_RUNS, root)
        (old,) = [p.name for p in root.iterdir()]
        monkeypatch.setenv("REPRO_RUNS_DIR", str(root))
        assert main([
            "place", "comp1", "--method", "annealing",
            "--sa-iterations", "800", "--seed", "1", "--save-run",
        ]) == 0
        (fresh,) = [p.name for p in root.iterdir() if p.name != old]
        capsys.readouterr()
        return root, old, fresh

    def test_show_doctor_report_compare(self, runs, capsys):
        root, old, fresh = runs
        assert (root / old / "events.jsonl").is_file()
        assert not (root / fresh / "events.jsonl").exists()
        for run in (old, fresh):
            assert main(["runs", "show", run]) == 0
            assert "sa.stage" in capsys.readouterr().out
            assert main(["runs", "doctor", run]) == 0
            assert "verdict  : converged" in capsys.readouterr().out
            out = root / f"{run}.html"
            assert main(["runs", "report", run, "--out", str(out)]) == 0
            assert "sa.stage" in out.read_text()
        assert main(["runs", "compare", old, fresh, "--health"]) == 0
        compared = capsys.readouterr().out
        assert "hpwl" in compared and "peak_rss_kib" in compared
        assert "sa.stage" in compared

    def test_save_run_starts_no_thread(self, tmp_path, monkeypatch,
                                       capsys):
        def refuse(self):
            raise AssertionError(f"thread {self.name!r} started")

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main([
            "place", "comp1", "--method", "annealing",
            "--sa-iterations", "400", "--save-run",
        ]) == 0
        assert "run      :" in capsys.readouterr().out


class TestRunsCli:
    @pytest.fixture
    def recorded(self, tmp_path, monkeypatch):
        """Two real --save-run place runs under a temp registry."""
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        for seed in ("3", "7"):
            rc = main([
                "place", "comp1", "--method", "annealing",
                "--sa-iterations", "1000", "--seed", seed,
                "--save-run",
            ])
            assert rc == 0
        return tmp_path / "runs"

    def test_save_run_records_artifacts(self, recorded, capsys):
        capsys.readouterr()
        runs = sorted(p for p in recorded.iterdir() if p.is_dir())
        assert len(runs) == 2
        for run in runs:
            names = {p.name for p in run.iterdir()}
            assert names == {"manifest.json", "trace.jsonl",
                             "metrics.json", "convergence.json"}

    def test_list_show_compare_gc(self, recorded, capsys):
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        listing = capsys.readouterr().out
        assert listing.count("Comp1:annealing") == 2
        assert "hpwl=" in listing

        assert main(["runs", "show", "latest"]) == 0
        shown = capsys.readouterr().out
        assert "status   : complete" in shown
        assert "sa.stage" in shown
        assert "peak_rss_kib" in shown

        base = sorted(p.name for p in recorded.iterdir())[0]
        assert main(["runs", "compare", base, "latest"]) == 0
        compared = capsys.readouterr().out
        assert "hpwl" in compared and "delta" in compared

        assert main(["runs", "gc", "--keep", "1", "--dry-run"]) == 0
        assert len(list(recorded.iterdir())) == 2
        assert main(["runs", "gc", "--keep", "1"]) == 0
        assert len(list(recorded.iterdir())) == 1

    def test_unknown_run_exits_2(self, recorded, capsys):
        capsys.readouterr()
        assert main(["runs", "show", "nosuchrun"]) == 2
        assert "error" in capsys.readouterr().err

    def test_explicit_root_flag(self, recorded, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_RUNS_DIR")
        capsys.readouterr()
        assert main(["runs", "--root", str(recorded), "list"]) == 0
        assert "Comp1:annealing" in capsys.readouterr().out


def _record_synthetic_run(root, values, label="synthetic"):
    """One registry run whose convergence series is ``values``."""
    registry = RunRegistry(root)
    with trace.tracing() as tracer:
        for i, v in enumerate(values):
            tracer.record("engine.loop", i, best_cost=float(v))
    writer = registry.create("place", label)
    writer.write_trace(tracer.to_trace(), method="test")
    writer.finalize(metrics={"best_cost": float(values[-1])})
    return writer


class TestDoctorCli:
    def test_healthy_run_exits_0(self, tmp_path, capsys):
        _record_synthetic_run(
            tmp_path, [100.0 / (i + 1) for i in range(30)]
        )
        assert main(["runs", "--root", str(tmp_path),
                     "doctor", "latest"]) == 0
        out = capsys.readouterr().out
        assert "verdict  : converged" in out
        assert "engine.loop" in out

    def test_diverging_run_exits_1(self, tmp_path, capsys):
        _record_synthetic_run(
            tmp_path, [10.0 + 2.0 * i for i in range(30)]
        )
        assert main(["runs", "--root", str(tmp_path),
                     "doctor", "latest"]) == 1
        out = capsys.readouterr().out
        assert "verdict  : diverging" in out

    def test_run_without_trace_is_insufficient(self, tmp_path,
                                               capsys):
        writer = RunRegistry(tmp_path).create("place", "bare")
        writer.finalize()
        assert main(["runs", "--root", str(tmp_path),
                     "doctor", "latest"]) == 0
        assert "insufficient-data" in capsys.readouterr().out

    def test_v1_run_recomputes_from_trace(self, tmp_path, capsys):
        # strip the stored verdicts: doctor must fall back to the
        # trace.jsonl recompute path used for repro.run/1 directories
        writer = _record_synthetic_run(
            tmp_path, [10.0 + 2.0 * i for i in range(30)]
        )
        manifest_path = writer.path / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        del doc["diagnosis"]
        doc["schema"] = "repro.run/1"
        manifest_path.write_text(json.dumps(doc))
        assert main(["runs", "--root", str(tmp_path),
                     "doctor", "latest"]) == 1
        assert "diverging" in capsys.readouterr().out

    def test_doctor_real_smoke_run(self, tmp_path, monkeypatch,
                                   capsys):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main([
            "place", "comp1", "--method", "annealing",
            "--sa-iterations", "1500", "--seed", "1", "--save-run",
        ]) == 0
        capsys.readouterr()
        assert main(["runs", "doctor", "latest"]) == 0
        out = capsys.readouterr().out
        assert "verdict  : converged" in out
        assert "sa.stage" in out


class TestReportCli:
    def test_report_writes_selfcontained_html(self, tmp_path,
                                              capsys):
        writer = _record_synthetic_run(
            tmp_path, [100.0 / (i + 1) for i in range(30)]
        )
        assert main(["runs", "--root", str(tmp_path),
                     "report", "latest"]) == 0
        out_path = writer.path / "report.html"
        assert out_path.is_file()
        html = out_path.read_text()
        assert len(html) > 0
        assert "<html" in html
        assert "engine.loop" in html
        # self-contained: no external asset references
        assert "http://" not in html and "https://" not in html

    def test_report_out_flag(self, tmp_path, capsys):
        _record_synthetic_run(
            tmp_path, [3.0, 2.0, 1.0]
        )
        target = tmp_path / "custom.html"
        assert main(["runs", "--root", str(tmp_path),
                     "report", "latest", "--out",
                     str(target)]) == 0
        assert target.is_file()
        assert "<html" in target.read_text()


class TestCompareHealthCli:
    def test_health_rows_and_mismatch_marker(self, tmp_path, capsys):
        good = _record_synthetic_run(
            tmp_path, [100.0 / (i + 1) for i in range(30)],
            label="good",
        )
        bad = _record_synthetic_run(
            tmp_path, [10.0 + 2.0 * i for i in range(30)],
            label="bad",
        )
        assert main(["runs", "--root", str(tmp_path), "compare",
                     good.run_id, bad.run_id, "--health"]) == 0
        out = capsys.readouterr().out
        assert "health" in out
        assert "converged" in out and "diverging" in out
        assert "*" in out  # the verdicts differ

    def test_matching_verdicts_have_no_marker(self, tmp_path,
                                              capsys):
        a = _record_synthetic_run(tmp_path, [3.0, 2.0, 1.0],
                                  label="a")
        b = _record_synthetic_run(tmp_path, [6.0, 4.0, 2.0],
                                  label="b")
        assert main(["runs", "--root", str(tmp_path), "compare",
                     a.run_id, b.run_id, "--health"]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "*" not in out
