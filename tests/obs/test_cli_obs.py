"""CLI observability surface: --trace-out, --profile, -v, aliases."""

from __future__ import annotations

import json
import re

import pytest

from repro.annealing import SAParams
from repro.api import place
from repro.circuits import make
from repro.cli import main, resolve_circuit
from repro.obs import read_jsonl, tracing


def test_circuit_alias_normalisation():
    assert resolve_circuit("CM-OTA1") == "CM-OTA1"
    assert resolve_circuit("cmota1") == "CM-OTA1"
    assert resolve_circuit("cm_ota1") == "CM-OTA1"
    assert resolve_circuit("comp1") == "Comp1"
    with pytest.raises(SystemExit):
        resolve_circuit("nosuch")


def test_place_trace_out_and_profile(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    rc = main([
        "place", "--method", "annealing", "--circuit", "comp1",
        "--sa-iterations", "600", "--trace-out", str(out), "--profile",
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "runtime" in captured
    assert "total (sum of self)" in captured  # the --profile table
    records = [json.loads(line)
               for line in out.read_text().splitlines()]
    assert records[0]["type"] == "meta"
    assert records[0]["circuit"] == "Comp1"
    types = {r["type"] for r in records}
    assert {"meta", "span", "iteration"} <= types
    span_names = {r["name"] for r in records if r["type"] == "span"}
    assert "sa.place" in span_names and "sa.stage" in span_names


def test_place_metrics_out(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    rc = main([
        "place", "--method", "annealing", "--circuit", "comp1",
        "--sa-iterations", "600", "--metrics-out", str(out),
    ])
    assert rc == 0
    assert str(out) in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.obs.metrics/1"
    assert doc["method"] == "annealing"
    assert doc["circuit"] == "Comp1"
    assert doc["runtime_s"] > 0
    assert doc["quality"]["hpwl"] > 0
    assert "registry" in doc  # repro.obs metrics snapshot rides along


def test_place_positional_circuit_still_works(capsys):
    rc = main(["place", "comp1", "--method", "annealing",
               "--sa-iterations", "400"])
    assert rc == 0
    assert "method   : annealing" in capsys.readouterr().out


def test_place_seeds_fan_out(tmp_path, monkeypatch, capsys):
    runs = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
    rc = main([
        "place", "comp1", "--method", "annealing",
        "--sa-iterations", "400", "--seeds", "1,2,3", "--jobs", "2",
        "--save-run",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {int(m.group(1)): float(m.group(2)) for m in (
        re.match(r"seed\s+(\d+): hpwl (\S+)", line) for line in lines
    ) if m}
    assert sorted(rows) == [1, 2, 3]
    (hpwl,) = [line.split()[2] for line in lines
               if line.startswith("hpwl     :")]
    assert float(hpwl) == min(rows.values())
    (run_dir,) = [p for p in runs.iterdir() if p.is_dir()]
    config = json.loads((run_dir / "manifest.json").read_text())["config"]
    assert set(config) == {"circuit", "method", "seed", "seeds", "jobs",
                           "sa_iterations"}
    assert config["seeds"] == [1, 2, 3]
    # the run's trace holds every seed's records, in seed order
    _, saved = read_jsonl(run_dir / "trace.jsonl")
    expected = []
    for seed in (1, 2, 3):
        with tracing():
            result = place(make("Comp1"), "annealing",
                           params=SAParams(iterations=400, seed=seed))
        expected.extend(result.trace.convergence)
    assert saved.convergence == expected


def test_place_rejects_removed_racing_flag():
    with pytest.raises(SystemExit) as exc:
        main(["place", "comp1", "--seeds", "1,2", "--racing"])
    assert exc.value.code == 2


def test_serve_subcommand_removed():
    with pytest.raises(SystemExit) as exc:
        main(["serve"])
    assert exc.value.code == 2


def test_place_requires_a_circuit():
    with pytest.raises(SystemExit):
        main(["place", "--method", "annealing"])


def test_list_runs(capsys):
    assert main(["list"]) == 0
    assert "Comp1" in capsys.readouterr().out


def test_verbose_flag_configures_logging():
    import logging

    root = logging.getLogger("repro")
    saved = (list(root.handlers), root.level, root.propagate)
    try:
        main(["-v", "list"])
        assert root.level == logging.INFO
    finally:
        root.handlers, root.level, root.propagate = saved
