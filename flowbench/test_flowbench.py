"""Self-tests of the benchmark.  Run from the repository root with

    python -m pytest flowbench -q

They live outside the repository's tier-1 suite (``testpaths``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))  # the program, from source

import check  # noqa: E402
import probes  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from repro.annealing import SAParams  # noqa: E402
from repro.api import place  # noqa: E402
from repro.circuits import make  # noqa: E402
from repro.legalize import DetailedParams  # noqa: E402
from repro.placement import Placement  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> set[str]:
    return {metric["name"] for metric in SPEC[section]}


def test_every_probe_restores_the_original_attribute() -> None:
    targets = [probes._owner(module, path)
               for module, path, _ in probes.PROBES]
    originals = [vars(owner)[attr] for owner, attr in targets]
    with pytest.raises(RuntimeError, match="inside"):
        with probes.installed(probes.Recorder()):
            for (owner, attr), original in zip(targets, originals):
                assert vars(owner)[attr] is not original
            raise RuntimeError("inside")
    for (owner, attr), original in zip(targets, originals):
        assert vars(owner)[attr] is original


def test_ilp_round_tags_match_the_rounds_run() -> None:
    params = DetailedParams()
    rec = probes.Recorder()
    with probes.installed(rec):
        place(make("Adder"), "eplace-a")
    solves = [s for s in rec.spans if s["name"] == "legalize.ilp.milp"]
    tags = Counter(s["attrs"]["round"] for s in solves)
    (iterate,) = [s for s in rec.spans
                  if s["name"] == "legalize.ilp.iterate"]
    (refine,) = [s for s in rec.spans if s["name"] == "legalize.ilp.refine"]
    assert tags["initial"] == 1
    assert tags["iterate"] == iterate["attrs"]["rounds"]
    assert 1 <= tags["iterate"] <= params.iterate_rounds
    assert tags["refine"] <= params.refine_rounds
    assert tags["refine"] == sum(
        1 for s in solves if s["parent"] == refine["id"])
    assert set(tags) <= set(probes.ILP_ROUNDS)
    for solve in solves:
        assert solve["attrs"]["status"] == 0
        assert solve["attrs"]["vars"] > 0 and solve["attrs"]["rows"] > 0
        assert solve["attrs"]["mip_node_count"] is not None


def _small_sa() -> list:
    return [place(make("Adder"), "annealing",
                  params=SAParams(iterations=500, polish_evals=50))]


def test_a_raising_case_counts_as_failed() -> None:
    def boom() -> list:
        raise RuntimeError("forced")

    cases = [workloads.Case("Adder", "annealing", (1,), _small_sa),
             workloads.Case("Adder", "eplace-a", (1,), boom)]
    gate = check.Gate("test")
    worker._check(gate, cases, worker.run_pass("test", cases))
    assert (gate.attempted, gate.failed) == (2, 1)
    assert gate.failures[0].engine == "eplace-a"
    assert "RuntimeError: forced" in gate.failures[0].reason


def test_a_result_that_changes_between_passes_counts_as_failed() -> None:
    (result,) = _small_sa()
    p = result.placement
    shifted = replace(result, placement=Placement(
        p.circuit, p.x + 1.0, p.y, p.flip_x, p.flip_y))
    outcomes = iter([[result], [shifted]])
    case = workloads.Case("Adder", "annealing", (1,),
                          lambda: next(outcomes))
    first = worker.run_pass("test", [case])
    second = worker.run_pass("test", [case])
    gate = check.Gate("test")
    worker._check(gate, [case], first)
    worker._check(gate, [case], second)
    assert (gate.attempted, gate.failed) == (2, 1)
    assert "nondeterministic" in gate.failures[0].reason


def test_seed_reaches_every_engine(monkeypatch: pytest.MonkeyPatch) -> None:
    seen: list[tuple[str, tuple[int, ...]]] = []

    def fake_place(circuit, method, gp_params=None, params=None,
                   dp_params=None):
        seen.append((method, ((gp_params or params).seed,)))
        return None

    def fake_multiseed(circuit, method, seeds, jobs):
        seen.append((method, tuple(seeds)))
        return []

    monkeypatch.setattr(workloads, "place", fake_place)
    monkeypatch.setattr(workloads, "place_multiseed", fake_multiseed)
    monkeypatch.setattr(workloads, "train_model_for",
                        lambda circuit, **kwargs: (None, None))
    monkeypatch.setattr(workloads, "place_perf_sa", lambda c, m, params: (
        seen.append(("perf-sa", (params.seed,)))))
    monkeypatch.setattr(workloads, "place_perf_xu", lambda c, m, gp_params,
                        alpha: seen.append(("perf-xu", (gp_params.seed,))))
    monkeypatch.setattr(workloads, "place_eplace_ap", lambda c, m,
                        gp_params, alpha: seen.append(
                            ("eplace-ap", (gp_params.seed,))))
    seed = 17
    for name, setup in workloads.WORKLOADS.items():
        cases = setup(seed).cases
        seen.clear()
        for case in cases:
            case.call()
        assert seen == [(case.engine, case.seeds) for case in cases], name
        assert all(case.seeds[0] == seed for case in cases), name


def test_workloads_match_benchmark_json() -> None:
    assert list(workloads.WORKLOADS) == [w["name"]
                                         for w in SPEC["workloads"]]


def test_printed_metric_names_match_benchmark_json(tmp_path: Path) -> None:
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "table3-eplace", "--seconds", "0", "--trace", "1",
         "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == _names("per_layer")
    report = json.loads(out.read_text())["workloads"]["table3-eplace"]
    assert set(report["end_to_end"]) == _names("end_to_end")
    for name, entry in report["end_to_end"].items():
        assert f"  {name} " in proc.stdout
        assert entry["value"] > 0, name
    spans = (tmp_path / "report.table3-eplace.spans.jsonl").read_text()
    records = [json.loads(line) for line in spans.splitlines()]
    assert {"flow", "eplace.gp", "legalize.ilp.milp"} <= {
        r["name"] for r in records}
    assert all(r["trace_id"].startswith("table3-eplace/") for r in records)


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "flowbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "flowbench/run.py", "--workload", "table3-eplace"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
