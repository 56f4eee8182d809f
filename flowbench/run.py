"""flowbench: whole-flow benchmark of the paper's placement flows.

Usage (from the repository root)::

    python3 flowbench/run.py [--workload NAME] [--seed S] [--seconds T]
                             [--trace 0|1] [--out FILE]

Each workload runs in fresh worker processes, one after another:
set-up is timed in ``SETUP_SAMPLES`` fresh processes and reported as
the median; the last one goes on to the timed passes and, with
``--trace 1``, the traced passes.  Prints every metric by name with its
unit, each failing placement, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Exits 1 when any placement is wrong, 2 when the
checkout holds no program to measure.

Metric names, units and directions are defined in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

#: fresh processes whose set-up time is measured; the last one measures
SETUP_SAMPLES = 3

#: wall-clock limit for one workload, all of its processes included
WORKLOAD_TIMEOUT_S = 170.0

#: one thread per process: the only parallelism is the fan-out workload
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


def _monotonic() -> float:
    # system-wide on Linux, so comparable with the worker's READY stamp
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker; returns (set-up seconds, its stdout).

    The worker leads its own process group, so stopping it early also
    stops the fan-out processes it started.
    """
    spawned = _monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
        text=True, env=_worker_env(), cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - _monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"worker {args} did not finish within {WORKLOAD_TIMEOUT_S} s"
        ) from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    ready = [line for line in out.splitlines() if line.startswith("READY ")]
    if not ready:
        raise BenchError(f"worker {args} never finished set-up")
    return float(ready[0].split()[1]) - spawned, out


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spans: str | None) -> dict:
    """Set up ``SETUP_SAMPLES`` times, then measure; returns the report."""
    deadline = _monotonic() + WORKLOAD_TIMEOUT_S
    base = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        setup_s, _ = _spawn(base + ["--setup-only"], deadline)
        samples.append(setup_s)
    setup_s, out = _spawn(base + (["--spans", spans] if spans else []),
                          deadline)
    samples.append(setup_s)
    result = json.loads(out.splitlines()[-1])

    end_to_end = {"setup_s": {
        "value": statistics.median(samples), "stat": "median",
        "n": len(samples), "min": min(samples), "max": max(samples)}}
    end_to_end.update(result["end_to_end"])
    per_layer = result["per_layer"]
    if per_layer is not None:
        # training happens in the measuring worker's set-up
        per_layer["gnn.train_frac"] = result["train_s"] / samples[-1]
    return {
        "seed": seed,
        "passes": result["passes"],
        "calls_per_pass": result["calls"],
        "setup_samples": samples,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "failures": result["failures"],
    }


def _with_units(values: dict, declared: list[dict], kind: str) -> dict:
    """Attach BENCHMARK.json units; the names must match exactly."""
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise BenchError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"missing {sorted(names - set(values))}, "
            f"undeclared {sorted(set(values) - names)}")
    out = {}
    for metric in declared:
        value = values[metric["name"]]
        entry = dict(value) if isinstance(value, dict) else {"value": value}
        out[metric["name"]] = dict(entry, unit=metric["unit"])
    return out


def _print_report(name: str, report: dict) -> None:
    print(f"== {name}  seed {report['seed']}: {report['passes']} passes of "
          f"{report['calls_per_pass']} calls, set-up x"
          f"{len(report['setup_samples'])}")
    for section in ("end_to_end", "per_layer"):
        for metric, entry in (report[section] or {}).items():
            line = f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}"
            if "stat" in entry:
                line += f"   {entry['stat']} of n={entry['n']}"
            if "min" in entry:
                line += f", range {entry['min']:.4g}..{entry['max']:.4g}"
            print(line)
    for failure in report["failures"]:
        print(failure)
    print(f"  {report['attempted']} placements checked, "
          f"{report['failed']} failed (fail_frac "
          f"{report['failed'] / max(report['attempted'], 1):.3g})")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Whole-flow benchmark of the paper's placement flows.")
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="minimum measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds traced passes and reports the "
                        "per-layer metrics")
    parser.add_argument("--out", help="also write the full report (and, "
                        "with --trace 1, the spans) next to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"flowbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # build step, untimed: byte-compile so every set-up sample imports
    # from the same warm cache
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src"), str(BENCH_DIR)],
                   stdout=subprocess.DEVNULL, check=False)

    out = Path(args.out) if args.out else None
    reports = {}
    try:
        for name in [args.workload] if args.workload else workloads:
            spans = None
            if out is not None and args.trace:
                spans = str(out.with_name(f"{out.stem}.{name}.spans.jsonl"))
            report = run_workload(name, args.seed, args.seconds,
                                  args.trace, spans)
            report["end_to_end"] = _with_units(
                report["end_to_end"], spec["end_to_end"], "end-to-end")
            if report["per_layer"] is not None:
                report["per_layer"] = _with_units(
                    report["per_layer"], spec["per_layer"], "per-layer")
            _print_report(name, report)
            reports[name] = report
    except BenchError as exc:
        print(f"flowbench: {exc}", file=sys.stderr)
        return 1

    if out is not None:
        out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "workloads": reports},
            indent=1, sort_keys=True) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, report in reports.items():
        prefix = "" if args.workload else f"{name}/"
        for metric, entry in report[section].items():
            metrics[prefix + metric] = {"value": entry["value"],
                                        "unit": entry["unit"]}
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
