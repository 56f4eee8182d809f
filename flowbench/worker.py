"""One workload in one fresh process: set-up, timed and traced passes.

Started by ``run.py``, never by hand.  Prints ``READY <t>`` (``t`` on
the system-wide monotonic clock, so the parent can time set-up from the
moment it spawned this process), then, unless ``--setup-only``, one
JSON line with the measurements.

Passes repeat until ``--seconds`` have elapsed and at least
``MIN_PASSES`` are done; they run with tracing off and give the
end-to-end numbers.  With ``--trace 1``, ``MIN_PASSES`` more passes
run under the probes; the fastest gives the per-layer numbers, and all
of them the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import check
import probes
from repro.placement import bounding_area, hpwl
from repro.simulate import fom
from workloads import WORKLOADS

MIN_PASSES = 3


def _cpu_s() -> float:
    """User+sys CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus its largest child, in MiB."""
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def _gmean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


@dataclass
class Pass:
    """Wall time of one pass; wall and CPU time and outcome per call."""

    wall_s: float
    call_s: list[float]
    call_cpu_s: list[float]
    outcomes: list


def run_pass(workload: str, cases: list,
             rec: probes.Recorder | None = None) -> Pass:
    """Issue every call of the pass, one after another."""
    done = Pass(0.0, [], [], [])
    start = time.perf_counter()
    for case in cases:
        cpu0 = _cpu_s()
        began = time.perf_counter()
        try:
            if rec is None:
                outcome = case.call()
            else:
                seeds = "+".join(str(s) for s in case.seeds)
                with rec.span("flow", trace_id=(
                        f"{workload}/{case.circuit}/{case.engine}/{seeds}")):
                    outcome = case.call()
        except Exception as exc:  # a raising call is a counted failure
            traceback.print_exc()
            outcome = exc
        done.call_s.append(time.perf_counter() - began)
        done.call_cpu_s.append(_cpu_s() - cpu0)
        done.outcomes.append(outcome)
    done.wall_s = time.perf_counter() - start
    return done


def _check(gate: check.Gate, cases: list, done: Pass) -> None:
    for case, outcome in zip(cases, done.outcomes):
        if not isinstance(outcome, BaseException):
            outcome = [result.placement for result in outcome]
        gate.check(case.circuit, case.engine, case.seeds, outcome)


def _quality(first: Pass) -> dict[str, float]:
    """HPWL, area and FOM of pass 0's placements (all passes match)."""
    placements = [result.placement for outcome in first.outcomes
                  if not isinstance(outcome, BaseException)
                  for result in outcome]
    if not placements:  # every call raised; the gate reports why
        return dict.fromkeys(("hpwl.gmean", "area.gmean", "fom.mean"),
                             math.nan)
    return {
        "hpwl.gmean": _gmean([hpwl(p) for p in placements]),
        "area.gmean": _gmean([bounding_area(p) for p in placements]),
        "fom.mean": statistics.fmean(fom(p) for p in placements),
    }


def _per_call_best(passes: list[Pass], field: str) -> list[float]:
    return [min(getattr(p, field)[i] for p in passes)
            for i in range(len(passes[0].call_s))]


def end_to_end(passes: list[Pass], peak_rss_mib: float) -> dict:
    """End-to-end metrics of the untraced passes (``setup_s`` aside).

    The correctness gate proves that every pass repeats each call
    bit for bit, so the calls do identical work and the spread between
    passes is interference on the host, which only ever adds time.
    Timings are therefore built from each call's best time over the
    passes: ``pass_s`` and ``cpu_s`` sum them (the time to redo the
    pass), ``flow_s.gmean`` takes their geometric mean.  ``min`` and
    ``max`` give the fastest and slowest whole pass as measured.
    """
    wall = _per_call_best(passes, "call_s")
    walls = [p.wall_s for p in passes]
    best = {"stat": "best", "n": len(passes)}
    out = {
        "pass_s": dict(best, value=math.fsum(wall), min=min(walls),
                       max=max(walls)),
        "flow_s.gmean": dict(best, value=_gmean(wall)),
        "cpu_s": dict(best, value=math.fsum(
            _per_call_best(passes, "call_cpu_s"))),
        "peak_rss_mib": {"value": peak_rss_mib},
    }
    for name, value in _quality(passes[0]).items():
        out[name] = {"value": value}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the spans of the reported "
                        "traced pass to this JSONL file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup = WORKLOADS[args.workload](args.seed)
    print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r}",
          flush=True)
    if args.setup_only:
        return 0

    gate = check.Gate(args.workload)
    passes: list[Pass] = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < args.seconds):
        done = run_pass(args.workload, setup.cases)
        _check(gate, setup.cases, done)
        passes.append(done)
    result = {
        "passes": len(passes),
        "calls": len(setup.cases),
        "train_s": setup.train_s,
        "end_to_end": end_to_end(passes, _peak_rss_mib()),
        "per_layer": None,
    }

    if args.trace:
        traced: list[tuple[probes.Recorder, Pass]] = []
        for _ in range(MIN_PASSES):
            rec = probes.Recorder()
            with probes.installed(rec):
                done = run_pass(args.workload, setup.cases, rec)
            _check(gate, setup.cases, done)
            traced.append((rec, done))
        # the layers of the least disturbed traced pass
        rec, done = min(traced, key=lambda t: t[1].wall_s)
        for case, outcome, wall_s in zip(
                setup.cases, done.outcomes, done.call_s):
            if case.jobs > 1 and not isinstance(outcome, BaseException):
                rec.fanout(outcome, wall_s, case.jobs)
        layers = probes.summarize(rec, done.wall_s)
        # best of as many untraced passes, the ones just before
        layers["trace.overhead_frac"] = math.fsum(
            _per_call_best([d for _, d in traced], "call_s")) / math.fsum(
            _per_call_best(passes[-MIN_PASSES:], "call_s")) - 1.0
        result["per_layer"] = layers
        if args.spans:
            rec.write_jsonl(args.spans)

    result["attempted"] = gate.attempted
    result["failures"] = [str(f) for f in gate.failures]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
