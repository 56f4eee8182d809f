"""Call-boundary probes for traced passes, and the per-layer summary.

:func:`installed` wraps the public call boundaries of each layer for the
duration of one pass and restores every patched attribute afterwards.
Each wrapper is installed where the caller looks the name up (a module
global, or a method on the class every flow instantiates), so the
program's own code is never edited.

Two kinds of probe record into one :class:`Recorder`:

* **spans** — GP, SA, detailed placement, ILP rounds, performance
  refinement and every MILP/LP solve become individual spans with a
  name, start, end, parent and trace id.  Solver spans also carry the
  HiGHS status, MIP gap, node count, variable and row counts and the
  time limit.
* **kernels** — hot calls (wirelength, density, penalties, optimizer
  steps, SA moves, GNN inference) are aggregated on the innermost open
  span as ``[calls, busy_s, self_s]``; ``self_s`` excludes nested
  kernels, so a family's busy time is the sum of its kernels' self time.

Spans stay in memory; :meth:`Recorder.write_jsonl` writes them at exit.
Spans recorded in forked workers stay in the workers, so a fan-out's
per-layer numbers come from the returned ``PlacerResult.stats``
(:meth:`Recorder.fanout`).
"""

from __future__ import annotations

import importlib
import json
import pickle
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_clock = time.perf_counter

#: round kinds a legalize.ilp MILP solve can be tagged with
ILP_ROUNDS = ("initial", "iterate", "refine")

#: spans that set the round tag of the MILP solves beneath them
_ROUND_OF_SPAN = {
    "legalize.ilp": "initial",
    "legalize.ilp.iterate": "iterate",
    "legalize.ilp.refine": "refine",
    "perf_driven.refine": "refine",
}


class Recorder:
    """Spans and kernel aggregates of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []      # finished, in end order
        self.root_kernels: dict[str, list] = {}
        self.fanouts: list[dict] = []
        self._open: list[dict] = []
        self._kernel_child: list[float] = []
        self._next_id = 0
        self._origin = _clock()

    @contextmanager
    def span(self, name: str, trace_id: str | None = None,
             **attrs: Any) -> Iterator[dict]:
        """Record one span; nested spans name it as their parent."""
        parent = self._open[-1] if self._open else None
        self._next_id += 1
        record = {
            "id": self._next_id,
            "parent": parent["id"] if parent else None,
            "trace_id": trace_id or (parent["trace_id"] if parent else ""),
            "name": name,
            "start": _clock() - self._origin,
            "end": None,
            "attrs": attrs,
            "kernels": {},
        }
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = _clock() - self._origin
            self._open.pop()
            self.spans.append(record)

    def add_kernel(self, name: str, busy: float, self_s: float) -> None:
        """Aggregate one kernel call on the innermost open span."""
        owner = self._open[-1]["kernels"] if self._open \
            else self.root_kernels
        entry = owner.get(name)
        if entry is None:
            owner[name] = [1, busy, self_s]
        else:
            entry[0] += 1
            entry[1] += busy
            entry[2] += self_s

    def ilp_round(self) -> str:
        """Round kind of a MILP solve issued now (innermost round span)."""
        for record in reversed(self._open):
            kind = _ROUND_OF_SPAN.get(record["name"])
            if kind is not None:
                return kind
        return "initial"

    def fanout(self, results: list, wall_s: float, jobs: int) -> None:
        """Record one fan-out call from its returned results.

        ``result_bytes`` is each result's pickled size, taken here,
        outside the timed call.
        """
        self.fanouts.append({
            "wall_s": wall_s,
            "jobs": jobs,
            "runtime_s": [r.runtime_s for r in results],
            "gp_s": [r.stats.get("gp_runtime_s", 0.0) for r in results],
            "dp_s": [r.stats.get("dp_runtime_s", 0.0) for r in results],
            "gp_iterations": [r.stats.get("gp", {}).get("iterations", 0)
                              for r in results],
            "ilp_vars": [r.stats.get("dp", {}).get("num_vars", 0)
                         for r in results],
            "ilp_rows": [r.stats.get("dp", {}).get("num_rows", 0)
                         for r in results],
            "iterate_rounds": [
                r.stats.get("dp", {}).get("iterate_rounds", 0)
                for r in results],
            "result_bytes": [len(pickle.dumps(r)) for r in results],
        })

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line, by start time."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# wrappers


def _spanned(name: str, on_result: Callable[[dict, Any], None] | None
             = None) -> Callable:
    def make(rec: Recorder, fn: Callable) -> Callable:
        def probe(*args: Any, **kwargs: Any) -> Any:
            with rec.span(name) as record:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(record, result)
                return result
        return probe
    return make


def _kernel(name: str) -> Callable:
    def make(rec: Recorder, fn: Callable) -> Callable:
        child = rec._kernel_child

        def probe(*args: Any, **kwargs: Any) -> Any:
            child.append(0.0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = _clock() - start
                nested = child.pop()
                if child:
                    child[-1] += busy
                rec.add_kernel(name, busy, busy - nested)
        return probe
    return make


def _solver(family: str) -> Callable:
    """A span per ``scipy.optimize.milp`` call, with HiGHS statistics.

    Both legalizers pass one ``LinearConstraint`` and a time limit.
    """
    def make(rec: Recorder, fn: Callable) -> Callable:
        def probe(c: Any, *args: Any, **kwargs: Any) -> Any:
            attrs: dict[str, Any] = {
                "vars": int(len(c)),
                "rows": int(kwargs["constraints"].A.shape[0]),
                "time_limit": kwargs["options"]["time_limit"],
            }
            if family == "ilp":
                attrs["round"] = rec.ilp_round()
            with rec.span(f"legalize.{family}.milp", **attrs) as record:
                result = fn(c, *args, **kwargs)
                record["attrs"]["status"] = int(result.status)
                for key in ("mip_gap", "mip_node_count"):
                    value = getattr(result, key, None)
                    record["attrs"][key] = (
                        None if value is None else float(value))
            return result
        return probe
    return make


def _set_attr(key: str, index: int) -> Callable[[dict, Any], None]:
    def on_result(record: dict, result: Any) -> None:
        record["attrs"][key] = int(result[index])
    return on_result


#: (module, attribute path, wrapper factory); a dotted path patches a
#: method on a class of that module
PROBES: tuple[tuple[str, str, Callable], ...] = (
    # engines: every flow, perf-driven subclasses included, ends here
    ("repro.eplace.global_place", "EPlaceGlobalPlacer.place",
     _spanned("eplace.gp")),
    ("repro.xu_ispd19.global_place", "XuGlobalPlacer.place",
     _spanned("xu.gp")),
    ("repro.annealing.annealer", "SimulatedAnnealingPlacer.place",
     _spanned("annealing")),
    # detailed placement, where the flows look it up
    ("repro.api", "detailed_place", _spanned("legalize.ilp")),
    ("repro.perf_driven.flows", "detailed_place", _spanned("legalize.ilp")),
    ("repro.perf_driven.refine", "detailed_place",
     _spanned("legalize.ilp")),
    ("repro.api", "lp_two_stage_detailed_placement",
     _spanned("legalize.lp2")),
    ("repro.perf_driven.flows", "lp_two_stage_detailed_placement",
     _spanned("legalize.lp2")),
    ("repro.perf_driven.flows", "phi_refine",
     _spanned("perf_driven.refine")),
    # ILP rounds and solves
    ("repro.legalize.ilp", "iterate_directions",
     _spanned("legalize.ilp.iterate", _set_attr("rounds", 1))),
    ("repro.legalize.ilp", "refine_directions",
     _spanned("legalize.ilp.refine", _set_attr("improved", 1))),
    ("repro.legalize.ilp", "milp", _solver("ilp")),
    ("repro.legalize.lp_twostage", "milp", _solver("lp2")),
    # ePlace-A kernels
    ("repro.eplace.global_place", "wa_wirelength", _kernel("analytic.wa")),
    ("repro.eplace.global_place", "area_term", _kernel("analytic.area")),
    ("repro.analytic.density", "DensityGrid.energy_and_grad",
     _kernel("analytic.density")),
    # energy_and_grad deposits charge through the overlap matrices; the
    # public DensityGrid.rasterize is not on the flow path
    ("repro.analytic.density", "DensityGrid._overlap_matrices",
     _kernel("analytic.density.rasterize")),
    ("repro.analytic.density", "poisson_solve_dct",
     _kernel("analytic.density.poisson")),
    ("repro.analytic.penalties", "ConstraintPenalties.symmetry",
     _kernel("analytic.penalties")),
    ("repro.analytic.penalties", "ConstraintPenalties.alignment",
     _kernel("analytic.penalties")),
    ("repro.analytic.penalties", "ConstraintPenalties.ordering",
     _kernel("analytic.penalties")),
    ("repro.analytic.nesterov", "NesterovOptimizer.step",
     _kernel("eplace.nesterov")),
    # [11] kernels
    ("repro.xu_ispd19.global_place", "lse_wirelength",
     _kernel("analytic.lse")),
    ("repro.xu_ispd19.global_place", "conjugate_gradient",
     _kernel("analytic.cg")),
    ("repro.analytic.bell", "BellDensityGrid.penalty_and_grad",
     _kernel("analytic.bell")),
    # SA moves
    ("repro.annealing.incremental", "IncrementalCostEvaluator.propose",
     _kernel("annealing.propose")),
    ("repro.annealing.incremental", "IncrementalCostEvaluator.commit",
     _kernel("annealing.commit")),
    ("repro.annealing.incremental", "IncrementalCostEvaluator.audit",
     _kernel("annealing.audit")),
    # GNN inference
    ("repro.gnn.train", "PerformanceModel.phi", _kernel("gnn.infer")),
    ("repro.gnn.train", "PerformanceModel.phi_placement",
     _kernel("gnn.infer")),
    ("repro.gnn.train", "PerformanceModel.phi_and_grad",
     _kernel("gnn.infer")),
)


def _owner(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Install every probe into ``rec``; restore the originals on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module, path, make in PROBES:
            owner, attr = _owner(module, path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(rec, original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer summary


def _kernel_totals(rec: Recorder) -> dict[str, list]:
    totals: dict[str, list] = {}
    for kernels in [rec.root_kernels] + [s["kernels"] for s in rec.spans]:
        for name, (calls, busy, self_s) in kernels.items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += self_s
    return totals


def summarize(rec: Recorder, pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Every ``*_frac`` time metric is the layer's seconds divided by the
    traced pass's wall time ``pass_s`` (reported as ``trace.pass_s``),
    so ``frac * trace.pass_s`` gives seconds.  A fan-out's worker time
    can exceed the wall time, so its shares can exceed 1.
    """
    by_id = {s["id"]: s for s in rec.spans}

    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def inside(span: dict, name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor["name"] == name:
                return True
            parent = ancestor["parent"]
        return False

    def outermost(name: str) -> list[dict]:
        return [s for s in rec.spans
                if s["name"] == name and not inside(s, name)]

    def busy(name: str) -> float:
        return sum(duration(s) for s in outermost(name))

    kernels = _kernel_totals(rec)

    def k_calls(name: str) -> int:
        return kernels.get(name, [0, 0.0, 0.0])[0]

    def k_self(name: str) -> float:
        return kernels.get(name, [0, 0.0, 0.0])[2]

    solves = [s for s in rec.spans if s["name"] == "legalize.ilp.milp"]
    solve_s = sum(duration(s) for s in solves)
    ilp_busy = busy("legalize.ilp") + sum(
        duration(s) for s in solves if not inside(s, "legalize.ilp"))
    refine_spans = [s for s in rec.spans
                    if s["name"] == "legalize.ilp.refine"]
    refine_ids = {s["id"] for s in refine_spans}
    refine_tried = sum(1 for s in solves if s["parent"] in refine_ids)
    refine_improved = sum(s["attrs"].get("improved", 0)
                          for s in refine_spans)
    density = ("analytic.density", "analytic.density.rasterize",
               "analytic.density.poisson")

    seconds = {
        "legalize.ilp.busy_frac": ilp_busy,
        "legalize.ilp.solve_frac": solve_s,
        "legalize.ilp.build_frac": ilp_busy - solve_s,
        "eplace.gp.busy_frac": busy("eplace.gp"),
        "eplace.nesterov.self_frac": k_self("eplace.nesterov"),
        "analytic.wa.busy_frac": k_self("analytic.wa"),
        "analytic.area.busy_frac": k_self("analytic.area"),
        "analytic.penalties.busy_frac": k_self("analytic.penalties"),
        "analytic.density.busy_frac": sum(k_self(k) for k in density),
        "analytic.density.rasterize_frac":
            k_self("analytic.density.rasterize"),
        "analytic.density.poisson_frac": k_self("analytic.density.poisson"),
        "analytic.density.field_frac": k_self("analytic.density"),
        "xu.gp.busy_frac": busy("xu.gp"),
        "analytic.lse.busy_frac": k_self("analytic.lse"),
        "analytic.bell.busy_frac": k_self("analytic.bell"),
        "analytic.cg.self_frac": k_self("analytic.cg"),
        "legalize.lp2.busy_frac": busy("legalize.lp2"),
        "annealing.busy_frac": busy("annealing"),
        "annealing.propose_frac": k_self("annealing.propose"),
        "annealing.audit_frac": k_self("annealing.audit"),
        "gnn.infer_frac": k_self("gnn.infer"),
        "perf_driven.refine_frac": busy("perf_driven.refine"),
    }
    for kind in ILP_ROUNDS:
        seconds[f"legalize.ilp.solve_frac.{kind}"] = sum(
            duration(s) for s in solves if s["attrs"]["round"] == kind)

    out: dict[str, float] = {
        "legalize.ilp.solves": len(solves),
        "legalize.ilp.refine.improve_frac":
            refine_improved / refine_tried if refine_tried else 0.0,
        "legalize.ilp.iterate.rounds": sum(
            s["attrs"].get("rounds", 0) for s in rec.spans
            if s["name"] == "legalize.ilp.iterate"),
        "legalize.ilp.time_limit_hits": sum(
            1 for s in solves if s["attrs"].get("status") == 1),
        "legalize.ilp.nodes": sum(
            s["attrs"].get("mip_node_count") or 0 for s in solves),
        "legalize.ilp.vars.max": max(
            (s["attrs"]["vars"] for s in solves), default=0),
        "legalize.ilp.rows.max": max(
            (s["attrs"]["rows"] for s in solves), default=0),
        "legalize.lp2.solves": sum(
            1 for s in rec.spans if s["name"] == "legalize.lp2.milp"),
        "eplace.nesterov.steps": k_calls("eplace.nesterov"),
        "analytic.density.calls": k_calls("analytic.density"),
        "annealing.moves": k_calls("annealing.propose"),
        "annealing.accept_frac": (
            k_calls("annealing.commit") / k_calls("annealing.propose")
            if k_calls("annealing.propose") else 0.0),
        "gnn.infer.calls": k_calls("gnn.infer"),
        "parallel.efficiency": 0.0,
        "parallel.result_bytes.max": 0,
        "trace.pass_s": pass_s,
    }

    if rec.fanouts:
        worker_s = sum(sum(f["runtime_s"]) for f in rec.fanouts)
        capacity = sum(f["jobs"] * f["wall_s"] for f in rec.fanouts)
        out["parallel.efficiency"] = worker_s / capacity
        out["parallel.result_bytes.max"] = max(
            max(f["result_bytes"]) for f in rec.fanouts)
        seconds["eplace.gp.busy_frac"] += sum(
            sum(f["gp_s"]) for f in rec.fanouts)
        seconds["legalize.ilp.busy_frac"] += sum(
            sum(f["dp_s"]) for f in rec.fanouts)
        out["eplace.nesterov.steps"] += sum(
            sum(f["gp_iterations"]) for f in rec.fanouts)
        out["legalize.ilp.iterate.rounds"] += sum(
            sum(f["iterate_rounds"]) for f in rec.fanouts)
        out["legalize.ilp.vars.max"] = max(
            [out["legalize.ilp.vars.max"]]
            + [max(f["ilp_vars"]) for f in rec.fanouts])
        out["legalize.ilp.rows.max"] = max(
            [out["legalize.ilp.rows.max"]]
            + [max(f["ilp_rows"]) for f in rec.fanouts])

    for name, value in seconds.items():
        out[name] = value / pass_s
    return out
