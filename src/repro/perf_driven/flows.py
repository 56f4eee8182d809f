"""End-to-end performance-driven placement flows (paper Tables V/VII).

Three methods, each the performance-driven variant of a Table III flow:

* :func:`place_eplace_ap` — ePlace-AP global placement (gradient of the
  GNN term inside Nesterov) + the ePlace-A ILP detailed placement;
* :func:`place_perf_xu` — the "Perf*" extension of [11] + two-stage LP;
* :func:`place_perf_sa` — performance-driven simulated annealing [19]:
  GNN *inference* added to the SA cost.

:func:`train_model_for` builds the shared GNN model the three flows
consume (seeded from a conventional ePlace-A placement); the paper
likewise trains one model per design and uses it across methods.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Any

from ..annealing import SAParams, SimulatedAnnealingPlacer, anneal_place
from ..api import place_eplace_a
from ..eplace import EPlaceParams, eplace_global
from ..gnn import PerformanceModel, TrainReport, train_performance_model
from ..legalize import DetailedParams, detailed_place, \
    lp_two_stage_detailed_placement
from ..netlist import Circuit
from ..obs import trace
from ..placement import PlacerResult
from ..xu_ispd19 import XuParams
from .eplace_ap import EPlaceAPGlobalPlacer
from .perf_xu import XuPerfGlobalPlacer
from .refine import RefineParams, phi_refine

#: methods accepted by :func:`place_performance_driven`
PERF_METHODS = ("eplace-ap", "perf-xu", "perf-sa")


def train_model_for(
    circuit: Circuit,
    samples: int = 600,
    epochs: int = 60,
    seed: int = 0,
    jobs: int = 1,
    **train_kwargs: Any,
) -> tuple[PerformanceModel, TrainReport]:
    """Train the per-design GNN from a conventional seed placement.

    ``jobs`` fans the dataset-generation stages across processes
    (bit-identical to sequential); ``train_kwargs`` forward to
    :func:`repro.gnn.train_performance_model` (e.g. ``sa_sweep_runs``,
    ``adversarial_rounds``, ``hidden``, ``kernel``).
    """
    seed_result = place_eplace_a(circuit)
    return train_performance_model(
        seed_result.placement, samples=samples, epochs=epochs,
        seed=seed, jobs=jobs, **train_kwargs
    )


def place_eplace_ap(
    circuit: Circuit,
    perf_model: PerformanceModel,
    gp_params: EPlaceParams | None = None,
    dp_params: DetailedParams | None = None,
    alpha: float = 1.0,
    refine_params: RefineParams | None = None,
) -> PlacerResult:
    """End-to-end ePlace-AP.

    Three stages: global placement with the GNN gradient term (eq. 5),
    displacement-anchored ILP legalization (so the DP cannot
    re-optimise the performance-driven structure away), then the
    trust-region :func:`repro.perf_driven.refine.phi_refine` rounds
    that apply the gradient where the model is on-manifold.
    """
    from .refine import _score

    tracer = trace.current()
    clock = trace.Stopwatch()
    gp_params = gp_params or EPlaceParams(utilization=0.8, eta=0.3)
    gp = EPlaceAPGlobalPlacer(circuit, perf_model, gp_params,
                              alpha=alpha).place()
    if dp_params is None:
        dp_params = DetailedParams(
            displacement_weight=1.0, iterate_rounds=1, refine_rounds=0,
        )
    dp = detailed_place(gp.placement, dp_params)

    # model-scored guard: the GNN term can distort global placement on
    # circuits where its gradient is weak; if the model itself scores a
    # conventional baseline better, refine from that instead (still no
    # ground-truth access — the model is the only judge)
    refine_params = refine_params or RefineParams()
    baseline_gp = eplace_global(circuit, gp_params)
    baseline = detailed_place(baseline_gp.placement)
    started_from = "ap-gp"
    seed_placement = dp.placement
    if _score(baseline.placement, perf_model,
              refine_params.quality_weight) < _score(
                  dp.placement, perf_model,
                  refine_params.quality_weight):
        seed_placement = baseline.placement
        started_from = "conventional"

    refined, refine_stats = phi_refine(
        seed_placement, perf_model, refine_params, dp_params,
    )
    refine_stats["started_from"] = started_from
    return PlacerResult(
        placement=refined,
        runtime_s=clock.elapsed(),
        method="eplace-ap",
        stats={"gp": gp.stats, "dp": dp.stats, "refine": refine_stats,
               "gp_runtime_s": gp.runtime_s, "dp_runtime_s": dp.runtime_s},
        trace=tracer.to_trace(),
    )


def place_perf_xu(
    circuit: Circuit,
    perf_model: PerformanceModel,
    gp_params: XuParams | None = None,
    dp_params: DetailedParams | None = None,
    alpha: float = 1.0,
) -> PlacerResult:
    """End-to-end Perf* (performance extension of [11])."""
    from ..xu_ispd19 import xu_global
    from .refine import _score

    tracer = trace.current()
    clock = trace.Stopwatch()
    dp_params = dp_params or DetailedParams(allow_flipping=False)
    gp = XuPerfGlobalPlacer(circuit, perf_model, gp_params,
                            alpha=alpha).place()
    dp = lp_two_stage_detailed_placement(gp.placement, dp_params)

    # same model-scored guard as ePlace-AP, against the [11] baseline
    baseline = lp_two_stage_detailed_placement(
        xu_global(circuit, gp_params).placement, dp_params)
    chosen = dp.placement
    if _score(baseline.placement, perf_model, 0.15) < _score(
            dp.placement, perf_model, 0.15):
        chosen = baseline.placement
    return PlacerResult(
        placement=chosen,
        runtime_s=clock.elapsed(),
        method="perf-xu",
        stats={"gp": gp.stats, "dp": dp.stats,
               "gp_runtime_s": gp.runtime_s, "dp_runtime_s": dp.runtime_s},
        trace=tracer.to_trace(),
    )


def place_perf_sa(
    circuit: Circuit,
    perf_model: PerformanceModel,
    params: SAParams | None = None,
) -> PlacerResult:
    """End-to-end performance-driven simulated annealing [19].

    The GNN enters the cost by plain inference (no gradients), exactly
    the asymmetry the paper uses to explain why analytical methods lose
    part of their speed advantage in performance-driven mode — each SA
    move pays one forward pass.
    """
    params = params or SAParams(perf_weight=1.0)
    if params.perf_weight <= 0:
        raise ValueError(
            "perf-driven SA requires SAParams.perf_weight > 0"
        )
    effective = dc_replace(
        params, perf_weight=params.perf_weight * perf_model.trust
    ) if perf_model.trust < 1.0 else params
    if effective.perf_weight <= 0.0:
        effective = dc_replace(effective, perf_weight=1e-9)
    from .refine import _score

    clock = trace.Stopwatch()
    placer = SimulatedAnnealingPlacer(
        circuit, effective, cost_hook=perf_model.phi_placement
    )
    result = placer.place()

    # model-scored guard against a plain (conventional) SA run — the
    # surrogate term can mislead the annealer on circuits where the
    # model is weak, and the model itself can tell
    baseline = anneal_place(
        circuit, dc_replace(effective, perf_weight=0.0))
    if _score(baseline.placement, perf_model, 0.15) < _score(
            result.placement, perf_model, 0.15):
        # the baseline's result keeps its trace and diagnosis
        result = dc_replace(
            baseline, stats=dict(baseline.stats, fallback="conventional"))
    result.runtime_s = clock.elapsed()
    result.method = "perf-sa"
    return result


def place_performance_driven(
    circuit: Circuit,
    perf_model: PerformanceModel,
    method: str = "eplace-ap",
    **kwargs: Any,
) -> PlacerResult:
    """Dispatch one of the three performance-driven flows."""
    if method == "eplace-ap":
        return place_eplace_ap(circuit, perf_model, **kwargs)
    if method == "perf-xu":
        return place_perf_xu(circuit, perf_model, **kwargs)
    if method == "perf-sa":
        return place_perf_sa(circuit, perf_model, **kwargs)
    raise ValueError(
        f"unknown method {method!r}; choose one of {PERF_METHODS}"
    )
