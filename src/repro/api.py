"""High-level placement API: one call per method.

The three conventional (performance-oblivious) flows of the paper's
Table III:

* ``eplace-a`` — ePlace-A global placement (WA + eDensity + area term,
  Nesterov) followed by the single-stage ILP detailed placement with
  flipping and direction refinement.
* ``xu-ispd19`` — the previous analytical work [11]: NTUplace3-style
  global placement (LSE + bell density, CG) followed by the two-stage
  LP detailed placement (no flipping).
* ``annealing`` — sequence-pair simulated annealing over symmetry
  islands (end to end; no separate detailed step).

Performance-driven variants live in :mod:`repro.perf_driven`.

Every flow runs under the observability layer (:mod:`repro.obs`): when
a tracer is active (``with obs.tracing():``) the returned
:class:`PlacerResult` carries a full :class:`repro.obs.Trace` with
per-phase spans and per-iteration convergence records.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Sequence

from .annealing import SAParams, anneal_place
from .eplace import EPlaceParams, eplace_global
from .legalize import DetailedParams, detailed_place, \
    lp_two_stage_detailed_placement
from .netlist import Circuit
from .obs import diagnose, metrics, trace, tracing
from .parallel import parallel_map
from .placement import PlacerResult
from .xu_ispd19 import XuParams, xu_global

#: methods accepted by :func:`place`
METHODS = ("eplace-a", "xu-ispd19", "annealing")


def place_eplace_a(
    circuit: Circuit,
    gp_params: EPlaceParams | None = None,
    dp_params: DetailedParams | None = None,
) -> PlacerResult:
    """End-to-end ePlace-A: global placement + ILP detailed placement."""
    tracer = trace.current()
    clock = trace.Stopwatch()
    with tracer.span("flow.eplace-a", circuit=circuit.name):
        gp = eplace_global(circuit, gp_params or EPlaceParams(
            utilization=0.8, eta=0.3))
        dp = detailed_place(gp.placement, dp_params)
    metrics.counter("repro.placements").inc()
    result = PlacerResult(
        placement=dp.placement,
        runtime_s=clock.elapsed(),
        method="eplace-a",
        stats={"gp": gp.stats, "dp": dp.stats,
               "gp_runtime_s": gp.runtime_s, "dp_runtime_s": dp.runtime_s},
        trace=tracer.to_trace(),
    )
    diagnose.attach(result)
    return result


def place_xu_ispd19(
    circuit: Circuit,
    gp_params: XuParams | None = None,
    dp_params: DetailedParams | None = None,
) -> PlacerResult:
    """End-to-end previous analytical work [11]: CG GP + two-stage LP."""
    tracer = trace.current()
    clock = trace.Stopwatch()
    with tracer.span("flow.xu-ispd19", circuit=circuit.name):
        gp = xu_global(circuit, gp_params)
        dp_params = dp_params or DetailedParams(allow_flipping=False)
        dp = lp_two_stage_detailed_placement(gp.placement, dp_params)
    metrics.counter("repro.placements").inc()
    result = PlacerResult(
        placement=dp.placement,
        runtime_s=clock.elapsed(),
        method="xu-ispd19",
        stats={"gp": gp.stats, "dp": dp.stats,
               "gp_runtime_s": gp.runtime_s, "dp_runtime_s": dp.runtime_s},
        trace=tracer.to_trace(),
    )
    diagnose.attach(result)
    return result


def place_annealing(
    circuit: Circuit,
    params: SAParams | None = None,
) -> PlacerResult:
    """End-to-end simulated-annealing placement."""
    result = anneal_place(circuit, params)
    metrics.counter("repro.placements").inc()
    return result


def _reseed_kwargs(
    method: str, kwargs: dict[str, Any], seed: int,
) -> dict[str, Any]:
    """Return ``kwargs`` with the engine's seed field set to ``seed``.

    Mirrors the parameter layout :func:`place` expects: ``params`` for
    annealing, ``gp_params`` for the analytical flows (their detailed
    stages are deterministic and carry no seed).
    """
    out = dict(kwargs)
    if method == "annealing":
        out["params"] = replace(
            out.get("params") or SAParams(), seed=seed
        )
    elif method == "eplace-a":
        out["gp_params"] = replace(
            out.get("gp_params") or EPlaceParams(
                utilization=0.8, eta=0.3),
            seed=seed,
        )
    elif method == "xu-ispd19":
        out["gp_params"] = replace(
            out.get("gp_params") or XuParams(), seed=seed
        )
    else:
        raise ValueError(
            f"unknown method {method!r}; choose one of {METHODS}"
        )
    return out


def _seed_worker(
    payload: tuple[Circuit, str, int, dict[str, Any], bool],
) -> PlacerResult:
    """One seeded :func:`place` run, optionally under its own tracer.

    Module-level so :func:`repro.parallel.parallel_map` can pickle it;
    also the inline (``jobs=1``) execution path, keeping sequential
    and parallel runs on identical code.
    """
    circuit, method, seed, kwargs, traced = payload
    kwargs = _reseed_kwargs(method, kwargs, seed)
    if traced:
        with tracing():
            return place(circuit, method, **kwargs)
    return place(circuit, method, **kwargs)


def place_multiseed(
    circuit: Circuit,
    method: str = "annealing",
    seeds: "Sequence[int]" = (1, 2, 3),
    jobs: int = 1,
    **kwargs: Any,
) -> "list[PlacerResult]":
    """Run :func:`place` once per seed; results come back in seed order.

    Seeds shard across up to ``jobs`` worker processes
    (:mod:`repro.parallel`); each run is an independent seeded engine
    execution, so placements and metrics are identical for any
    ``jobs``.  When the calling thread has an active tracer, every
    worker runs under its own tracer and the per-seed traces are
    absorbed back into the caller's (in seed order), so the merged
    trace matches a sequential traced run.

    Selection is the caller's job: pick a winner with e.g.
    ``min(results, key=lambda r: r.metrics()["hpwl"])`` — engines
    normalise their cost terms differently, so the caller chooses the
    selection metric.  Take
    best-of-N on post-DP metrics, never on GP convergence: over 8
    ePlace-A seeds each on CC-OTA, CM-OTA1, VGA, CM-OTA2 and VCO1, the
    Spearman rank correlation between GP HPWL and the post-DP score
    ranged from -0.65 to 0.77, and the GP-best seed was the DP-best
    seed on only 2 of the 5 circuits, while post-DP results spread
    2-12% across seeds.
    """
    tracer = trace.current()
    traced = tracer.enabled
    payloads = [
        (circuit, method, seed, kwargs, traced) for seed in seeds
    ]
    results = parallel_map(_seed_worker, payloads, jobs=jobs)
    if traced:
        for result in results:
            tracer.absorb(result.trace)
    return results


def place(circuit: Circuit, method: str = "eplace-a",
          **kwargs: Any) -> PlacerResult:
    """Place a circuit with the named method.

    ``kwargs`` forward to the method-specific entry point
    (``gp_params``/``dp_params`` for the analytical flows, ``params``
    for annealing).
    """
    if method == "eplace-a":
        return place_eplace_a(circuit, **kwargs)
    if method == "xu-ispd19":
        return place_xu_ispd19(circuit, **kwargs)
    if method == "annealing":
        return place_annealing(circuit, **kwargs)
    raise ValueError(
        f"unknown method {method!r}; choose one of {METHODS}"
    )
