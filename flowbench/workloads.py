"""The flowbench workloads: their set-up, and what one pass places.

Each workload is a closed loop: a single caller issues the next
top-level public call only after the previous one returned.  ``seed``
is the only input knob; every engine receives it as its own seed (for
ePlace-A and [11] the GP seed, since their detailed stages carry none).

Set-up builds the circuits, trains the GNN model (``table7-perf``
only) and runs one small untimed Adder placement per engine, which pays
for lazy solver and FFT start-up before any pass is timed.

The circuit lists are the paper testcases whose flow time fits several
passes into one run and varies little with the seed; SCF, VCO1 and VCO2
take 3-20 s per ePlace-A call, depending on the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.annealing import SAParams
from repro.api import place, place_multiseed
from repro.circuits import make
from repro.eplace import EPlaceParams
from repro.experiments.common import Budgets
from repro.legalize import DetailedParams
from repro.perf_driven import (
    place_eplace_ap,
    place_perf_sa,
    place_perf_xu,
    train_model_for,
)
from repro.placement import PlacerResult
from repro.xu_ispd19 import XuParams

#: ePlace-A global-placement parameters of the conventional flow
#: (the default of ``repro.api.place_eplace_a``)
EPLACE_PARAMS = EPlaceParams(utilization=0.8, eta=0.3)

#: SA move budget of the ``table3-baselines`` workload
SA_ITERATIONS = 40_000

#: seeds per fan-out call, and its worker processes
FANOUT_SEEDS = 4
FANOUT_JOBS = 2


@dataclass(frozen=True)
class Case:
    """One top-level public call of a pass.

    ``call`` returns one result per entry of ``seeds`` (several for a
    fan-out); ``jobs`` is the number of worker processes it uses.
    """

    circuit: str
    engine: str
    seeds: tuple[int, ...]
    call: Callable[[], list[PlacerResult]]
    jobs: int = 1


@dataclass
class Setup:
    """What set-up hands to the timed passes."""

    cases: list[Case]
    train_s: float = 0.0


def _warm_up(engines: tuple[str, ...]) -> None:
    """One small untimed Adder placement per conventional engine."""
    adder = make("Adder")
    small = {
        "eplace-a": dict(
            gp_params=replace(EPLACE_PARAMS, max_iters=20, min_iters=5),
            dp_params=DetailedParams(iterate_rounds=1, refine_rounds=0)),
        "xu-ispd19": dict(gp_params=XuParams(stages=1, cg_iterations=5)),
        "annealing": dict(params=SAParams(iterations=500,
                                          polish_evals=50)),
    }
    for engine in engines:
        place(adder, engine, **small[engine])


def table3_eplace(seed: int) -> Setup:
    """ePlace-A (GP, then ILP legalization and DP) on each circuit."""
    _warm_up(("eplace-a",))
    params = replace(EPLACE_PARAMS, seed=seed)
    cases = []
    for name in ("Comp1", "Comp2"):
        circuit = make(name)
        cases.append(Case(name, "eplace-a", (seed,), lambda c=circuit: [
            place(c, "eplace-a", gp_params=params)]))
    return Setup(cases)


def table3_baselines(seed: int) -> Setup:
    """[11] (CG GP, two-stage LP) then SA on each circuit: no ILP."""
    _warm_up(("xu-ispd19", "annealing"))
    xu = XuParams(seed=seed)
    sa = SAParams(iterations=SA_ITERATIONS, seed=seed)
    cases = []
    for name in ("CC-OTA", "CM-OTA1"):
        circuit = make(name)
        cases.append(Case(name, "xu-ispd19", (seed,), lambda c=circuit: [
            place(c, "xu-ispd19", gp_params=xu)]))
        cases.append(Case(name, "annealing", (seed,), lambda c=circuit: [
            place(c, "annealing", params=sa)]))
    return Setup(cases)


def table7_perf(seed: int) -> Setup:
    """The three performance-driven flows with a GNN trained in set-up.

    Budgets are ``experiments.performance._table7_row``'s under
    ``Budgets.quick()``, for the models and the flows alike.
    """
    _warm_up(("eplace-a", "xu-ispd19", "annealing"))
    budgets = Budgets.quick()
    sa = budgets.sa_params(iterations=budgets.perf_sa_iterations,
                           perf_weight=3.0, seed=seed)
    xu = replace(budgets.xu_params, seed=seed)
    gp = replace(budgets.gp_params, seed=seed)
    name = "CC-OTA"
    start = time.perf_counter()
    model, _ = train_model_for(
        make(name),
        samples=budgets.model_samples,
        epochs=budgets.model_epochs,
        sa_sweep_runs=budgets.model_sweep_runs,
        adversarial_rounds=budgets.model_adversarial_rounds,
    )
    train_s = time.perf_counter() - start
    circuit = make(name)
    return Setup([
        Case(name, "perf-sa", (seed,), lambda: [
            place_perf_sa(circuit, model, sa)]),
        Case(name, "perf-xu", (seed,), lambda: [
            place_perf_xu(circuit, model, gp_params=xu, alpha=2.0)]),
        Case(name, "eplace-ap", (seed,), lambda: [
            place_eplace_ap(circuit, model, gp_params=gp, alpha=2.0)]),
    ], train_s)


def multiseed_fanout(seed: int) -> Setup:
    """ePlace-A over consecutive seeds, fanned out to worker processes."""
    _warm_up(("eplace-a",))
    seeds = tuple(range(seed, seed + FANOUT_SEEDS))
    cases = []
    for name in ("Comp1", "Comp2"):
        circuit = make(name)
        cases.append(Case(
            name, "eplace-a", seeds,
            lambda c=circuit: place_multiseed(
                c, "eplace-a", seeds=seeds, jobs=FANOUT_JOBS),
            jobs=FANOUT_JOBS))
    return Setup(cases)


#: workload name -> set-up function
WORKLOADS: dict[str, Callable[[int], Setup]] = {
    "table3-eplace": table3_eplace,
    "table3-baselines": table3_baselines,
    "table7-perf": table7_perf,
    "multiseed-fanout": multiseed_fanout,
}
