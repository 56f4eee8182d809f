"""Trust-region performance refinement on legal placements.

The GNN performance model is trained on (perturbations of) *legal*
placements, so its failure probability is only trustworthy near that
manifold.  Driving the global-placement NLP hard against :math:`\\Phi`
can exploit the model off-manifold — overlapping configurations with
:math:`\\Phi \\approx 0` that legalization promptly destroys.

This module applies the gradient where the model is valid: starting
from a *legal* placement it takes bounded :math:`\\Phi`-descent steps
(a trust region of a few µm), re-legalizes with the
displacement-anchored ILP, and keeps the result only when the model's
prediction of the legal placement improves.  Several such rounds let
ePlace-AP follow the performance gradient without ever leaving the
region where the gradient means something.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from ..gnn import PerformanceModel
from ..legalize import DetailedParams, detailed_place, lns_rounds
from ..placement import Placement


@dataclass
class RefineParams:
    """Schedules for the performance-refinement stages.

    ``rounds``/``steps_per_round``/``step_um`` drive the gradient
    trust-region stage; ``lns_rounds``/``free_pairs`` the ILP
    large-neighbourhood stage (the analytical counterpart of SA's
    topology moves: the MILP proposes legal rearrangements by freeing a
    few pair directions, the model accepts/rejects); ``flip_passes``
    the greedy per-device flip improvement (flipping changes pin
    geometry, hence :math:`\\Phi`, but is invisible to the gradient).
    ``quality_weight`` mixes normalised HPWL+area into the acceptance
    score so performance gains cannot ride on unlimited layout bloat.
    ``accept_margin`` is the minimum score improvement for accepting a
    candidate: the surrogate carries ranking noise, and accepting
    marginal "improvements" lets that noise walk the solution downhill
    in true FOM.
    """

    rounds: int = 3
    steps_per_round: int = 10
    step_um: float = 0.05
    displacement_weight: float = 2.0
    lns_rounds: int = 6
    free_pairs: int = 10
    candidate_pool: int = 25
    flip_passes: int = 2
    quality_weight: float = 0.15
    accept_margin: float = 0.02
    seed: int = 11

    def __post_init__(self) -> None:
        if self.rounds < 0 or self.steps_per_round < 1:
            raise ValueError("rounds/steps must be non-negative/positive")
        if self.step_um <= 0:
            raise ValueError("step size must be positive")


def _descend(
    placement: Placement,
    model: PerformanceModel,
    steps: int,
    step_um: float,
) -> Placement:
    """Normalised gradient descent on Phi from a placement's coords."""
    x = placement.x.copy()
    y = placement.y.copy()
    scale = np.sqrt(len(x))
    for _ in range(steps):
        phi, gx, gy = model.phi_and_grad(x, y)
        if phi <= 1e-6:
            break
        norm = float(np.sqrt((gx * gx + gy * gy).sum()))
        if norm <= 1e-12:
            break
        x -= step_um * scale * gx / norm
        y -= step_um * scale * gy / norm
    return Placement(placement.circuit, x, y,
                     placement.flip_x, placement.flip_y)


def _score(
    placement: Placement,
    model: PerformanceModel,
    quality_weight: float,
) -> float:
    """Acceptance score: model failure probability + quality guard."""
    from ..placement import bounding_area, hpwl

    circuit = placement.circuit
    area_norm = circuit.total_device_area()
    hpwl_norm = float(
        np.sqrt(area_norm) * max(
            sum(1 for net in circuit.nets if net.degree >= 2), 1)
    )
    quality = (
        hpwl(placement) / hpwl_norm
        + bounding_area(placement) / area_norm
    )
    return model.phi_placement(placement) + quality_weight * quality


def _greedy_flips(
    placement: Placement,
    model: PerformanceModel,
    passes: int,
    quality_weight: float,
) -> Placement:
    """Toggle device flips one at a time, keeping score improvements."""
    best = placement.copy()
    best_score = _score(best, model, quality_weight)
    n = best.circuit.num_devices
    for _ in range(passes):
        improved = False
        for i in range(n):
            for attr in ("flip_x", "flip_y"):
                candidate = best.copy()
                getattr(candidate, attr)[i] ^= True
                score = _score(candidate, model, quality_weight)
                if score < best_score - 1e-12:
                    best, best_score = candidate, score
                    improved = True
        if not improved:
            break
    return best


def phi_refine(
    legal: Placement,
    model: PerformanceModel,
    params: RefineParams | None = None,
    dp_params: DetailedParams | None = None,
) -> tuple[Placement, dict]:
    """Refine a legal placement against the performance model.

    Three mechanisms, all accepted purely on the model's score of the
    *legalized* candidate (the ground-truth simulator is never
    consulted, mirroring how the paper's flow relies on its trained
    GNN at placement time):

    1. gradient trust-region rounds — bounded :math:`\\Phi` descent
       followed by anchored re-legalization;
    2. ILP large-neighbourhood rounds — legal topology rearrangements
       from freeing a few pair directions;
    3. greedy flip passes — per-device mirroring, which moves pins
       without moving rectangles.
    """
    params = params or RefineParams()
    if dp_params is None:
        dp_params = DetailedParams(
            displacement_weight=params.displacement_weight,
            iterate_rounds=1, refine_rounds=0,
        )
    if model.trust < 0.5:
        # the surrogate failed validation: refining against it would
        # follow noise, so return the input unchanged
        return legal, {
            "accepted_rounds": 0,
            "final_phi": model.phi_placement(legal),
            "skipped_low_trust": True,
        }
    best = legal
    best_score = _score(legal, model, params.quality_weight)
    accepted = 0

    # stage 1: gradient trust region.  Every step of a round is
    # deterministic in ``best``, so a rejected round would repeat
    # exactly in every later one
    for _ in range(params.rounds):
        drifted = _descend(best, model, params.steps_per_round,
                           params.step_um)
        candidate = detailed_place(drifted, dp_params).placement
        candidate = _greedy_flips(candidate, model, 1,
                                  params.quality_weight)
        score = _score(candidate, model, params.quality_weight)
        if score < best_score - params.accept_margin:
            best, best_score = candidate, score
            accepted += 1
        else:
            break

    # stage 2: ILP large-neighbourhood topology moves (lighter anchor so
    # the freed pairs can genuinely rearrange)
    def accept(candidate: Placement) -> "Placement | None":
        nonlocal best_score
        candidate = _greedy_flips(candidate, model, 1,
                                  params.quality_weight)
        score = _score(candidate, model, params.quality_weight)
        if score < best_score - params.accept_margin:
            best_score = score
            return candidate
        return None

    best, lns_accepted = lns_rounds(best, dc_replace(
        dp_params, displacement_weight=0.3,
        refine_rounds=params.lns_rounds, free_pairs=params.free_pairs,
        candidate_pool=params.candidate_pool, seed=params.seed,
    ), accept)
    accepted += lns_accepted

    # stage 3: final flip polish
    best = _greedy_flips(best, model, params.flip_passes,
                         params.quality_weight)
    return best, {
        "accepted_rounds": accepted,
        "final_phi": model.phi_placement(best),
        "final_score": _score(best, model, params.quality_weight),
    }
