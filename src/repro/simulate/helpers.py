"""Shared helpers for the closed-form circuit performance models.

The models translate placement geometry into performance through three
layout quantities:

* **critical-net capacitance** — routed Steiner length of the nets the
  topology flags critical, scaled by an *effective* sensitivity
  (fF/µm).  The effective value is deliberately larger than the bare
  M2 wire capacitance: it folds in coupling to neighbours, routing
  detours and junction loading, and is calibrated per circuit so that
  typical placements reproduce the paper's Table VI-scale swings.
* **pair separation** — mean centre distance between matched devices;
  process gradients make mismatch grow with separation, degrading
  offsets and matching-sensitive accuracy.
* **mismatch residual** — symmetry-constraint violations (nonzero only
  for global placements evaluated before legalization).
"""

from __future__ import annotations

import numpy as np

from ..parasitics import mismatch_distance, steiner_tree
from ..placement import Placement

#: effective capacitance sensitivity of a critical net (fF per µm)
EFFECTIVE_CAP_FF_PER_UM = 2.0


def net_length(placement: Placement, net_name: str) -> float:
    """Routed Steiner length of one named net, in µm.

    Raises ``ValueError`` naming the circuit and net if a pin position
    is NaN or infinite.
    """
    for net in placement.circuit.nets:
        if net.name == net_name:
            if net.degree < 2:
                return 0.0
            try:
                tree = steiner_tree(placement.net_pin_positions(net))
            except ValueError as exc:
                raise ValueError(
                    f"circuit {placement.circuit.name!r}, net "
                    f"{net_name!r}: {exc}"
                ) from exc
            return tree.length
    raise KeyError(
        f"circuit {placement.circuit.name!r} has no net {net_name!r}"
    )


def critical_net_lengths(placement: Placement) -> dict[str, float]:
    """Routed lengths of this circuit's model-declared critical nets."""
    model = placement.circuit.metadata.get("model", {})
    names = model.get(
        "critical_nets",
        tuple(n.name for n in placement.circuit.nets if n.critical),
    )
    return {name: net_length(placement, name) for name in names}


def cap_sensitivity(placement: Placement) -> float:
    """Effective fF/µm for this circuit (model override or default)."""
    model = placement.circuit.metadata.get("model", {})
    return float(model.get("cap_sens_ff_per_um", EFFECTIVE_CAP_FF_PER_UM))


def parasitic_cap_ff(placement: Placement, net_name: str) -> float:
    """Effective parasitic capacitance of one net, in fF."""
    return cap_sensitivity(placement) * net_length(placement, net_name)


def pair_separation_um(placement: Placement) -> float:
    """Mean centre distance over all symmetry-pair devices, in µm.

    Compact placements keep matched devices adjacent; spread ones pay
    in gradient-induced mismatch.
    """
    circuit = placement.circuit
    index = circuit.device_index()
    dists = []
    for group in circuit.constraints.symmetry_groups:
        for a, b in group.pairs:
            ia, ib = index[a], index[b]
            dists.append(float(np.hypot(
                placement.x[ia] - placement.x[ib],
                placement.y[ia] - placement.y[ib],
            )))
    return float(np.mean(dists)) if dists else 0.0


def symmetry_mismatch_um(placement: Placement) -> float:
    """Residual symmetry violation (0 for legalized placements)."""
    return mismatch_distance(placement)


def coupling_pairs(circuit) -> tuple[np.ndarray, np.ndarray]:
    """Victim/aggressor device index arrays from the model metadata.

    ``model['coupling']`` names two device groups whose *proximity*
    degrades performance — e.g. a comparator's clocked devices
    kick back into its input pair, an OTA's hot output stage imposes
    thermal gradients on the matched input devices, a VCO's output
    buffers pull its ring.  Compact placements push the groups
    together; a performance-driven placer must buy isolation with
    area, which is exactly the paper's Table VII trade-off.
    """
    model = circuit.metadata.get("model", {})
    spec = model.get("coupling")
    if not spec:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    index = circuit.device_index()
    victims = np.array([index[d] for d in spec["victims"]], dtype=int)
    aggressors = np.array(
        [index[d] for d in spec["aggressors"]], dtype=int)
    return victims, aggressors


def aggressor_coupling(placement: Placement) -> float:
    """Total victim-aggressor proximity, decaying as 1/(1 + d^2)."""
    victims, aggressors = coupling_pairs(placement.circuit)
    if len(victims) == 0 or len(aggressors) == 0:
        return 0.0
    dx = placement.x[victims][:, None] - placement.x[aggressors][None, :]
    dy = placement.y[victims][:, None] - placement.y[aggressors][None, :]
    return float((1.0 / (1.0 + dx * dx + dy * dy)).sum())


def clamp(value: float, lo: float = 0.0,
          hi: float = float("inf")) -> float:
    """Clip a metric into a physically sensible range."""
    return float(min(max(value, lo), hi))
