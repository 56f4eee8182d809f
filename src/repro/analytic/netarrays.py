"""Flattened net/pin arrays for vectorised wirelength computation.

Analytical placers evaluate smoothed wirelength (and its gradient)
hundreds of times; this precomputes a segment layout so each evaluation
is a handful of numpy segmented reductions instead of per-net Python
loops.
"""

from __future__ import annotations

import copy

import numpy as np

from ..netlist import Circuit


class NetArrays:
    """Flattened pin arrays with per-net segment boundaries.

    Only nets of degree >= 2 contribute (singletons have zero HPWL).
    Pin offsets are measured from device centres at unflipped
    orientation — global placement decides positions; flipping is an ILP
    detailed-placement decision (paper Sec. IV-B).

    Attributes
    ----------
    pin_dev:
        ``(P,)`` device index of each pin.
    pin_offx, pin_offy:
        ``(P,)`` pin offsets from the owning device's centre.
    starts:
        ``(E,)`` index of each net's first pin in the flattened arrays.
    weights:
        ``(E,)`` net weights.
    """

    def __init__(self, circuit: Circuit, include=None) -> None:
        """``include``: optional predicate ``net -> bool`` selecting the
        nets to compile (e.g. only performance-critical nets)."""
        self.circuit = circuit
        dev_idx: list[int] = []
        offx: list[float] = []
        offy: list[float] = []
        starts: list[int] = []
        weights: list[float] = []
        names: list[str] = []
        for net, (idx, ox, oy) in zip(circuit.nets,
                                      circuit.net_pin_arrays()):
            if net.degree < 2:
                continue
            if include is not None and not include(net):
                continue
            starts.append(len(dev_idx))
            weights.append(net.weight)
            names.append(net.name)
            dev_idx.extend(idx.tolist())
            offx.extend(ox.tolist())
            offy.extend(oy.tolist())
        self.pin_dev = np.asarray(dev_idx, dtype=int)
        self.pin_offx = np.asarray(offx, dtype=float)
        self.pin_offy = np.asarray(offy, dtype=float)
        self.starts = np.asarray(starts, dtype=int)
        self.weights = np.asarray(weights, dtype=float)
        self.net_names = names
        self.num_pins = len(self.pin_dev)
        self.num_nets = len(self.starts)
        # segment id of each pin, for broadcasting per-net values to pins
        self.pin_net = np.repeat(
            np.arange(self.num_nets),
            np.diff(np.append(self.starts, self.num_pins)),
        )

    def tiled(self, copies: int) -> "NetArrays":
        """These nets laid out ``copies`` times back to back.

        One segmented pass over the tiled layout evaluates every copy
        at once (say, both axes of a WA span, the x pin coordinates
        followed by the y ones).  Each net's reductions see the same
        pins in the same order, so each copy's result is bitwise that
        of a pass over ``self``.
        """
        out = copy.copy(self)
        out.pin_dev = np.tile(self.pin_dev, copies)
        out.pin_offx = np.tile(self.pin_offx, copies)
        out.pin_offy = np.tile(self.pin_offy, copies)
        out.starts = np.concatenate([
            self.starts + k * self.num_pins for k in range(copies)
        ]).astype(int)
        out.weights = np.tile(self.weights, copies)
        out.net_names = self.net_names * copies
        out.num_pins = self.num_pins * copies
        out.num_nets = self.num_nets * copies
        out.pin_net = np.concatenate([
            self.pin_net + k * self.num_nets for k in range(copies)
        ]).astype(int)
        return out

    def pin_coords(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Absolute pin coordinates for device centres ``(x, y)``."""
        return (
            x[self.pin_dev] + self.pin_offx,
            y[self.pin_dev] + self.pin_offy,
        )

    def segment_max(self, values: np.ndarray) -> np.ndarray:
        """Per-net maximum of a per-pin array."""
        return np.maximum.reduceat(values, self.starts)

    def segment_min(self, values: np.ndarray) -> np.ndarray:
        """Per-net minimum of a per-pin array."""
        return np.minimum.reduceat(values, self.starts)

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-net sum of a per-pin array."""
        return np.add.reduceat(values, self.starts)

    def scatter_to_devices(
        self, pin_values: np.ndarray, n: int | None = None
    ) -> np.ndarray:
        """Accumulate per-pin values onto their owning devices.

        ``bincount`` adds each device's pins in pin order from zero,
        bitwise what ``np.add.at`` into a zeroed vector gives.
        """
        if n is None:
            n = self.circuit.num_devices
        return np.bincount(self.pin_dev, weights=pin_values, minlength=n)

    def exact_hpwl(self, x: np.ndarray, y: np.ndarray) -> float:
        """Weighted exact HPWL from device centres (pins at offsets)."""
        px, py = self.pin_coords(x, y)
        spans = (
            self.segment_max(px) - self.segment_min(px)
            + self.segment_max(py) - self.segment_min(py)
        )
        return float(np.dot(self.weights, spans))
