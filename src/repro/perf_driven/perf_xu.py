"""Perf*: the performance-driven extension of the previous work [11].

The paper's Table V/VII column "Perf*" extends [11] "in the same way as
ePlace-AP": the GNN term :math:`\\alpha \\Phi` joins the [11]-style
global objective (solved with conjugate gradient, so the gradient of
:math:`\\Phi` is needed here too), while the two-stage LP detailed
placement stays unchanged.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..gnn import PerformanceModel
from ..netlist import Circuit
from ..obs import trace
from ..placement import PlacerResult
from ..xu_ispd19 import XuGlobalPlacer, XuParams


class XuPerfGlobalPlacer(XuGlobalPlacer):
    """[11]-style global placement with the GNN performance term."""

    def __init__(
        self,
        circuit: Circuit,
        perf_model: PerformanceModel,
        params: XuParams | None = None,
        alpha: float = 1.0,
    ) -> None:
        super().__init__(circuit, params)
        if perf_model.circuit.name != circuit.name:
            raise ValueError(
                "performance model was trained for "
                f"{perf_model.circuit.name!r}, not {circuit.name!r}"
            )
        self.perf_model = perf_model
        self.alpha = float(alpha)
        # scale alpha from the initial-position gradient magnitudes
        x0, y0 = self.initial_positions()
        from ..analytic import lse_wirelength

        _, gx, gy = lse_wirelength(self.arrays, x0, y0, self.gamma)
        wl_norm = float(np.linalg.norm(np.concatenate([gx, gy])))
        _, pgx, pgy = perf_model.phi_and_grad(x0, y0)
        phi_norm = float(np.linalg.norm(np.concatenate([pgx, pgy])))
        self._alpha_scaled = (
            self.alpha * wl_norm / max(phi_norm, 1e-12)
        )

    def _objective(
        self, lam: float, tau: float
    ) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
        base = super()._objective(lam, tau)
        n = self.circuit.num_devices

        def fun(v: np.ndarray) -> tuple[float, np.ndarray]:
            value, grad = base(v)
            phi, pgx, pgy = self.perf_model.phi_and_grad(v[:n], v[n:])
            value += self._alpha_scaled * phi
            grad = grad + self._alpha_scaled * np.concatenate([pgx, pgy])
            if trace.active():
                # GNN-term contribution for the health channel
                self._health = {
                    "grad_phi_norm": self._alpha_scaled * float(
                        np.hypot(
                            np.linalg.norm(pgx), np.linalg.norm(pgy)
                        )
                    ),
                }
            return value, grad

        return fun

    def place(self) -> PlacerResult:
        """Run global placement with the performance term blended in."""
        result = super().place()
        result.method = "xu-perf-gp"
        result.stats["alpha_scaled"] = self._alpha_scaled
        result.stats["final_phi"] = self.perf_model.phi(
            result.placement.x, result.placement.y
        )
        return result
