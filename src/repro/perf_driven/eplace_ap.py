"""ePlace-AP: performance-driven ePlace-A (paper Sec. V, eq. 5).

Adds :math:`\\alpha \\Phi(\\mathcal{G})` to the ePlace-A global
objective, where :math:`\\Phi` is the GNN's probability that the
placement misses its performance threshold.  The defining difference
from the simulated-annealing use of the same model [19] is that the
NLP consumes the *gradient* :math:`\\partial \\Phi / \\partial v`
(paper: TensorFlow autodiff; here: our numpy GNN's exact manual
backprop) rather than just the inference value.  Legalization and
detailed placement are identical to ePlace-A.
"""

from __future__ import annotations

import numpy as np

from ..eplace import EPlaceGlobalPlacer, EPlaceParams
from ..gnn import PerformanceModel
from ..netlist import Circuit
from ..obs import trace
from ..placement import PlacerResult


class EPlaceAPGlobalPlacer(EPlaceGlobalPlacer):
    """ePlace-A global placement with the GNN performance term."""

    def __init__(
        self,
        circuit: Circuit,
        perf_model: PerformanceModel,
        params: EPlaceParams | None = None,
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
        self._alpha_scaled = 0.0

    # ------------------------------------------------------------------
    def _init_weights(self, x: np.ndarray, y: np.ndarray) -> None:
        super()._init_weights(x, y)
        _, gx, gy = self.perf_model.phi_and_grad(x, y)
        phi_norm = float(np.linalg.norm(np.concatenate([gx, gy])))
        # a model that failed validation earns proportionally less
        # influence on the placement (see PerformanceModel.trust)
        self._alpha_scaled = (
            self.alpha * self.perf_model.trust
            * self._wl_norm0 / max(phi_norm, 1e-12)
        )

    def _eval_position_terms(self, x: np.ndarray, y: np.ndarray) -> dict:
        terms = super()._eval_position_terms(x, y)
        terms["phi"] = self.perf_model.phi_and_grad(x, y)
        return terms

    def _objective_xy(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        value, gx, gy = super()._objective_xy(x, y)
        # the base objective just memoized this point's terms
        phi, pgx, pgy = self._position_terms(x, y)["phi"]
        value += self._alpha_scaled * phi
        gx = gx + self._alpha_scaled * pgx
        gy = gy + self._alpha_scaled * pgy
        if trace.active():
            # extend the base health terms with the GNN contribution
            hterms = dict(getattr(self, "_health", {}))
            hterms["grad_phi_norm"] = self._alpha_scaled * float(
                np.hypot(np.linalg.norm(pgx), np.linalg.norm(pgy))
            )
            self._health = hterms
        return value, gx, gy

    def place(self) -> PlacerResult:
        """Run global placement with the performance term blended in."""
        result = super().place()
        result.method = f"eplace-ap-gp[{self.params.symmetry_mode}]"
        result.stats["alpha_scaled"] = self._alpha_scaled
        result.stats["final_phi"] = self.perf_model.phi(
            result.placement.x, result.placement.y
        )
        return result


def eplace_ap_global(
    circuit: Circuit,
    perf_model: PerformanceModel,
    params: EPlaceParams | None = None,
    alpha: float = 1.0,
) -> PlacerResult:
    """Convenience wrapper: one ePlace-AP global placement run."""
    return EPlaceAPGlobalPlacer(circuit, perf_model, params, alpha).place()
