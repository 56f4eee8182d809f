"""ePlace-A global placement (paper Sec. IV-A).

Solves

.. math::
    \\min_v W(v) + \\lambda N(v) + \\tau Sym(v) + \\eta Area(v)

with WA wirelength smoothing, the electrostatic eDensity overlap model,
soft (or optionally hard) symmetry handling, the explicit analog area
term, and Nesterov's method — the combination that distinguishes
ePlace-A from the NTUplace3-based prior work [11].
"""

from __future__ import annotations

import numpy as np

from ..analytic import (
    ConstraintPenalties,
    DensityGrid,
    NesterovOptimizer,
    NetArrays,
    area_term,
    same_bits,
    wa_wirelength,
)
from ..netlist import Circuit
from ..obs import diagnose, emit, memory, metrics, trace
from ..obs.log import get_logger
from ..placement import Placement, PlacerResult
from .hard_symmetry import HardSymmetryMap
from .params import EPlaceParams

logger = get_logger("eplace")


def _grad_norm(gx: np.ndarray, gy: np.ndarray) -> float:
    """Euclidean norm of a stacked (gx, gy) gradient."""
    return float(np.hypot(np.linalg.norm(gx), np.linalg.norm(gy)))


class EPlaceGlobalPlacer:
    """Global placement engine for one circuit."""

    def __init__(
        self, circuit: Circuit, params: EPlaceParams | None = None
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.params = params or EPlaceParams()
        self.arrays = NetArrays(circuit)
        self.penalties = ConstraintPenalties(circuit)
        self.widths, self.heights = circuit.sizes()

        # region: square sized by total device area over utilisation
        side = float(
            np.sqrt(circuit.total_device_area() / self.params.utilization)
        )
        self.region = side
        self.density = DensityGrid(
            self.widths, self.heights, side, side, bins=self.params.bins
        )
        self.bin_size = side / self.params.bins
        self._lambda = 0.0
        self._overflow = 1.0
        # (x, y, terms) of the last _position_terms evaluation
        self._memo: tuple[np.ndarray, np.ndarray, dict] | None = None
        self._hard_map = (
            HardSymmetryMap(circuit)
            if self.params.symmetry_mode == "hard"
            else None
        )

    # ------------------------------------------------------------------
    def initial_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Devices clustered at the region centre with small jitter."""
        rng = np.random.default_rng(self.params.seed)
        n = self.circuit.num_devices
        centre = self.region / 2.0
        spread = self.region * 0.08
        x = centre + rng.uniform(-spread, spread, n)
        y = centre + rng.uniform(-spread, spread, n)
        return x, y

    # ------------------------------------------------------------------
    def _gamma(self) -> float:
        """WA smoothing parameter annealed with density overflow."""
        base = self.params.gamma_scale * self.bin_size
        return base * (1.0 + 19.0 * min(self._overflow, 1.0))

    def _position_terms(self, x: np.ndarray, y: np.ndarray) -> dict:
        """The objective terms that depend on ``(x, y)`` alone.

        Density (energy, gradient, overflow) and the constraint
        penalties, unweighted.  A one-entry memo keyed on the last
        point evaluated (bitwise) returns them again: after an adaptive
        restart the next reference point is the line search's accepted
        trial, which was the last point evaluated.  The memoized arrays
        are read-only, so no caller can change a later hit.
        """
        memo = self._memo
        if memo is not None and same_bits(memo[0], x) \
                and same_bits(memo[1], y):
            return memo[2]
        terms = self._eval_position_terms(x, y)
        for term in terms.values():
            for part in term:
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
        self._memo = (x.copy(), y.copy(), terms)
        return terms

    def _eval_position_terms(self, x: np.ndarray, y: np.ndarray) -> dict:
        """Uncached :meth:`_position_terms`: name -> (value, gx, gy[, ...])."""
        with trace.timer("eplace.gp.density"):
            terms = {"density": self.density.energy_and_grad(x, y)}
        with trace.timer("eplace.gp.penalties"):
            if self._hard_map is None:
                terms["symmetry"] = self.penalties.symmetry(x, y)
            terms["alignment"] = self.penalties.alignment(x, y)
            terms["ordering"] = self.penalties.ordering(x, y)
        return terms

    def _objective_xy(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Full objective terms and gradient in device-coordinate space."""
        p = self.params
        gamma = self._gamma()
        observing = trace.active()
        with trace.timer("eplace.gp.wirelength"):
            value_w, gx, gy = wa_wirelength(self.arrays, x, y, gamma)
        value = value_w
        wl_gnorm = _grad_norm(gx, gy) if observing else 0.0

        terms = self._position_terms(x, y)
        value_n, dgx, dgy, overflow = terms["density"]
        self._overflow = overflow
        value += self._lambda * value_n
        gx = gx + self._lambda * dgx
        gy = gy + self._lambda * dgy
        if observing:
            den_gnorm = self._lambda * _grad_norm(dgx, dgy)
            pre_pen_gx, pre_pen_gy = gx.copy(), gy.copy()

        value_a = 0.0
        if p.eta > 0.0:
            with trace.timer("eplace.gp.area"):
                value_a, agx, agy = area_term(
                    x, y, self.widths, self.heights, gamma
                )
            value += self._eta_scaled * value_a
            gx += self._eta_scaled * agx
            gy += self._eta_scaled * agy

        value_s = 0.0
        if self._hard_map is None:
            tau = self._tau_scaled
            value_s, sgx, sgy = terms["symmetry"]
            value += tau * value_s
            gx += tau * sgx
            gy += tau * sgy
        value_al, algx, algy = terms["alignment"]
        value_o, ogx, ogy = terms["ordering"]
        value += p.align_weight * value_al + p.order_weight * value_o
        gx += p.align_weight * algx + p.order_weight * ogx
        gy += p.align_weight * algy + p.order_weight * ogy
        if observing:
            # last-evaluation term values for the convergence recorder
            self._terms = {
                "wirelength": float(value_w),
                "density": float(value_n),
                "area": float(value_a),
                "symmetry": float(value_s),
                "alignment": float(value_al),
                "ordering": float(value_o),
            }
            # per-term gradient magnitudes for the health channel: the
            # penalty norm covers everything added after density
            # (area, symmetry, alignment, ordering)
            self._health = {
                "grad_wl_norm": wl_gnorm,
                "grad_density_norm": den_gnorm,
                "grad_penalty_norm": _grad_norm(
                    gx - pre_pen_gx, gy - pre_pen_gy
                ),
            }
        return value, gx, gy

    def _exact_hpwl(self, x: np.ndarray, y: np.ndarray) -> float:
        """Exact (non-smoothed) weighted HPWL at unflipped positions."""
        a = self.arrays
        px = x[a.pin_dev] + a.pin_offx
        py = y[a.pin_dev] + a.pin_offy
        spans = (
            a.segment_max(px) - a.segment_min(px)
            + a.segment_max(py) - a.segment_min(py)
        )
        return float(np.dot(a.weights, spans))

    # ------------------------------------------------------------------
    def _init_weights(self, x: np.ndarray, y: np.ndarray) -> None:
        """ePlace-style self-scaling of the multipliers.

        The density weight starts at ``lambda_init_ratio`` times the
        wirelength/density gradient-norm ratio; the symmetry and area
        weights are scaled to comparable gradient magnitudes so the
        user-facing ``tau``/``eta`` knobs stay O(1).
        """
        gamma = self._gamma()
        _, gx, gy = wa_wirelength(self.arrays, x, y, gamma)
        wl_norm = float(np.linalg.norm(np.concatenate([gx, gy])))
        self._wl_norm0 = wl_norm  # reused by performance-driven subclass
        _, dgx, dgy, _ = self.density.energy_and_grad(x, y)
        den_norm = float(
            np.linalg.norm(np.concatenate([dgx, dgy]))
        )
        self._lambda = (
            self.params.lambda_init_ratio * wl_norm / max(den_norm, 1e-12)
        )
        # area gradient scale
        _, agx, agy = area_term(x, y, self.widths, self.heights, gamma)
        area_norm = float(np.linalg.norm(np.concatenate([agx, agy])))
        self._eta_scaled = (
            self.params.eta * wl_norm / max(area_norm, 1e-12)
            if self.params.eta > 0 else 0.0
        )
        # symmetry scale: gradients vanish at symmetric starts, so scale
        # by value curvature instead — unit residual costs tau * wl_norm
        self._tau_scaled = self.params.tau * max(wl_norm, 1.0)

    # ------------------------------------------------------------------
    def place(self) -> PlacerResult:
        """Run global placement; returns centre coordinates (no flips)."""
        tracer = trace.current()
        clock = trace.Stopwatch()
        with tracer.span("eplace.gp", circuit=self.circuit.name), \
                memory.phase_peak("eplace.gp"):
            result = self._place(tracer, clock)
        metrics.counter("repro.global_placements").inc()
        result.trace = tracer.to_trace()  # now includes the root span
        diagnose.attach(result)
        return result

    def _place(
        self, tracer: trace.Tracer, clock: trace.Stopwatch
    ) -> PlacerResult:
        p = self.params
        with tracer.span("eplace.gp.init"):
            x, y = self.initial_positions()
            self._init_weights(x, y)
        n = self.circuit.num_devices

        half_w, half_h = self.widths / 2.0, self.heights / 2.0

        if self._hard_map is None:
            def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
                value, gx, gy = self._objective_xy(v[:n], v[n:])
                return value, np.concatenate([gx, gy])

            def projection(v: np.ndarray) -> np.ndarray:
                out = v.copy()
                out[:n] = np.clip(out[:n], half_w, self.region - half_w)
                out[n:] = np.clip(out[n:], half_h, self.region - half_h)
                return out

            v0 = np.concatenate([x, y])
        else:
            hard = self._hard_map

            def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
                fx, fy = hard.expand(v)
                value, gx, gy = self._objective_xy(fx, fy)
                return value, hard.pullback(gx, gy)

            def projection(v: np.ndarray) -> np.ndarray:
                fx, fy = hard.expand(v)
                fx = np.clip(fx, half_w, self.region - half_w)
                fy = np.clip(fy, half_h, self.region - half_h)
                return hard.reduce(fx, fy)

            v0 = hard.reduce(x, y)

        optimizer = NesterovOptimizer(
            v0, objective, projection=projection,
            alpha0=self.bin_size * 0.5,
        )
        history = []
        iterations = 0
        stop_reason = "max_iters"
        recording = tracer.enabled
        with tracer.span("eplace.gp.nesterov"):
            for iterations in range(1, p.max_iters + 1):
                info = optimizer.step()
                self._lambda *= p.lambda_mult
                history.append((info.value, self._overflow))
                if recording:
                    if self._hard_map is None:
                        cx, cy = optimizer.v[:n], optimizer.v[n:]
                    else:
                        cx, cy = self._hard_map.expand(optimizer.v)
                    values = dict(
                        value=info.value,
                        grad_norm=info.grad_norm,
                        step_length=info.step_length,
                        overflow=self._overflow,
                        density_weight=self._lambda,
                        hpwl=self._exact_hpwl(cx, cy),
                        **getattr(self, "_terms", {}),
                    )
                    hvalues = dict(
                        grad_norm=info.grad_norm,
                        step_length=info.step_length,
                        step_predicted=info.step_predicted,
                        backtracks=float(info.backtracks),
                        restarted=float(info.restarted),
                        density_weight=self._lambda,
                        tau=self._tau_scaled,
                        eta=self._eta_scaled,
                        overflow=self._overflow,
                        **getattr(self, "_health", {}),
                    )
                    emit("eplace.nesterov", iterations,
                         progress=values, health=hvalues)
                if (
                    iterations >= p.min_iters
                    and self._overflow < p.overflow_stop
                ):
                    stop_reason = "overflow"
                    break
                if info.frozen:
                    # later steps repeat this one (NesterovOptimizer.step)
                    stop_reason = "frozen"
                    break

        if self._hard_map is None:
            x, y = optimizer.v[:n], optimizer.v[n:]
        else:
            x, y = self._hard_map.expand(optimizer.v)
        placement = Placement(self.circuit, x, y)
        logger.debug(
            "eplace GP %s: %d iterations, overflow %.4f, stopped: %s",
            self.circuit.name, iterations, self._overflow, stop_reason,
        )
        return PlacerResult(
            placement=placement,
            runtime_s=clock.elapsed(),
            method=f"eplace-gp[{p.symmetry_mode}]",
            stats={
                "iterations": iterations,
                "stop_reason": stop_reason,
                "final_overflow": self._overflow,
                "final_lambda": self._lambda,
                "region": self.region,
                "history": history,
            },
        )


def eplace_global(
    circuit: Circuit, params: EPlaceParams | None = None
) -> PlacerResult:
    """Convenience wrapper: run ePlace-A global placement once."""
    return EPlaceGlobalPlacer(circuit, params).place()
