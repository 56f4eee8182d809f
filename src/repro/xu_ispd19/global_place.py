"""Global placement in the style of the previous analytical work [11].

Xu et al. (ISPD'19) build on NTUplace3 [10]: LSE-smoothed wirelength, a
bell-shaped quadratic density penalty, soft symmetry, and a conjugate-
gradient solver that multiplies the density weight stage by stage.  Two
deliberate omissions relative to ePlace-A reproduce the paper's analysis
of why [11] trails in quality (Table III discussion): **no explicit area
term** and **LSE instead of WA smoothing** (device flipping, the third
cited difference, lives in the detailed placers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..analytic import (
    BellDensityGrid,
    ConstraintPenalties,
    NetArrays,
    conjugate_gradient,
    lse_wirelength,
)
from ..netlist import Circuit
from ..obs import diagnose, emit, memory, metrics, trace
from ..obs.log import get_logger
from ..placement import Placement, PlacerResult

logger = get_logger("xu_ispd19")


@dataclass
class XuParams:
    """Tuning knobs for the [11]-style global placer."""

    utilization: float = 0.6
    bins: int = 16
    gamma_scale: float = 1.5
    lambda_init_ratio: float = 0.05
    lambda_mult: float = 2.0
    tau: float = 4.0
    align_weight: float = 2.0
    order_weight: float = 2.0
    stages: int = 8
    cg_iterations: int = 60
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError("utilization must be in (0, 1]")
        if self.stages < 1 or self.cg_iterations < 1:
            raise ValueError("stages and cg_iterations must be positive")
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins}")
        for name in ("gamma_scale", "lambda_init_ratio", "lambda_mult"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"{name} must be finite and > 0, got {value}"
                )


class XuGlobalPlacer:
    """NTUplace3-style stage-looped CG global placement."""

    def __init__(
        self, circuit: Circuit, params: XuParams | None = None
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.params = params or XuParams()
        self.arrays = NetArrays(circuit)
        self.penalties = ConstraintPenalties(circuit)
        self.widths, self.heights = circuit.sizes()
        side = float(
            np.sqrt(circuit.total_device_area() / self.params.utilization)
        )
        self.region = side
        self.density = BellDensityGrid(
            self.widths, self.heights, side, side, bins=self.params.bins
        )
        self.gamma = self.params.gamma_scale * side / self.params.bins

    # ------------------------------------------------------------------
    def initial_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Centre cluster with jitter, like the ePlace-A initialiser."""
        rng = np.random.default_rng(self.params.seed)
        n = self.circuit.num_devices
        centre = self.region / 2.0
        spread = self.region * 0.08
        return (
            centre + rng.uniform(-spread, spread, n),
            centre + rng.uniform(-spread, spread, n),
        )

    def _objective(self, lam: float, tau: float):
        n = self.circuit.num_devices
        p = self.params
        half_w, half_h = self.widths / 2.0, self.heights / 2.0

        def fun(v: np.ndarray) -> tuple[float, np.ndarray]:
            # clamp into the region through a smooth barrier-free clip:
            # CG has no projection, so out-of-region excursions are
            # penalised quadratically instead
            x, y = v[:n], v[n:]
            with trace.timer("xu.gp.wirelength"):
                value, gx, gy = lse_wirelength(
                    self.arrays, x, y, self.gamma
                )
            with trace.timer("xu.gp.density"):
                dv, dgx, dgy = self.density.penalty_and_grad(x, y)
            value += lam * dv
            gx = gx + lam * dgx
            gy = gy + lam * dgy
            with trace.timer("xu.gp.penalties"):
                sv, sgx, sgy = self.penalties.symmetry(x, y)
                value += tau * sv
                gx += tau * sgx
                gy += tau * sgy
                av, agx, agy = self.penalties.alignment(x, y)
                ov, ogx, ogy = self.penalties.ordering(x, y)
            value += p.align_weight * av + p.order_weight * ov
            gx += p.align_weight * agx + p.order_weight * ogx
            gy += p.align_weight * agy + p.order_weight * ogy
            # region fence
            lo_x = np.clip(half_w - x, 0.0, None)
            hi_x = np.clip(x - (self.region - half_w), 0.0, None)
            lo_y = np.clip(half_h - y, 0.0, None)
            hi_y = np.clip(y - (self.region - half_h), 0.0, None)
            fence = float(
                (lo_x ** 2 + hi_x ** 2 + lo_y ** 2 + hi_y ** 2).sum()
            )
            value += 10.0 * fence
            gx += 10.0 * 2.0 * (hi_x - lo_x)
            gy += 10.0 * 2.0 * (hi_y - lo_y)
            return value, np.concatenate([gx, gy])

        return fun

    # ------------------------------------------------------------------
    def place(self) -> PlacerResult:
        tracer = trace.current()
        clock = trace.Stopwatch()
        with tracer.span("xu.gp", circuit=self.circuit.name), \
                memory.phase_peak("xu.gp"):
            result = self._place(tracer, clock)
        metrics.counter("repro.global_placements").inc()
        result.trace = tracer.to_trace()  # now includes the root span
        diagnose.attach(result)
        return result

    def _place(
        self, tracer: trace.Tracer, clock: trace.Stopwatch
    ) -> PlacerResult:
        p = self.params
        with tracer.span("xu.gp.init"):
            x, y = self.initial_positions()
            n = self.circuit.num_devices
            v = np.concatenate([x, y])

            # self-scaled initial density weight, as in ePlace-A
            _, gx, gy = lse_wirelength(self.arrays, x, y, self.gamma)
            wl_norm = float(np.linalg.norm(np.concatenate([gx, gy])))
            self._wl_norm0 = wl_norm  # reused by perf-driven subclass
            _, dgx, dgy = self.density.penalty_and_grad(x, y)
            den_norm = float(
                np.linalg.norm(np.concatenate([dgx, dgy]))
            )
        lam = p.lambda_init_ratio * wl_norm / max(den_norm, 1e-12)
        tau = p.tau * max(wl_norm, 1.0)

        history = []
        for stage in range(p.stages):
            fun = self._objective(lam, tau)
            callback = None
            if tracer.enabled:
                base = stage * p.cg_iterations
                lam_now = lam

                def callback(it, value, grad_norm, step, halvings,
                             restarts, _base=base, _stage=stage,
                             _lam=lam_now):
                    values = dict(
                        stage=_stage, value=value,
                        grad_norm=grad_norm, step_length=step,
                        density_weight=_lam,
                    )
                    hvalues = dict(
                        residual=grad_norm, step_length=step,
                        line_search_halvings=float(halvings),
                        restarts=float(restarts),
                        density_weight=_lam,
                        **getattr(self, "_health", {}),
                    )
                    emit("xu.cg", _base + it,
                         progress=values, health=hvalues)
            with tracer.span("xu.gp.stage", stage=stage):
                result = conjugate_gradient(
                    fun, v, iterations=p.cg_iterations, tol=1e-9,
                    alpha0=self.region / self.params.bins,
                    callback=callback,
                )
            v = result.v
            history.append((stage, result.value, lam))
            if tracer.enabled:
                values = dict(
                    value=result.value,
                    grad_norm=result.grad_norm,
                    density_weight=lam,
                    hpwl=self._exact_hpwl(v[:n], v[n:]),
                )
                hstage = dict(
                    residual=result.grad_norm,
                    cg_iterations=float(result.iterations),
                    converged=float(result.converged),
                    density_weight=lam,
                )
                emit("xu.stage", stage, progress=values, health=hstage)
            lam *= p.lambda_mult

        placement = Placement(self.circuit, v[:n], v[n:])
        logger.debug(
            "xu GP %s: %d stages, final lambda %.3g",
            self.circuit.name, p.stages, lam,
        )
        return PlacerResult(
            placement=placement,
            runtime_s=clock.elapsed(),
            method="xu-ispd19-gp",
            stats={
                "stages": p.stages,
                "final_lambda": lam,
                "region": self.region,
                "history": history,
            },
        )

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


def xu_global(
    circuit: Circuit, params: XuParams | None = None
) -> PlacerResult:
    """Convenience wrapper: run the [11]-style global placement once."""
    return XuGlobalPlacer(circuit, params).place()
