"""Nesterov's accelerated gradient method with Lipschitz step prediction.

ePlace [15] distinguishes itself from earlier analytical placers by
solving the placement NLP with Nesterov's method [24]; the step length
is predicted from a local Lipschitz estimate
:math:`\\hat L = \\lVert \\nabla f(u_k) - \\nabla f(u_{k-1}) \\rVert /
\\lVert u_k - u_{k-1} \\rVert`, and the iteration restarts when the
objective rises (adaptive restart, standard for non-convex placement
landscapes).

The backtracking here is an Armijo test on the objective *value*:
the predicted step is halved until
:math:`f(v_{k+1}) \\le f(u_k) - \\tfrac14 \\alpha
\\lVert \\nabla f(u_k) \\rVert^2`.  ePlace's own backtracking instead
re-checks the Lipschitz prediction against the gradient at the trial
point, which would change every placement this module produces.

The optimiser is a *stepper*: callers invoke :meth:`step` once per
placement iteration and may change the objective between steps (ePlace
re-weights its density multiplier every iteration).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]
Projection = Callable[[np.ndarray], np.ndarray]


@dataclass
class StepInfo:
    """Telemetry for one Nesterov step.

    ``step_predicted`` is the inverse-Lipschitz step before the
    backtracking line search touched it and ``backtracks`` counts the
    halvings it took — together they say how often the local curvature
    estimate overshoots (the health records carry both).  A search
    that exhausts every trial reports ``backtrack + 1`` halvings.

    ``frozen`` marks a step that had step length exactly 0 and left
    both iterates bitwise unchanged: every later step repeats it, so
    callers may stop (see :meth:`NesterovOptimizer.step`).
    """

    iteration: int
    value: float
    grad_norm: float
    step_length: float
    restarted: bool
    step_predicted: float = 0.0
    backtracks: int = 0
    frozen: bool = False


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two float arrays are bitwise identical."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class NesterovOptimizer:
    """Accelerated gradient descent over a flat parameter vector.

    Parameters
    ----------
    v0:
        Initial parameter vector (copied).
    objective:
        Callable returning ``(value, gradient)``.
    projection:
        Optional feasible-set projection applied to every major iterate
        (e.g. clamping device centres into the placement region).
    alpha0:
        Initial step length before a Lipschitz estimate exists.
    backtrack:
        Maximum halvings per step when the predicted step overshoots.
    """

    def __init__(
        self,
        v0: np.ndarray,
        objective: Objective,
        projection: Projection | None = None,
        alpha0: float = 1e-2,
        backtrack: int = 12,
    ) -> None:
        self.objective = objective
        self.projection = projection if projection is not None else lambda v: v
        self.v = self.projection(np.asarray(v0, dtype=float).copy())
        self.u = self.v.copy()  # reference (look-ahead) solution
        self.a = 1.0  # Nesterov momentum coefficient
        self.alpha = float(alpha0)
        self.backtrack = int(backtrack)
        self.iteration = 0
        self._prev_u: np.ndarray | None = None
        self._prev_grad_u: np.ndarray | None = None
        self._prev_value = np.inf

    # ------------------------------------------------------------------
    def _lipschitz_alpha(self, grad_u: np.ndarray) -> float:
        """Inverse local Lipschitz constant from consecutive gradients."""
        if self._prev_u is None:
            return self.alpha
        du = self.u - self._prev_u
        dg = grad_u - self._prev_grad_u
        dg_norm = float(np.linalg.norm(dg))
        if dg_norm <= 1e-30:
            return self.alpha * 2.0
        return float(np.linalg.norm(du)) / dg_norm

    def step(self) -> StepInfo:
        """Perform one accelerated step; returns step telemetry."""
        value_u, grad_u = self.objective(self.u)
        grad_norm = float(np.linalg.norm(grad_u))
        alpha = self._lipschitz_alpha(grad_u)
        alpha_predicted = alpha

        # backtracking on the major solution: require simple descent
        # relative to the reference value (Armijo-like with c=0.25)
        v_new = None
        value_new = np.inf
        backtracks = 0
        for attempt in range(self.backtrack + 1):
            candidate = self.projection(self.u - alpha * grad_u)
            value_c, _ = self.objective(candidate)
            if value_c <= value_u - 0.25 * alpha * grad_norm ** 2 \
                    or grad_norm == 0.0:
                v_new, value_new = candidate, value_c
                backtracks = attempt
                break
            alpha *= 0.5
        if v_new is None:  # objective too rough locally: take tiny step
            v_new = self.projection(self.u - alpha * grad_u)
            value_new, _ = self.objective(v_new)
            backtracks = self.backtrack + 1

        restarted = False
        if value_new > self._prev_value:
            # adaptive restart: drop momentum, fall back to plain descent
            self.a = 1.0
            restarted = True

        a_next = (1.0 + np.sqrt(4.0 * self.a * self.a + 1.0)) / 2.0
        momentum = (self.a - 1.0) / a_next
        u_new = self.projection(v_new + momentum * (v_new - self.v))

        # A zero step that moved neither iterate freezes the optimiser:
        # the next Lipschitz estimate is ||u - u_prev|| / ||dg|| = 0 (or
        # 2 * 0 when dg vanishes), whatever the objective has become,
        # so every later step projects the same u with step 0, takes
        # the same v and the same u (v - v_prev = 0 kills the momentum
        # term), and the v returned after any number of further steps
        # is bitwise this one.
        frozen = (
            alpha == 0.0
            and same_bits(v_new, self.v)
            and same_bits(u_new, self.u)
        )

        self._prev_u = self.u
        self._prev_grad_u = grad_u
        self._prev_value = value_new
        self.v = v_new
        self.u = u_new
        self.a = a_next
        self.alpha = alpha
        self.iteration += 1
        return StepInfo(
            iteration=self.iteration,
            value=value_new,
            grad_norm=grad_norm,
            step_length=alpha,
            restarted=restarted,
            step_predicted=alpha_predicted,
            backtracks=backtracks,
            frozen=frozen,
        )

    # ------------------------------------------------------------------
    def run(self, iterations: int, tol: float = 0.0) -> StepInfo:
        """Run up to ``iterations`` steps; stop early below ``tol``."""
        info = None
        for _ in range(iterations):
            info = self.step()
            if tol > 0.0 and info.grad_norm < tol:
                break
        if info is None:
            value, grad = self.objective(self.v)
            info = StepInfo(0, value, float(np.linalg.norm(grad)),
                            self.alpha, False)
        return info
