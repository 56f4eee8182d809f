"""Two-evaluation reference for :func:`repro.analytic.conjugate_gradient`.

This is the textbook form of the PR+ loop: the line search only looks
at objective values, and once it accepts a step the loop evaluates the
objective again at that point for its gradient.  Production reuses the
gradient the accepted trial already returned, so for a deterministic
objective both must produce bit-identical iterates.
"""

from __future__ import annotations

import numpy as np

from repro.analytic import CGResult
from repro.analytic.cg import Objective


def armijo_values_only(
    objective: Objective,
    v: np.ndarray,
    value: float,
    grad: np.ndarray,
    direction: np.ndarray,
    alpha0: float,
    c1: float = 1e-4,
    max_halvings: int = 20,
) -> tuple[np.ndarray, float, float, int]:
    """Backtracking line search that discards trial gradients."""
    slope = float(np.dot(grad, direction))
    if slope >= 0.0:
        direction = -grad
        slope = -float(np.dot(grad, grad))
    alpha = alpha0
    for halvings in range(max_halvings):
        candidate = v + alpha * direction
        value_c, _ = objective(candidate)
        if value_c <= value + c1 * alpha * slope:
            return candidate, value_c, alpha, halvings
        alpha *= 0.5
    candidate = v + alpha * direction
    value_c, _ = objective(candidate)
    return candidate, value_c, alpha, max_halvings


def conjugate_gradient_two_eval(
    objective: Objective,
    v0: np.ndarray,
    iterations: int = 200,
    tol: float = 1e-6,
    alpha0: float = 1.0,
) -> CGResult:
    """PR+ conjugate gradient that re-evaluates each accepted point."""
    v = np.asarray(v0, dtype=float).copy()
    value, grad = objective(v)
    direction = -grad
    alpha = alpha0
    iteration = 0
    for iteration in range(1, iterations + 1):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < tol:
            return CGResult(v, value, grad_norm, iteration - 1, True)
        v_new, value_new, alpha_used, _ = armijo_values_only(
            objective, v, value, grad, direction, alpha
        )
        if not np.isfinite(value_new) or value_new > value:
            direction = -grad
            alpha = max(alpha * 0.25, 1e-15)
            continue
        _, grad_new = objective(v_new)
        y = grad_new - grad
        denom = float(np.dot(grad, grad))
        beta = max(0.0, float(np.dot(grad_new, y)) / max(denom, 1e-30))
        if not np.isfinite(beta) or beta > 1e3:
            beta = 0.0
        direction = -grad_new + beta * direction
        dir_norm = float(np.linalg.norm(direction))
        new_norm = float(np.linalg.norm(grad_new))
        if not np.isfinite(dir_norm) or dir_norm > 1e6 * max(new_norm,
                                                             1e-12):
            direction = -grad_new
        v, value, grad = v_new, value_new, grad_new
        alpha = max(alpha_used * 2.0, 1e-12)
    return CGResult(v, value, float(np.linalg.norm(grad)), iteration, False)
