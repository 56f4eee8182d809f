"""Polak-Ribiere conjugate gradient with Armijo line search.

NTUplace3 [10] — the digital placer underlying the previous analytical
analog work [11] — solves its unconstrained smoothed objective with
conjugate gradient.  We implement PR+ (the Polak-Ribiere variant with
non-negativity reset), a standard robust choice for the non-convex
placement objective.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass
class CGResult:
    """Outcome of a conjugate-gradient run."""

    v: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool


def _armijo(
    objective: Objective,
    v: np.ndarray,
    value: float,
    grad: np.ndarray,
    direction: np.ndarray,
    alpha0: float,
    c1: float = 1e-4,
    max_halvings: int = 20,
) -> tuple[np.ndarray, float, np.ndarray, float, int]:
    """Backtracking line search.

    Returns ``(v_new, value_new, grad_new, alpha, halvings)`` where
    ``grad_new`` is the gradient the objective returned at ``v_new``
    (so the caller never re-evaluates the accepted point) and
    ``halvings`` counts the backtracking steps the search needed — zero
    means the doubled previous step was immediately acceptable.
    """
    slope = float(np.dot(grad, direction))
    if slope >= 0.0:  # not a descent direction: fall back to steepest
        direction = -grad
        slope = -float(np.dot(grad, grad))
    alpha = alpha0
    for halvings in range(max_halvings):
        candidate = v + alpha * direction
        value_c, grad_c = objective(candidate)
        if value_c <= value + c1 * alpha * slope:
            return candidate, value_c, grad_c, alpha, halvings
        alpha *= 0.5
    candidate = v + alpha * direction
    value_c, grad_c = objective(candidate)
    return candidate, value_c, grad_c, alpha, max_halvings


def conjugate_gradient(
    objective: Objective,
    v0: np.ndarray,
    iterations: int = 200,
    tol: float = 1e-6,
    alpha0: float = 1.0,
    callback: Callable[..., None] | None = None,
) -> CGResult:
    """Minimise ``objective`` from ``v0`` with PR+ conjugate gradient.

    The initial line-search step adapts: each iteration starts from
    twice the previous accepted step, which keeps the search cheap once
    the scale of the landscape is known.  The objective runs once per
    line-search trial (plus once at ``v0``): the accepted step reuses
    the gradient its trial already returned.

    ``callback``, when given, is invoked after every *accepted* step as
    ``callback(iteration, value, grad_norm, step_length, halvings,
    restarts)`` — ``halvings`` is the line-search backtrack count for
    this step and ``restarts`` the cumulative steepest-descent /
    conjugacy resets so far, the solver internals the health records
    carry; ``None`` (the default) costs nothing.
    """
    v = np.asarray(v0, dtype=float).copy()
    value, grad = objective(v)
    direction = -grad
    alpha = alpha0
    iteration = 0
    restarts = 0
    for iteration in range(1, iterations + 1):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < tol:
            return CGResult(v, value, grad_norm, iteration - 1, True)
        v_new, value_new, grad_new, alpha_used, halvings = _armijo(
            objective, v, value, grad, direction, alpha
        )
        if not np.isfinite(value_new) or value_new > value:
            # rejected step: restart from steepest descent, smaller step
            direction = -grad
            alpha = max(alpha * 0.25, 1e-15)
            restarts += 1
            continue
        if callback is not None:
            callback(
                iteration, value_new,
                float(np.linalg.norm(grad_new)), alpha_used,
                halvings, restarts,
            )
        # Polak-Ribiere+ coefficient with automatic reset
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
            direction = -grad_new  # runaway conjugacy: reset
            restarts += 1
        v, value, grad = v_new, value_new, grad_new
        alpha = max(alpha_used * 2.0, 1e-12)
    return CGResult(v, value, float(np.linalg.norm(grad)), iteration, False)
