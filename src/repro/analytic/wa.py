"""Weighted-Average (WA) wirelength smoothing (paper eq. 2, from [15], [23]).

For a net :math:`e` the span :math:`\\max_{i \\in e} x_i - \\min_{i \\in e}
x_i` is approximated by

.. math::
    WA_e(x) = \\frac{\\sum_i x_i e^{x_i/\\gamma}}{\\sum_i e^{x_i/\\gamma}}
            - \\frac{\\sum_i x_i e^{-x_i/\\gamma}}{\\sum_i e^{-x_i/\\gamma}}

which overestimates neither bound and has the analytic gradient

.. math::
    \\frac{\\partial WA^{max}}{\\partial x_k}
        = \\frac{e^{x_k/\\gamma}}{\\sum_i e^{x_i/\\gamma}}
          \\left(1 + \\frac{x_k - WA^{max}}{\\gamma}\\right)

(and the mirrored expression for the min estimator).  All exponentials
are computed relative to the per-net extremum for numerical stability.
"""

from __future__ import annotations

import numpy as np

from .netarrays import NetArrays
from .stable import clipped_exp, safe_div


def _wa_estimators(
    arrays: NetArrays, coords: np.ndarray, gamma: float
) -> tuple[np.ndarray, ...]:
    """Per-net max/min WA estimators along one axis.

    Returns ``(f_max, a, denom_max, f_min, b, denom_min)``: the two
    estimators and the shifted exponentials and their per-net sums,
    which the gradient reuses.  Exponents are shifted by the per-net
    extremum (≤ 0), so each denominator contains a unit term and is
    ≥ 1; the stable-helper guards are no-ops on valid input and only
    catch kernel bugs.
    """
    seg = arrays.pin_net

    # -- max estimator ------------------------------------------------
    seg_max = arrays.segment_max(coords)
    a = clipped_exp((coords - seg_max[seg]) / gamma)
    denom_max = arrays.segment_sum(a)
    numer_max = arrays.segment_sum(coords * a)
    f_max = safe_div(numer_max, denom_max)

    # -- min estimator ------------------------------------------------
    seg_min = arrays.segment_min(coords)
    b = clipped_exp(-(coords - seg_min[seg]) / gamma)
    denom_min = arrays.segment_sum(b)
    numer_min = arrays.segment_sum(coords * b)
    f_min = safe_div(numer_min, denom_min)

    return f_max, a, denom_max, f_min, b, denom_min


def wa_span(
    arrays: NetArrays, coords: np.ndarray, gamma: float
) -> np.ndarray:
    """Per-net WA span along one axis, without the gradient."""
    f_max, _, _, f_min, _, _ = _wa_estimators(arrays, coords, gamma)
    return f_max - f_min


def _wa_axis(
    arrays: NetArrays, coords: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-net WA span and per-pin gradient along one axis."""
    seg = arrays.pin_net
    f_max, a, denom_max, f_min, b, denom_min = _wa_estimators(
        arrays, coords, gamma)
    grad_max = safe_div(a, denom_max[seg]) * (
        1.0 + (coords - f_max[seg]) / gamma
    )
    grad_min = safe_div(b, denom_min[seg]) * (
        1.0 - (coords - f_min[seg]) / gamma
    )
    return f_max - f_min, grad_max - grad_min


def wa_wirelength(
    arrays: NetArrays,
    x: np.ndarray,
    y: np.ndarray,
    gamma: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Smoothed weighted HPWL and its gradient w.r.t. device centres.

    Returns ``(value, grad_x, grad_y)`` where the gradients have one
    entry per device (pin gradients accumulated through the rigid
    pin-offset attachment).
    """
    px, py = arrays.pin_coords(x, y)
    span_x, pin_grad_x = _wa_axis(arrays, px, gamma)
    span_y, pin_grad_y = _wa_axis(arrays, py, gamma)

    w = arrays.weights
    value = float(np.dot(w, span_x + span_y))
    w_per_pin = w[arrays.pin_net]
    grad_x = arrays.scatter_to_devices(w_per_pin * pin_grad_x, len(x))
    grad_y = arrays.scatter_to_devices(w_per_pin * pin_grad_y, len(y))
    return value, grad_x, grad_y
