"""Numerically-guarded primitives for the smoothing kernels.

The LSE/WA/area kernels shift every exponent by the per-net extremum,
so arguments are ≤ 0 *by construction* — but that invariant lives three
expressions away from the ``np.exp`` call and silently breaks when a
kernel is edited (a sign slip turns the shift into an amplifier and
``exp`` overflows to ``inf``, which then propagates ``nan`` through
the gradient without failing a single assertion).  These helpers make
the guard part of the call site, which is what the ``RPR101``/
``RPR102`` lint rules enforce.

The clip bounds are far outside the kernels' operating range (shifted
exponents live in ``[-span/gamma, 0]`` and the sums they feed are
``≥ 1``), so guarded and unguarded results are bit-identical on valid
inputs; the guards only change behaviour once the maths has already
gone wrong, converting overflow into saturation.
"""

from __future__ import annotations

import numpy as np

#: exponent clip bound: exp(±60) spans ~1e-27..1e26, far beyond any
#: shifted-softmax operating range yet safely inside double range
EXP_CLIP = 60.0

#: generic positive-denominator floor
DIV_EPS = 1e-30


def clipped_exp(
    a: np.ndarray | float, bound: float = EXP_CLIP
) -> np.ndarray:
    """``exp(a)`` with the argument clipped into ``[-bound, bound]``.

    The clip is spelled as two ufuncs: bitwise ``np.clip`` (NaN
    included) without its Python-level dispatch, which costs more than
    the exponential at per-net array sizes.
    """
    return np.exp(np.minimum(np.maximum(a, -bound), bound))


def safe_log(
    a: np.ndarray | float, eps: float = DIV_EPS
) -> np.ndarray:
    """``log(max(a, eps))`` — never ``-inf``/``nan`` on zero input."""
    return np.log(np.maximum(a, eps))


def safe_div(
    num: np.ndarray | float,
    den: np.ndarray | float,
    eps: float = DIV_EPS,
) -> np.ndarray:
    """``num / den`` with a positive denominator floored at ``eps``.

    Intended for denominators that are non-negative by construction
    (sums of exponentials, masses, norms); for signed denominators
    guard the sign explicitly at the call site.
    """
    return np.asarray(num) / np.maximum(den, eps)
