"""Bell-shaped density smoothing (NTUplace3 [10], used by baseline [11]).

Each device spreads its area into bins through a separable bell-shaped
kernel :math:`p_x(d) \\cdot p_y(d)`; the density penalty is
:math:`\\sum_b (D_b - D_{target})^2`.  Following NTUplace3, along one
axis with device size :math:`w_i` and bin size :math:`w_b`:

.. math::
    p(d) = \\begin{cases}
      1 - a d^2 & 0 \\le d \\le w_i/2 + w_b \\\\
      b (d - w_i/2 - 2 w_b)^2 & w_i/2 + w_b \\le d \\le w_i/2 + 2 w_b \\\\
      0 & \\text{otherwise}
    \\end{cases}

with :math:`a = 4 / ((w_i + 2 w_b)(w_i + 4 w_b))` and
:math:`b = 2 / (w_b (w_i + 4 w_b))`, which makes :math:`p` continuous
and differentiable at both junctions.  ``d`` is the distance between
the device centre and the bin centre.
"""

from __future__ import annotations

import numpy as np


def bell_profile(
    d: np.ndarray, size: float | np.ndarray, bin_size: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bell value and derivative w.r.t. signed distance ``d``.

    ``d`` may be signed; the bell is even, so the derivative is odd.
    ``size`` is one device size or an array that broadcasts against
    ``d`` (e.g. ``(n, 1)`` sizes against ``(n, bins)`` distances).
    """
    ad = np.abs(d)
    knee = size / 2 + bin_size
    cutoff = size / 2 + 2 * bin_size
    a = 4.0 / ((size + 2 * bin_size) * (size + 4 * bin_size))
    b = 2.0 / (bin_size * (size + 4 * bin_size))

    inner = ad <= knee
    outer = ad <= cutoff  # only consulted where ``inner`` is false
    value = np.where(
        inner, 1.0 - a * ad ** 2,
        np.where(outer, b * (ad - cutoff) ** 2, 0.0),
    )
    deriv = np.where(
        inner, -2.0 * a * ad,
        np.where(outer, 2.0 * b * (ad - cutoff), 0.0),
    )
    return value, deriv * np.sign(d)


class BellDensityGrid:
    """Bin grid evaluating the NTUplace3 quadratic density penalty."""

    def __init__(
        self,
        widths: np.ndarray,
        heights: np.ndarray,
        region_w: float,
        region_h: float,
        bins: int = 32,
    ) -> None:
        self.widths = np.asarray(widths, dtype=float)
        self.heights = np.asarray(heights, dtype=float)
        self.areas = self.widths * self.heights
        self.region_w = float(region_w)
        self.region_h = float(region_h)
        self.bins = int(bins)
        self.hx = self.region_w / self.bins
        self.hy = self.region_h / self.bins
        self.centers_x = (np.arange(self.bins) + 0.5) * self.hx
        self.centers_y = (np.arange(self.bins) + 0.5) * self.hy
        self.target = self.areas.sum() / (self.bins * self.bins)

    def penalty_and_grad(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Quadratic density penalty and its analytic gradient.

        The device's bell mass is normalised so its total deposited area
        equals the true device area (NTUplace3's :math:`c_i` factor).

        All devices go through one array pass over per-axis ``(n, bins)``
        profile matrices: row ``i`` of ``px`` is device ``i``'s bell over
        every x-bin centre, exactly zero beyond its support, so
        ``density[bx, by] = sum_i c_i px[i, bx] py[i, by]`` is one
        matmul.  The gradient factorises the same way:
        ``dP/dx_i = 2 c_i dpx[i] @ resid @ py[i]``, with the normalisation
        :math:`c_i` held constant (it is not differentiated).
        """
        # d(profile)/d(xc): distance d = xc - center, so same sign
        px, dpx = bell_profile(
            x[:, None] - self.centers_x[None, :],
            self.widths[:, None], self.hx,
        )
        py, dpy = bell_profile(
            y[:, None] - self.centers_y[None, :],
            self.heights[:, None], self.hy,
        )
        totals = px.sum(axis=1) * py.sum(axis=1)
        c = np.where(
            totals > 0,
            self.areas / np.where(totals > 0, totals, 1.0),
            0.0,
        )
        density = (c[:, None] * px).T @ py

        resid = density - self.target
        penalty = float((resid ** 2).sum())

        grad_x = 2.0 * c * ((dpx @ resid) * py).sum(axis=1)
        grad_y = 2.0 * c * ((px @ resid) * dpy).sum(axis=1)
        return penalty, grad_x, grad_y
