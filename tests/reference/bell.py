"""Per-device loop reference for :class:`repro.analytic.BellDensityGrid`.

``BellDensityGrid.penalty_and_grad`` evaluates every device's bell over
the whole grid in one array pass; this loop cuts each device's bell to
the bin window its support can reach and deposits it there.
"""

from __future__ import annotations

import numpy as np

from repro.analytic import BellDensityGrid, bell_profile


def windows(grid: BellDensityGrid, xc: float, yc: float, i: int):
    """Bin index ranges covered by device i's bell support."""
    rx = grid.widths[i] / 2 + 2 * grid.hx
    ry = grid.heights[i] / 2 + 2 * grid.hy
    bx0 = max(int((xc - rx) / grid.hx), 0)
    bx1 = min(int(np.ceil((xc + rx) / grid.hx)), grid.bins)
    by0 = max(int((yc - ry) / grid.hy), 0)
    by1 = min(int(np.ceil((yc + ry) / grid.hy)), grid.bins)
    return bx0, max(bx1, bx0), by0, max(by1, by0)


def device_bells(grid: BellDensityGrid, xc: float, yc: float, i: int):
    """Device i's windowed bells, their derivatives and its ``c_i``."""
    bx0, bx1, by0, by1 = windows(grid, xc, yc, i)
    dx = xc - grid.centers_x[bx0:bx1]
    dy = yc - grid.centers_y[by0:by1]
    px, dpx_d = bell_profile(dx, grid.widths[i], grid.hx)
    py, dpy_d = bell_profile(dy, grid.heights[i], grid.hy)
    # d(profile)/d(xc): distance d = xc - center, so same sign
    total = px.sum() * py.sum()
    c = grid.areas[i] / total if total > 0 else 0.0
    return bx0, bx1, by0, by1, px, dpx_d, py, dpy_d, c


def penalty_and_grad_loop(
    grid: BellDensityGrid, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Quadratic density penalty and gradient, one device at a time."""
    n = len(x)
    density = np.zeros((grid.bins, grid.bins))
    # cache per-device window data for the gradient pass
    cache = []
    for i in range(n):
        bx0, bx1, by0, by1, px, dpx, py, dpy, c = device_bells(
            grid, float(x[i]), float(y[i]), i
        )
        if px.size == 0 or py.size == 0:
            cache.append(None)
            continue
        density[bx0:bx1, by0:by1] += c * np.outer(px, py)
        cache.append((bx0, bx1, by0, by1, px, dpx, py, dpy, c))

    resid = density - grid.target
    penalty = float((resid ** 2).sum())

    grad_x = np.zeros(n)
    grad_y = np.zeros(n)
    for i in range(n):
        if cache[i] is None:
            continue
        bx0, bx1, by0, by1, px, dpx, py, dpy, c = cache[i]
        window = resid[bx0:bx1, by0:by1]
        grad_x[i] = 2.0 * c * float(np.einsum("xy,x,y->", window, dpx, py))
        grad_y[i] = 2.0 * c * float(np.einsum("xy,x,y->", window, px, dpy))
    return penalty, grad_x, grad_y
