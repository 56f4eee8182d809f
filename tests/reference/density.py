"""Per-device loop reference for :class:`repro.analytic.DensityGrid`.

``DensityGrid.rasterize`` / ``energy_and_grad`` compute the same sums
as one pass over ``(n, bins)`` overlap matrices; these loops visit one
device's covered bin window at a time.
"""

from __future__ import annotations

import numpy as np

from repro.analytic import DensityGrid, poisson_solve_dct


def device_window(grid: DensityGrid, xc: float, yc: float, i: int):
    """Covered bin index range and 1-D overlap weights for device i.

    Device extents are clamped to the region so every device always
    deposits its full charge somewhere.
    """
    half_w, half_h = grid.widths[i] / 2, grid.heights[i] / 2
    xlo = np.clip(xc - half_w, 0.0, grid.region_w - 1e-12)
    xhi = np.clip(xc + half_w, xlo + 1e-12, grid.region_w)
    ylo = np.clip(yc - half_h, 0.0, grid.region_h - 1e-12)
    yhi = np.clip(yc + half_h, ylo + 1e-12, grid.region_h)

    bx0 = int(xlo / grid.hx)
    bx1 = min(int(np.ceil(xhi / grid.hx)), grid.bins)
    by0 = int(ylo / grid.hy)
    by1 = min(int(np.ceil(yhi / grid.hy)), grid.bins)

    ex = grid.edges_x
    ov_x = np.minimum(xhi, ex[bx0 + 1:bx1 + 1]) - np.maximum(
        xlo, ex[bx0:bx1]
    )
    ey = grid.edges_y
    ov_y = np.minimum(yhi, ey[by0 + 1:by1 + 1]) - np.maximum(
        ylo, ey[by0:by1]
    )
    ov_x = np.clip(ov_x, 0.0, None)
    ov_y = np.clip(ov_y, 0.0, None)
    # rescale so the clamped footprint still deposits the full area
    sum_x, sum_y = ov_x.sum(), ov_y.sum()
    if sum_x > 0:
        ov_x *= grid.widths[i] / sum_x
    if sum_y > 0:
        ov_y *= grid.heights[i] / sum_y
    return bx0, bx1, by0, by1, ov_x, ov_y


def rasterize_loop(
    grid: DensityGrid, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Charge (area) deposited per bin, one device window at a time."""
    charge = np.zeros((grid.bins, grid.bins))
    for i in range(len(x)):
        bx0, bx1, by0, by1, ov_x, ov_y = device_window(
            grid, float(x[i]), float(y[i]), i
        )
        charge[bx0:bx1, by0:by1] += np.outer(ov_x, ov_y)
    return charge


def energy_and_grad_loop(
    grid: DensityGrid, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Energy, per-device gradient and overflow, one device at a time."""
    charge = rasterize_loop(grid, x, y)
    rho = charge / grid.bin_area
    rho_neutral = rho - rho.mean()
    psi = poisson_solve_dct(rho_neutral, grid.hx, grid.hy)
    dpsi_dx, dpsi_dy = np.gradient(psi, grid.hx, grid.hy)

    energy = 0.0
    grad_x = np.zeros_like(x)
    grad_y = np.zeros_like(y)
    for i in range(len(x)):
        bx0, bx1, by0, by1, ov_x, ov_y = device_window(
            grid, float(x[i]), float(y[i]), i
        )
        weights = np.outer(ov_x, ov_y)
        total = weights.sum()
        if total <= 0:
            continue
        weights = weights / total
        win = (slice(bx0, bx1), slice(by0, by1))
        psi_i = float((psi[win] * weights).sum())
        energy += 0.5 * grid.areas[i] * psi_i
        grad_x[i] = grid.areas[i] * float((dpsi_dx[win] * weights).sum())
        grad_y[i] = grid.areas[i] * float((dpsi_dy[win] * weights).sum())

    return float(energy), grad_x, grad_y, grid._overflow(rho)
