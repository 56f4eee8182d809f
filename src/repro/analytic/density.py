"""Electrostatic density model (eDensity) from ePlace [15].

Devices are positive charges whose density over a bin grid defines a
Poisson problem :math:`\\nabla^2 \\psi = -\\rho`.  The system's potential
energy :math:`N(v) = \\tfrac12 \\sum_i q_i \\psi_i` is the smoothed
overlap penalty of paper eq. (3); its gradient is the electric field
scaled by each device's charge (area).  Like ePlace we obtain
frequency-domain solutions: the Poisson problem is solved spectrally
with a DCT (Neumann boundaries), using the *discrete* Laplacian
eigenvalues so the bin-level solve is exact.

The mean charge is subtracted before solving (a pure-Neumann Poisson
problem requires a neutral system), which makes uniform spreading the
zero-energy state: clustered devices are pushed apart, voids attract.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dctn, idctn


def poisson_solve_dct(rho: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Solve ``laplacian(psi) = -rho`` with Neumann BCs on a regular grid.

    Uses DCT-II diagonalisation of the 5-point Laplacian, so the result
    is the exact solution of the discretised system (up to an additive
    constant, fixed by zeroing the DC term).
    """
    m, n = rho.shape
    coeff = dctn(rho, type=2)
    eig_x = (2.0 - 2.0 * np.cos(np.pi * np.arange(m) / m)) / (hx * hx)
    eig_y = (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / (hy * hy)
    denom = eig_x[:, None] + eig_y[None, :]
    denom[0, 0] = 1.0  # DC mode: undefined up to a constant; pin to zero
    coeff = coeff / denom
    coeff[0, 0] = 0.0
    return idctn(coeff, type=2)


class DensityGrid:
    """Bin grid over the placement region with rasterisation helpers.

    Parameters
    ----------
    widths, heights:
        Device dimensions, one entry per device.
    region_w, region_h:
        Placement region extents; the region's lower-left corner is the
        origin.  Device parts outside the region are clamped into the
        boundary bins (they still carry charge, so the field pushes
        strays back inside).
    bins:
        Number of bins per axis.
    """

    def __init__(
        self,
        widths: np.ndarray,
        heights: np.ndarray,
        region_w: float,
        region_h: float,
        bins: int = 64,
    ) -> None:
        if region_w <= 0 or region_h <= 0:
            raise ValueError("placement region must have positive extents")
        self.widths = np.asarray(widths, dtype=float)
        self.heights = np.asarray(heights, dtype=float)
        self.areas = self.widths * self.heights
        self.region_w = float(region_w)
        self.region_h = float(region_h)
        self.bins = int(bins)
        self.hx = self.region_w / self.bins
        self.hy = self.region_h / self.bins
        self.bin_area = self.hx * self.hy
        # bin edge coordinates
        self.edges_x = np.linspace(0.0, self.region_w, self.bins + 1)
        self.edges_y = np.linspace(0.0, self.region_h, self.bins + 1)

    # ------------------------------------------------------------------
    def _overlap_matrices(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis bin overlaps for *all* devices: two ``(n, bins)``
        matrices.

        Row ``i`` holds device ``i``'s clamped overlap with every bin
        (zero outside its covered window — bins beyond the window clamp
        to a non-positive overlap, which the clip removes), so the
        kernels below are algebraically identical to a per-device loop
        over covered windows (the reference in ``tests/reference``).
        """
        half_w, half_h = self.widths / 2, self.heights / 2
        xlo = np.clip(x - half_w, 0.0, self.region_w - 1e-12)
        xhi = np.clip(x + half_w, xlo + 1e-12, self.region_w)
        ylo = np.clip(y - half_h, 0.0, self.region_h - 1e-12)
        yhi = np.clip(y + half_h, ylo + 1e-12, self.region_h)

        ex, ey = self.edges_x, self.edges_y
        ov_x = np.clip(
            np.minimum(xhi[:, None], ex[None, 1:])
            - np.maximum(xlo[:, None], ex[None, :-1]),
            0.0, None,
        )
        ov_y = np.clip(
            np.minimum(yhi[:, None], ey[None, 1:])
            - np.maximum(ylo[:, None], ey[None, :-1]),
            0.0, None,
        )
        # rescale so clamped footprints still deposit the full area
        sum_x = ov_x.sum(axis=1)
        sum_y = ov_y.sum(axis=1)
        ov_x *= np.where(
            sum_x > 0, self.widths / np.where(sum_x > 0, sum_x, 1.0), 1.0
        )[:, None]
        ov_y *= np.where(
            sum_y > 0, self.heights / np.where(sum_y > 0, sum_y, 1.0), 1.0
        )[:, None]
        return ov_x, ov_y

    def rasterize(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Charge (area) deposited per bin by all devices.

        One matmul over the per-axis overlap matrices:
        ``grid[bx, by] = sum_i ov_x[i, bx] * ov_y[i, by]`` — each
        device's contribution is the outer product of its two overlap
        rows, summed over devices in a single pass.
        """
        ov_x, ov_y = self._overlap_matrices(x, y)
        return ov_x.T @ ov_y

    # ------------------------------------------------------------------
    def energy_and_grad(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray, float]:
        """Potential energy, gradient per device, and density overflow.

        Returns ``(energy, grad_x, grad_y, overflow)`` where ``overflow``
        is the fraction of total device area sitting above the uniform
        target density — ePlace's global-placement stop metric.

        Per-device sampling of the potential / field is batched: with
        separable weights the double sum over a device's bin window
        factorises as ``ov_x[i] @ field @ ov_y[i]``, evaluated for all
        devices via two matmuls per field.
        """
        ov_x, ov_y = self._overlap_matrices(x, y)
        charge = ov_x.T @ ov_y
        rho = charge / self.bin_area  # area density per bin
        rho_neutral = rho - rho.mean()
        psi = poisson_solve_dct(rho_neutral, self.hx, self.hy)
        # field from the (smooth) potential; np.gradient axis0 = x bins
        dpsi_dx, dpsi_dy = np.gradient(psi, self.hx, self.hy)

        totals = ov_x.sum(axis=1) * ov_y.sum(axis=1)
        safe = np.where(totals > 0, totals, 1.0)
        scale = np.where(totals > 0, self.areas / safe, 0.0)
        psi_i = ((ov_x @ psi) * ov_y).sum(axis=1)
        energy = 0.5 * float(np.dot(scale, psi_i))
        grad_x = scale * ((ov_x @ dpsi_dx) * ov_y).sum(axis=1)
        grad_y = scale * ((ov_x @ dpsi_dy) * ov_y).sum(axis=1)

        overflow = self._overflow(rho)
        return energy, grad_x, grad_y, overflow

    def _overflow(self, rho: np.ndarray) -> float:
        """Fraction of device area above the uniform target density."""
        target = self.areas.sum() / (self.region_w * self.region_h)
        excess = np.clip(rho - max(target, 1.0), 0.0, None)
        return float(
            excess.sum() * self.bin_area
            / max(float(self.areas.sum()), 1e-30)
        )
