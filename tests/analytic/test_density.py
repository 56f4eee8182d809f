"""Electrostatic (eDensity) and bell-shaped density tests."""

import numpy as np
import pytest

from repro.analytic import BellDensityGrid, DensityGrid, bell_profile, \
    poisson_solve_dct
from repro.analytic.gradcheck import max_grad_error

from ..reference.bell import penalty_and_grad_loop
from ..reference.density import energy_and_grad_loop, rasterize_loop


class TestPoissonSolve:
    def test_discrete_laplacian_recovered(self, rng):
        """psi solves the 5-point Neumann Laplacian exactly."""
        m = 16
        rho = rng.normal(0.0, 1.0, (m, m))
        rho -= rho.mean()
        hx = hy = 0.5
        psi = poisson_solve_dct(rho, hx, hy)
        # apply the Neumann 5-point Laplacian via reflect padding
        padded = np.pad(psi, 1, mode="edge")
        lap = (
            padded[2:, 1:-1] + padded[:-2, 1:-1] - 2 * psi
        ) / hx ** 2 + (
            padded[1:-1, 2:] + padded[1:-1, :-2] - 2 * psi
        ) / hy ** 2
        assert np.abs(lap + rho).max() < 1e-9

    def test_zero_density_zero_potential(self):
        psi = poisson_solve_dct(np.zeros((8, 8)), 1.0, 1.0)
        assert np.abs(psi).max() < 1e-12


class TestDensityGrid:
    def _grid(self, n=4):
        widths = np.full(n, 2.0)
        heights = np.full(n, 2.0)
        return DensityGrid(widths, heights, 12.0, 12.0, bins=24)

    def test_rasterize_conserves_area(self, rng):
        grid = self._grid()
        x = rng.uniform(1.0, 11.0, 4)
        y = rng.uniform(1.0, 11.0, 4)
        charge = grid.rasterize(x, y)
        assert charge.sum() == pytest.approx(4 * 4.0)

    def test_rasterize_clamps_strays_with_full_charge(self):
        grid = self._grid(1)
        charge = grid.rasterize(np.array([-5.0]), np.array([20.0]))
        assert charge.sum() == pytest.approx(4.0)

    def test_clustered_energy_exceeds_spread(self):
        grid = self._grid(4)
        clustered = grid.energy_and_grad(
            np.full(4, 6.0), np.full(4, 6.0))
        spread = grid.energy_and_grad(
            np.array([2.0, 10.0, 2.0, 10.0]),
            np.array([2.0, 2.0, 10.0, 10.0]))
        assert clustered[0] > spread[0]
        assert clustered[3] > spread[3]  # overflow too

    def test_overlapping_pair_repels(self):
        grid = self._grid(2)
        x = np.array([5.5, 6.5])
        y = np.array([6.0, 6.0])
        _, gx, _, _ = grid.energy_and_grad(x, y)
        # descending the gradient should push them apart
        assert gx[0] > 0.0  # left device pushed further left
        assert gx[1] < 0.0

    def test_rejects_empty_region(self):
        with pytest.raises(ValueError, match="positive"):
            DensityGrid(np.ones(1), np.ones(1), 0.0, 5.0)


class TestVectorizedKernelAgreement:
    """The batched matmul kernels vs the per-device reference loops.

    The vectorised ``rasterize``/``energy_and_grad`` must reproduce
    ``tests.reference.density``'s ``rasterize_loop`` /
    ``energy_and_grad_loop`` to numerical round-off
    (summation order differs, exact bitwise equality is not expected);
    the fixtures cover in-region, clamped-stray and degenerate cases.
    """

    def _fixtures(self):
        rng = np.random.default_rng(123)
        for n, bins, rw, rh in [(1, 8, 4.0, 4.0), (4, 24, 12.0, 12.0),
                                (13, 16, 10.0, 7.0), (40, 64, 20.0, 20.0)]:
            widths = rng.uniform(0.5, 3.0, n)
            heights = rng.uniform(0.5, 3.0, n)
            grid = DensityGrid(widths, heights, rw, rh, bins=bins)
            # positions straddle the region so clamping paths run too
            x = rng.uniform(-2.0, rw + 2.0, n)
            y = rng.uniform(-2.0, rh + 2.0, n)
            yield grid, x, y

    def test_rasterize_matches_loop(self):
        for grid, x, y in self._fixtures():
            fast = grid.rasterize(x, y)
            ref = rasterize_loop(grid, x, y)
            assert np.abs(fast - ref).max() < 1e-10

    def test_energy_and_grad_match_loop(self):
        for grid, x, y in self._fixtures():
            e_f, gx_f, gy_f, of_f = grid.energy_and_grad(x, y)
            e_r, gx_r, gy_r, of_r = energy_and_grad_loop(grid, x, y)
            scale = max(abs(e_r), 1.0)
            assert abs(e_f - e_r) < 1e-10 * scale
            assert np.abs(gx_f - gx_r).max() < 1e-10
            assert np.abs(gy_f - gy_r).max() < 1e-10
            assert abs(of_f - of_r) < 1e-12

    def test_energy_descent_direction(self, rng):
        """The batched gradient still points downhill in energy."""
        widths = np.full(6, 2.0)
        heights = np.full(6, 2.0)
        grid = DensityGrid(widths, heights, 12.0, 12.0, bins=24)
        x = rng.uniform(4.0, 8.0, 6)
        y = rng.uniform(4.0, 8.0, 6)
        energy, gx, gy, _ = grid.energy_and_grad(x, y)
        step = 1e-3
        moved, *_ = grid.energy_and_grad(x - step * gx, y - step * gy)
        assert moved < energy


class TestBellDensity:
    def test_profile_continuity_and_support(self):
        size, bin_size = 2.0, 0.5
        knee = size / 2 + bin_size
        cutoff = size / 2 + 2 * bin_size
        d = np.array([0.0, knee - 1e-9, knee + 1e-9, cutoff - 1e-9,
                      cutoff + 1e-9, 10.0])
        value, _ = bell_profile(d, size, bin_size)
        assert value[0] == pytest.approx(1.0)
        assert value[1] == pytest.approx(value[2], abs=1e-6)
        assert value[4] == 0.0
        assert value[5] == 0.0

    def test_profile_even_derivative_odd(self):
        v_pos, d_pos = bell_profile(np.array([0.7]), 2.0, 0.5)
        v_neg, d_neg = bell_profile(np.array([-0.7]), 2.0, 0.5)
        assert v_pos == pytest.approx(v_neg)
        assert d_pos == pytest.approx(-d_neg)

    def test_penalty_prefers_spread(self):
        widths = np.full(4, 2.0)
        heights = np.full(4, 2.0)
        grid = BellDensityGrid(widths, heights, 12.0, 12.0, bins=12)
        clustered = grid.penalty_and_grad(
            np.full(4, 6.0), np.full(4, 6.0))[0]
        spread = grid.penalty_and_grad(
            np.array([2.0, 10.0, 2.0, 10.0]),
            np.array([2.0, 2.0, 10.0, 10.0]))[0]
        assert clustered > spread

    def test_gradient_direction(self):
        widths = np.full(2, 2.0)
        heights = np.full(2, 2.0)
        grid = BellDensityGrid(widths, heights, 12.0, 12.0, bins=12)
        x = np.array([5.6, 6.4])
        y = np.array([6.0, 6.0])
        _, gx, _ = grid.penalty_and_grad(x, y)
        assert gx[0] > 0.0
        assert gx[1] < 0.0


def _bell_profiles(grid, x, y):
    """Per-axis ``(n, bins)`` bell matrices, built from the public
    profile function (independent of the kernel's own pass)."""
    px, _ = bell_profile(x[:, None] - grid.centers_x[None, :],
                         grid.widths[:, None], grid.hx)
    py, _ = bell_profile(y[:, None] - grid.centers_y[None, :],
                         grid.heights[:, None], grid.hy)
    return px, py


class TestBellKernel:
    """The one-pass bell kernel vs the per-device windowed reference,
    and its gradient vs finite differences."""

    def _fixtures(self):
        rng = np.random.default_rng(7)
        for bins in (8, 16, 32):
            for n, rw, rh in [(1, 6.0, 6.0), (9, 12.0, 9.0),
                              (24, 20.0, 20.0)]:
                widths = rng.uniform(0.4, 3.0, n)
                heights = rng.uniform(0.4, 3.0, n)
                grid = BellDensityGrid(widths, heights, rw, rh, bins=bins)
                inside_x = rng.uniform(0.2 * rw, 0.8 * rw, n)
                inside_y = rng.uniform(0.2 * rh, 0.8 * rh, n)
                yield "inside", grid, inside_x, inside_y
                # straddling the region edges: part of the bell is cut
                yield "straddle", grid, \
                    rng.choice([0.0, rw], n) + rng.uniform(-1.0, 1.0, n), \
                    rng.choice([0.0, rh], n) + rng.uniform(-1.0, 1.0, n)
                # the first third is parked far outside the region
                far_x, far_y = inside_x.copy(), inside_y.copy()
                k = max(n // 3, 1)
                far_x[:k] = -(widths[:k] + 5.0 * grid.hx + 3.0)
                far_y[:k] = rh + heights[:k] + 5.0 * grid.hy + 3.0
                yield "outside", grid, far_x, far_y

    def test_matches_windowed_loop(self):
        for kind, grid, x, y in self._fixtures():
            pen, gx, gy = grid.penalty_and_grad(x, y)
            pen_r, gx_r, gy_r = penalty_and_grad_loop(grid, x, y)
            assert abs(pen - pen_r) <= 1e-12 * abs(pen_r), kind
            for fast, ref in ((gx, gx_r), (gy, gy_r)):
                scale = max(float(np.abs(ref).max()), 1e-300)
                assert np.abs(fast - ref).max() <= 1e-12 * scale, kind

    def test_outside_devices_deposit_nothing(self):
        for kind, grid, x, y in self._fixtures():
            if kind != "outside":
                continue
            k = max(len(x) // 3, 1)
            _, gx, gy = grid.penalty_and_grad(x, y)
            assert np.all(gx[:k] == 0.0) and np.all(gy[:k] == 0.0)
            # moving the parked devices leaves the penalty unchanged
            moved_x = x.copy()
            moved_x[:k] -= 7.0
            assert grid.penalty_and_grad(moved_x, y)[0] == \
                grid.penalty_and_grad(x, y)[0]

    def test_gradient_matches_finite_differences(self):
        """The analytic gradient holds each device's normalisation
        ``c_i`` constant, so it is checked against the penalty with
        ``c`` frozen at the evaluation point."""
        for kind, grid, x, y in self._fixtures():
            n = len(x)
            px, py = _bell_profiles(grid, x, y)
            totals = px.sum(axis=1) * py.sum(axis=1)
            c0 = np.where(totals > 0,
                          grid.areas / np.where(totals > 0, totals, 1.0),
                          0.0)

            def fun_and_grad(v, grid=grid, c0=c0, n=n):
                px, py = _bell_profiles(grid, v[:n], v[n:])
                resid = (c0[:, None] * px).T @ py - grid.target
                _, gx, gy = grid.penalty_and_grad(v[:n], v[n:])
                return float((resid ** 2).sum()), np.concatenate([gx, gy])

            err = max_grad_error(fun_and_grad, np.concatenate([x, y]))
            assert err < 1e-6, kind
