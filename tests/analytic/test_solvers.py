"""Nesterov and conjugate-gradient solver tests."""

import numpy as np
import pytest

from repro.analytic import NesterovOptimizer, conjugate_gradient
from repro.analytic import cg as cg_module

from ..reference.cg import conjugate_gradient_two_eval


def _quadratic(n=12, cond=50.0, seed=0):
    rng = np.random.default_rng(seed)
    eigs = np.linspace(1.0, cond, n)
    q = np.diag(eigs)
    b = rng.normal(0.0, 1.0, n)
    solution = np.linalg.solve(q, b)

    def fun(v):
        return 0.5 * v @ q @ v - b @ v, q @ v - b

    return fun, solution


class TestNesterov:
    def test_converges_on_quadratic(self):
        fun, solution = _quadratic()
        opt = NesterovOptimizer(np.zeros(12), fun, alpha0=1e-3)
        opt.run(400)
        assert np.abs(opt.v - solution).max() < 1e-6

    def test_faster_than_plain_descent(self):
        """Acceleration beats fixed-step gradient descent markedly."""
        fun, solution = _quadratic(cond=200.0)
        opt = NesterovOptimizer(np.zeros(12), fun, alpha0=1e-3)
        opt.run(150)
        nesterov_err = np.abs(opt.v - solution).max()

        v = np.zeros(12)
        for _ in range(150):
            _, g = fun(v)
            v = v - (1.0 / 200.0) * g  # 1/L step
        plain_err = np.abs(v - solution).max()
        assert nesterov_err < plain_err / 10.0

    def test_projection_respected(self):
        fun, _ = _quadratic()
        lo, hi = -0.1, 0.1
        opt = NesterovOptimizer(
            np.zeros(12), fun,
            projection=lambda v: np.clip(v, lo, hi),
            alpha0=1e-3,
        )
        opt.run(100)
        assert opt.v.min() >= lo - 1e-12
        assert opt.v.max() <= hi + 1e-12

    def test_restart_reported_on_objective_change(self):
        """Swapping the objective mid-run (as the placer's weight
        schedule does) raises the value and triggers a restart."""
        def f1(v):
            return float(v @ v), 2 * v

        def f2(v):
            d = v - 10.0
            return float(d @ d), 2 * d

        opt = NesterovOptimizer(np.ones(4), f1, alpha0=1e-2)
        for _ in range(10):
            assert not opt.step().restarted or True
        opt.objective = f2  # value at current point jumps upward
        restarts = sum(opt.step().restarted for _ in range(5))
        assert restarts > 0

    def test_telemetry_fields(self):
        fun, _ = _quadratic()
        opt = NesterovOptimizer(np.zeros(12), fun, alpha0=1e-3)
        info = opt.step()
        assert info.iteration == 1
        assert info.grad_norm > 0
        assert info.step_length > 0
        assert not info.frozen

    @pytest.mark.parametrize("backtrack", [3, 12])
    def test_exhausted_line_search_reports_every_halving(self, backtrack):
        """A search whose trials all fail reports ``backtrack + 1``
        halvings, and the tiny step it then takes is the prediction
        halved that many times."""
        calls = []

        def rising(v):
            # every later evaluation is worse than the reference point
            calls.append(None)
            return float(len(calls)), np.ones_like(v)

        opt = NesterovOptimizer(np.zeros(4), rising, alpha0=0.5,
                                backtrack=backtrack)
        info = opt.step()
        assert info.backtracks == backtrack + 1
        assert info.step_length == \
            info.step_predicted / 2 ** (backtrack + 1)

    def test_zero_step_freezes(self):
        """A zero step that moves neither iterate is flagged frozen,
        and further steps leave the iterate bitwise unchanged even as
        the objective changes between them."""
        weight = [1.0]

        def fun(v):
            d = v - 3.0
            return weight[0] * float(d @ d), 2.0 * weight[0] * d

        opt = NesterovOptimizer(np.linspace(0.0, 1.0, 5), fun,
                                alpha0=0.0)
        info = opt.step()
        assert info.step_length == 0.0 and info.frozen
        frozen_v = opt.v.tobytes()
        for _ in range(10):
            weight[0] *= 1.05
            assert opt.step().frozen
            assert opt.v.tobytes() == frozen_v


class TestConjugateGradient:
    def test_converges_on_quadratic(self):
        fun, solution = _quadratic()
        result = conjugate_gradient(fun, np.zeros(12), iterations=400,
                                    tol=1e-6)
        assert result.converged
        assert np.abs(result.v - solution).max() < 1e-5

    def test_rosenbrock(self):
        def rosen(v):
            x, y = v
            value = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            grad = np.array([
                -2 * (1 - x) - 400 * x * (y - x * x),
                200 * (y - x * x),
            ])
            return value, grad

        result = conjugate_gradient(rosen, np.array([-1.2, 1.0]),
                                    iterations=5000, tol=1e-8,
                                    alpha0=1e-3)
        assert np.abs(result.v - 1.0).max() < 1e-3

    def test_monotone_descent(self):
        fun, _ = _quadratic()
        values = []
        v = np.full(12, 3.0)
        for _ in range(5):
            result = conjugate_gradient(fun, v, iterations=10)
            values.append(result.value)
            v = result.v
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_gradient_immediate_convergence(self):
        fun, solution = _quadratic()
        result = conjugate_gradient(fun, solution, iterations=10,
                                    tol=1e-6)
        assert result.converged
        assert result.iterations == 0


def _rosenbrock(v):
    x, y = v
    value = (1 - x) ** 2 + 100 * (y - x * x) ** 2
    grad = np.array([
        -2 * (1 - x) - 400 * x * (y - x * x),
        200 * (y - x * x),
    ])
    return value, grad


def _xu_objective():
    """A real [11] global-placement objective (CC-OTA, first stage)."""
    from repro.circuits import cc_ota
    from repro.xu_ispd19 import XuGlobalPlacer

    placer = XuGlobalPlacer(cc_ota())
    x, y = placer.initial_positions()
    fun = placer._objective(lam=5.0, tau=4.0)
    return fun, np.concatenate([x, y]), placer.region / placer.params.bins


_CG_CASES = {
    "quadratic": lambda: (_quadratic()[0], np.full(12, 3.0), 1.0),
    "rosenbrock": lambda: (_rosenbrock, np.array([-1.2, 1.0]), 1e-3),
    "xu-cc-ota": _xu_objective,
}


class _Counted:
    """Objective wrapper counting its evaluations."""

    def __init__(self, fun):
        self.fun = fun
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        return self.fun(v)


class TestConjugateGradientEvaluations:
    @pytest.mark.parametrize("case", sorted(_CG_CASES))
    def test_one_evaluation_per_trial(self, case, monkeypatch):
        """The objective runs once at ``v0`` and once per line-search
        trial; nothing outside the line search evaluates it again."""
        fun, v0, alpha0 = _CG_CASES[case]()
        counted = _Counted(fun)
        trials = []
        armijo = cg_module._armijo

        def counting_armijo(objective, *args, **kwargs):
            def trial(v):
                trials.append(1)
                return objective(v)
            return armijo(trial, *args, **kwargs)

        monkeypatch.setattr(cg_module, "_armijo", counting_armijo)
        accepted = []
        conjugate_gradient(counted, v0, iterations=60, tol=1e-12,
                           alpha0=alpha0,
                           callback=lambda *a: accepted.append(a))
        assert accepted
        assert counted.calls == 1 + len(trials)

    @pytest.mark.parametrize("case", sorted(_CG_CASES))
    def test_matches_two_evaluation_reference(self, case):
        """Reusing the accepted trial's gradient changes no iterate."""
        fun, v0, alpha0 = _CG_CASES[case]()
        fast_fun, ref_fun = _Counted(fun), _Counted(fun)
        accepted = []
        fast = conjugate_gradient(fast_fun, v0, iterations=60, tol=1e-12,
                                  alpha0=alpha0,
                                  callback=lambda *a: accepted.append(a))
        ref = conjugate_gradient_two_eval(ref_fun, v0, iterations=60,
                                          tol=1e-12, alpha0=alpha0)
        assert fast.v.tobytes() == ref.v.tobytes()
        assert fast.value == ref.value
        assert fast.iterations == ref.iterations
        assert fast.converged == ref.converged
        # the reference pays one extra evaluation per accepted step
        assert ref_fun.calls - fast_fun.calls == len(accepted)
