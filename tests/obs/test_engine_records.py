"""All five engines record one progress record per iteration.

The records land in the thread's tracer through ``repro.obs.emit``,
the one call per record site; the engines build no record values at
all when no tracer is enabled.
"""

from __future__ import annotations

import numpy as np

from repro.annealing import anneal_place
from repro.eplace import eplace_global
from repro.obs import health, tracing
from repro.perf_driven.eplace_ap import EPlaceAPGlobalPlacer
from repro.perf_driven.perf_xu import XuPerfGlobalPlacer
from repro.xu_ispd19 import XuParams, xu_global


class _StubModel:
    """Duck-typed PerformanceModel: a smooth quadratic phi term."""

    trust = 1.0

    def __init__(self, circuit):
        self.circuit = circuit

    def phi(self, x, y):
        return float(np.sum(x * x + y * y))

    def phi_and_grad(self, x, y):
        return self.phi(x, y), 2.0 * x, 2.0 * y


def _progress_of(fn):
    """Run ``fn`` traced; its progress (non-health) records."""
    with tracing() as tracer:
        result = fn()
    progress = [r for r in tracer.to_trace().convergence
                if not health.is_health_phase(r.phase)]
    return result, progress


def test_eplace_a_records_nesterov_iterations(comp1_circuit,
                                              fast_gp_params):
    result, progress = _progress_of(
        lambda: eplace_global(comp1_circuit, fast_gp_params)
    )
    assert {e.phase for e in progress} == {"eplace.nesterov"}
    assert len(progress) == result.stats["iterations"]
    assert [e.iteration for e in progress] == \
        list(range(1, len(progress) + 1))
    for key in ("value", "overflow", "hpwl", "density_weight"):
        assert key in progress[-1].values, key


def test_xu_ispd19_records_cg_and_stage_iterations(comp1_circuit):
    params = XuParams(cg_iterations=30, stages=3)
    _, progress = _progress_of(
        lambda: xu_global(comp1_circuit, params)
    )
    phases = {e.phase for e in progress}
    assert phases == {"xu.cg", "xu.stage"}
    stages = [e for e in progress if e.phase == "xu.stage"]
    assert len(stages) == params.stages
    assert "hpwl" in stages[-1].values


def test_annealing_records_one_record_per_stage(comp1_circuit,
                                               fast_sa_params):
    _, progress = _progress_of(
        lambda: anneal_place(comp1_circuit, fast_sa_params)
    )
    expected = -(-fast_sa_params.iterations //
                 fast_sa_params.moves_per_temp)
    assert {e.phase for e in progress} == {"sa.stage"}
    assert len(progress) == expected
    assert {"temperature", "cost", "best_cost"} <= set(
        progress[0].values
    )


def test_eplace_ap_records_through_base_loop(comp1_circuit,
                                             fast_gp_params):
    placer = EPlaceAPGlobalPlacer(
        comp1_circuit, _StubModel(comp1_circuit), fast_gp_params
    )
    result, progress = _progress_of(placer.place)
    assert {e.phase for e in progress} == {"eplace.nesterov"}
    assert len(progress) == result.stats["iterations"]


def test_perf_xu_records_through_base_loop(comp1_circuit):
    placer = XuPerfGlobalPlacer(
        comp1_circuit, _StubModel(comp1_circuit),
        XuParams(cg_iterations=20, stages=2),
    )
    _, progress = _progress_of(placer.place)
    assert {e.phase for e in progress} >= {"xu.stage"}
    assert len(
        [e for e in progress if e.phase == "xu.stage"]
    ) == 2


def test_untraced_run_records_nothing(comp1_circuit, fast_sa_params):
    # guard direction: without a tracer, engines record nothing and
    # run exactly as traced runs do
    result = anneal_place(comp1_circuit, fast_sa_params)
    assert not result.trace
    assert result.stats["best_cost"] > 0
