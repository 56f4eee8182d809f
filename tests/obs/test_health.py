"""All five engines record health values next to their progress.

Each engine emits solver internals (gradient norms, line-search
activity, acceptance rates) under ``<phase>.health`` in the trace,
one record per progress record.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.annealing import anneal_place
from repro.eplace import eplace_global
from repro.obs import emit, health, tracing
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


def _health_of(fn):
    """Run ``fn`` traced; its health records under their base phase."""
    with tracing() as tracer:
        result = fn()
    samples = [
        replace(r, phase=health.base_phase(r.phase))
        for r in tracer.to_trace().convergence
        if health.is_health_phase(r.phase)
    ]
    return result, samples


def test_eplace_a_publishes_health(comp1_circuit, fast_gp_params):
    result, samples = _health_of(
        lambda: eplace_global(comp1_circuit, fast_gp_params)
    )
    assert {s.phase for s in samples} == {"eplace.nesterov"}
    # one health sample per progress iteration
    assert len(samples) == result.stats["iterations"]
    last = samples[-1].values
    for key in ("grad_norm", "grad_wl_norm", "grad_density_norm",
                "grad_penalty_norm", "step_length", "step_predicted",
                "backtracks", "density_weight", "tau", "eta",
                "overflow"):
        assert key in last, key
    assert last["step_predicted"] > 0.0


def test_xu_ispd19_publishes_health(comp1_circuit):
    params = XuParams(cg_iterations=30, stages=3)
    _, samples = _health_of(
        lambda: xu_global(comp1_circuit, params)
    )
    phases = {s.phase for s in samples}
    assert phases == {"xu.cg", "xu.stage"}
    cg = [s for s in samples if s.phase == "xu.cg"]
    for key in ("residual", "step_length", "line_search_halvings",
                "restarts", "density_weight"):
        assert key in cg[-1].values, key
    # restarts is a cumulative counter: never decreasing per stage
    stages = {}
    for s in cg:
        stage = (s.iteration - 1) // params.cg_iterations
        series = stages.setdefault(stage, [])
        series.append(s.values["restarts"])
    for series in stages.values():
        assert series == sorted(series)


def test_annealing_publishes_health(comp1_circuit, fast_sa_params):
    _, samples = _health_of(
        lambda: anneal_place(comp1_circuit, fast_sa_params)
    )
    assert {s.phase for s in samples} == {"sa.stage"}
    first = samples[0].values
    for key in ("accept_rate", "temperature", "dirty_nets",
                "evaluated"):
        assert key in first, key
    assert 0.0 <= first["accept_rate"] <= 1.0
    # the incremental evaluator touched at least one net somewhere
    assert sum(s.values["dirty_nets"] for s in samples) > 0


def test_eplace_ap_health_adds_gnn_term(comp1_circuit,
                                        fast_gp_params):
    placer = EPlaceAPGlobalPlacer(
        comp1_circuit, _StubModel(comp1_circuit), fast_gp_params
    )
    _, samples = _health_of(placer.place)
    assert samples
    assert "grad_phi_norm" in samples[-1].values
    assert samples[-1].values["grad_phi_norm"] > 0.0


def test_perf_xu_health_adds_gnn_term(comp1_circuit):
    placer = XuPerfGlobalPlacer(
        comp1_circuit, _StubModel(comp1_circuit),
        XuParams(cg_iterations=20, stages=2),
    )
    _, samples = _health_of(placer.place)
    cg = [s for s in samples if s.phase == "xu.cg"]
    assert cg
    assert "grad_phi_norm" in cg[-1].values
    assert cg[-1].values["grad_phi_norm"] > 0.0


def test_traced_runs_record_health_phases(comp1_circuit,
                                          fast_sa_params):
    with tracing():
        result = anneal_place(comp1_circuit, fast_sa_params)
    phases = {r.phase for r in result.trace.convergence}
    assert "sa.stage" in phases
    assert "sa.stage" + health.HEALTH_SUFFIX in phases
    # the trace-side diagnosis landed on the result
    assert result.diagnosis is not None
    assert "sa.stage" in result.diagnosis.phases


def test_base_phase_helpers():
    assert health.base_phase("eplace.nesterov.health") == \
        "eplace.nesterov"
    assert health.base_phase("eplace.nesterov") == "eplace.nesterov"
    assert health.is_health_phase("xu.cg.health")
    assert not health.is_health_phase("xu.cg")


class TestEmit:
    """``emit`` is the one record-site call: progress, then health."""

    def test_records_progress_then_health(self):
        with tracing() as tracer:
            emit("p", 2.0, progress={"value": 1.5},
                 health={"grad_norm": 0.5})
        convergence = tracer.to_trace().convergence
        assert [(r.phase, r.iteration, r.values) for r in convergence] \
            == [("p", 2, {"value": 1.5}),
                ("p" + health.HEALTH_SUFFIX, 2, {"grad_norm": 0.5})]

    def test_disabled_tracer_constructs_no_records(self, monkeypatch):
        from repro.obs import trace

        constructed: list[int] = []
        real = trace.IterationRecord

        class Counting(real):  # type: ignore[misc, valid-type]
            def __init__(self, *args, **kwargs):
                constructed.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(trace, "IterationRecord", Counting)
        with tracing(enabled=False):
            emit("p", 0, progress={"value": 1.0},
                 health={"grad_norm": 0.5})
        assert constructed == []
        with tracing():
            emit("p", 0, progress={"value": 1.0},
                 health={"grad_norm": 0.5})
        assert len(constructed) == 2
