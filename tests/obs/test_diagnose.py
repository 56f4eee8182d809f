"""Detector edge cases and the diagnosis determinism contract."""

from __future__ import annotations

import json

from repro.annealing import SAParams
from repro.api import place_multiseed
from repro.obs import health
from repro.obs.diagnose import DiagnoseParams, Diagnosis, diagnose_trace
from repro.obs.export import read_jsonl, write_jsonl
from repro import obs


def _progress_series(values, phase="p", key="cost", step=None):
    """``(phase, iteration, values)`` records of one metric series."""
    records = []
    for i, v in enumerate(values):
        payload = {key: v}
        if step is not None:
            payload["step_length"] = step[i]
        records.append((phase, i, payload))
    return records


def _diagnose(records, params=None):
    """Diagnose ``(phase, iteration, values)`` records via a trace."""
    tracer = obs.Tracer(enabled=True)
    for phase, iteration, values in records:
        tracer.record(phase, iteration, **values)
    return diagnose_trace(tracer.to_trace(), params)


class TestDetectors:
    def test_empty_stream_is_insufficient_data(self):
        d = _diagnose([])
        assert d.verdict == "insufficient-data"
        assert d.phases == {}
        assert d.healthy

    def test_single_iteration_is_insufficient_data(self):
        d = _diagnose(_progress_series([10.0]))
        assert d.phases["p"].verdict == "insufficient-data"
        assert d.verdict == "insufficient-data"
        assert d.healthy

    def test_decreasing_series_converges(self):
        values = [100.0 / (i + 1) for i in range(30)]
        d = _diagnose(_progress_series(values))
        assert d.phases["p"].verdict == "converged"
        assert d.healthy

    def test_constant_series_stalls(self):
        d = _diagnose(_progress_series([5.0] * 6))
        phase = d.phases["p"]
        assert phase.verdict == "stalled"
        assert phase.checks["stalled"]
        assert phase.evidence["stalled"]["relative_improvement"] == 0.0
        assert not d.healthy

    def test_constant_below_stall_points_is_insufficient_signal(self):
        # 5 points: enough for a verdict (min_points=3) but below the
        # stall threshold of 6 — a short flat prefix is not a stall
        d = _diagnose(_progress_series([5.0] * 5))
        assert d.phases["p"].verdict == "converged"

    def test_rising_series_diverges(self):
        values = [10.0 + i * 2.0 for i in range(20)]
        d = _diagnose(_progress_series(values))
        phase = d.phases["p"]
        assert phase.verdict == "diverging"
        assert phase.evidence["diverging"]["window_rise"] > 0
        assert not d.healthy

    def test_fall_then_sustained_rise_diverges(self):
        values = [100.0 - 10.0 * i for i in range(10)]
        values += [values[-1] + 8.0 * i for i in range(1, 13)]
        d = _diagnose(_progress_series(values))
        assert d.phases["p"].verdict == "diverging"

    def test_nan_first_iteration_is_nonfinite(self):
        d = _diagnose(_progress_series([float("nan")]))
        phase = d.phases["p"]
        assert phase.verdict == "non-finite"
        assert phase.checks["non-finite"]
        # non-finite outranks insufficient-data even on one point
        assert d.verdict == "non-finite"

    def test_nan_in_secondary_key_is_nonfinite(self):
        records = [
            ("p", i, {"cost": 1.0 / (i + 1), "grad_norm": g})
            for i, g in enumerate([1.0, float("inf"), 1.0, 1.0])
        ]
        d = _diagnose(records)
        phase = d.phases["p"]
        assert phase.verdict == "non-finite"
        assert phase.evidence["non-finite"]["key"] == "grad_norm"

    def test_nan_in_health_values_is_nonfinite(self):
        records = _progress_series([3.0, 2.0, 1.0, 0.5])
        records.append(
            ("p" + health.HEALTH_SUFFIX, 2, {"residual": float("nan")})
        )
        d = _diagnose(records)
        assert d.phases["p"].verdict == "non-finite"

    def test_oscillating_tail_detected(self):
        # bounces between 8 and 11 without ever beating the prefix
        # best of 8 — an oscillation, not progress
        values = [10.0, 9.0, 8.0]
        for i in range(14):
            values.append(8.0 + (3.0 if i % 2 == 0 else 0.0))
        d = _diagnose(_progress_series(values))
        phase = d.phases["p"]
        assert phase.verdict == "oscillating"
        assert phase.evidence["oscillating"]["flip_fraction"] >= 0.75

    def test_step_collapse_detected(self):
        n = 12
        values = [10.0 - 0.5 * i for i in range(n)]
        steps = [1.0] * 4 + [1e-15] * (n - 4)
        d = _diagnose(
            _progress_series(values, step=steps)
        )
        phase = d.phases["p"]
        assert phase.verdict == "step-collapse"
        assert phase.evidence["step-collapse"]["peak_step"] == 1.0

    def test_health_steps_preferred_over_progress_steps(self):
        records = _progress_series([10.0 - 0.5 * i for i in range(12)])
        for i in range(12):
            records.append((
                "p" + health.HEALTH_SUFFIX, i,
                {"step_length": 1.0 if i < 4 else 1e-15},
            ))
        d = _diagnose(records)
        assert d.phases["p"].verdict == "step-collapse"

    def test_metric_preference_overflow_over_value(self):
        # ePlace publishes both; overflow is the convergence criterion
        records = [
            ("eplace.nesterov", i,
             {"value": 10.0 + i, "overflow": 1.0 / (i + 1.0),
              "hpwl": 50.0 + i})
            for i in range(20)
        ]
        d = _diagnose(records)
        phase = d.phases["eplace.nesterov"]
        assert phase.metric == "overflow"
        assert phase.verdict == "converged"

    def test_explicit_metric_override(self):
        records = [
            ("p", i, {"cost": 1.0, "aux": 10.0 + i})
            for i in range(20)
        ]
        d = _diagnose(
            records, DiagnoseParams(metric="aux")
        )
        assert d.phases["p"].metric == "aux"
        assert d.phases["p"].verdict == "diverging"


class TestSerialization:
    def test_roundtrip_through_dict(self):
        values = [10.0 + i for i in range(20)]
        d = _diagnose(_progress_series(values))
        back = Diagnosis.from_dict(d.to_dict())
        assert back.to_json() == d.to_json()
        assert back.verdict == "diverging"

    def test_to_json_is_canonical(self):
        d = _diagnose(_progress_series([3.0, 2.0, 1.0]))
        assert d.to_json() == d.to_json()
        assert "\n" not in d.to_json()

    def test_from_dict_tolerates_unknown_keys(self):
        doc = _diagnose(
            _progress_series([3.0, 2.0, 1.0])
        ).to_dict()
        doc["future_field"] = {"x": 1}
        doc["phases"]["p"]["another"] = True
        back = Diagnosis.from_dict(doc)
        assert back.phases["p"].verdict == "converged"


class TestTraceDiagnosis:
    def _trace(self, values, health_steps=None):
        tracer = obs.Tracer(enabled=True)
        for i, v in enumerate(values):
            tracer.record("p", i, cost=v)
            if health_steps is not None:
                tracer.record(
                    "p" + health.HEALTH_SUFFIX, i,
                    step_length=health_steps[i],
                )
        return tracer.to_trace()

    def test_health_phase_merges_into_base(self):
        values = [10.0 - 0.5 * i for i in range(12)]
        steps = [1.0] * 4 + [1e-15] * 8
        d = diagnose_trace(self._trace(values, health_steps=steps))
        assert set(d.phases) == {"p"}
        assert d.phases["p"].verdict == "step-collapse"

    def test_trace_roundtrip_preserves_diagnosis(self, tmp_path):
        values = [10.0 + i for i in range(20)]
        trace = self._trace(values)
        path = tmp_path / "trace.jsonl"
        write_jsonl(trace, path)
        _, loaded = read_jsonl(path)
        assert diagnose_trace(loaded).to_json() == \
            diagnose_trace(trace).to_json()


class TestDeterminism:
    def test_repeat_byte_identity(self, comp1_circuit):
        from repro.annealing import anneal_place

        outs = []
        for _ in range(2):
            with obs.tracing():
                result = anneal_place(
                    comp1_circuit, SAParams(iterations=600, seed=3)
                )
            outs.append(result.diagnosis.to_json())
        assert outs[0] == outs[1]

    def test_jobs_1_vs_4_byte_identity(self, comp1_circuit):
        outs = []
        for jobs in (1, 4):
            with obs.tracing() as tracer:
                results = place_multiseed(
                    comp1_circuit, "annealing", seeds=(1, 2, 3),
                    jobs=jobs,
                    params=SAParams(iterations=400),
                )
            outs.append((
                [r.diagnosis.to_json() for r in results],
                diagnose_trace(tracer.to_trace()).to_json(),
            ))
        assert outs[0] == outs[1]
        # every seed's run was diagnosed from its own records
        for doc in outs[0][0]:
            assert "sa.stage" in Diagnosis.from_dict(
                json.loads(doc)).phases


class TestAttach:
    def test_untraced_run_attaches_insufficient_data(
        self, comp1_circuit, fast_sa_params,
    ):
        from repro.annealing import anneal_place

        result = anneal_place(comp1_circuit, fast_sa_params)
        assert result.diagnosis is not None
        assert result.diagnosis.verdict == "insufficient-data"

    def test_traced_run_attaches_real_verdict(self, comp1_circuit):
        from repro.annealing import anneal_place

        # seed 1 improves on its initial cost (seed 2 happens to start
        # at its own best, which correctly diagnoses as stalled)
        with obs.tracing():
            result = anneal_place(
                comp1_circuit, SAParams(iterations=1500, seed=1)
            )
        assert result.diagnosis is not None
        assert result.diagnosis.verdict == "converged"
        assert result.diagnosis.healthy
