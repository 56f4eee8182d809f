"""Process-parallel fan-out: determinism, ordering and trace merging.

The contract under test is the one every fan-out site relies on:
``jobs=N`` must produce byte-identical results to ``jobs=1``, in input
order, and per-worker traces must merge losslessly into the parent
tracer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annealing import SAParams
from repro.api import place_multiseed
from repro.circuits import make
from repro.eplace import EPlaceParams
from repro.obs import tracing
from repro.parallel import normalize_jobs, parallel_map

#: tiny SA budget: quality is irrelevant here, only determinism
_FAST_SA = SAParams(iterations=400, polish_evals=50)


def _square(value: int) -> int:
    return value * value


def _explode(value: int) -> int:
    raise RuntimeError(f"worker {value} failed")


class TestParallelMap:
    def test_preserves_input_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=4) == \
            [v * v for v in items]

    def test_inline_and_parallel_agree(self):
        items = [3, 1, 4, 1, 5]
        assert parallel_map(_square, items, jobs=1) == \
            parallel_map(_square, items, jobs=3)

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="worker"):
            parallel_map(_explode, [1, 2], jobs=2)

    def test_normalize_jobs(self):
        assert normalize_jobs(1) == 1
        assert normalize_jobs(None) >= 1
        assert normalize_jobs(0) == normalize_jobs(None)
        assert normalize_jobs(10_000) >= 1  # clamped to cpu count
        with pytest.raises(ValueError):
            normalize_jobs(-2)


class TestPlaceMultiseed:
    def test_jobs_do_not_change_results(self):
        circuit = make("Adder")
        seq = place_multiseed(circuit, "annealing", seeds=(1, 2, 3),
                              jobs=1, params=_FAST_SA)
        par = place_multiseed(circuit, "annealing", seeds=(1, 2, 3),
                              jobs=3, params=_FAST_SA)
        for a, b in zip(seq, par):
            assert np.array_equal(a.placement.x, b.placement.x)
            assert np.array_equal(a.placement.y, b.placement.y)
            ma = {k: v for k, v in a.metrics().items()
                  if k != "runtime_s"}
            mb = {k: v for k, v in b.metrics().items()
                  if k != "runtime_s"}
            assert ma == mb

    def test_eplace_jobs1_vs_jobs2_identical(self, cc_ota_circuit,
                                             fast_dp_params):
        kwargs = dict(
            gp_params=EPlaceParams(max_iters=60, min_iters=15, bins=16,
                                   eta=0.3),
            dp_params=fast_dp_params,
        )
        seq = place_multiseed(cc_ota_circuit, "eplace-a", seeds=(1, 2),
                              jobs=1, **kwargs)
        par = place_multiseed(cc_ota_circuit, "eplace-a", seeds=(1, 2),
                              jobs=2, **kwargs)
        for a, b in zip(seq, par):
            assert b.method == "eplace-a"
            assert np.array_equal(a.placement.x, b.placement.x)
            assert np.array_equal(a.placement.y, b.placement.y)
            assert a.metrics()["hpwl"] == b.metrics()["hpwl"]

    def test_results_in_seed_order_and_seeded(self):
        circuit = make("Adder")
        results = place_multiseed(circuit, "annealing", seeds=(7, 2),
                                  jobs=2, params=_FAST_SA)
        again = place_multiseed(circuit, "annealing", seeds=(7, 2),
                                jobs=1, params=_FAST_SA)
        assert len(results) == 2
        # seed-sharded: result i corresponds to seeds[i] exactly
        for a, b in zip(results, again):
            assert np.array_equal(a.placement.x, b.placement.x)

    def test_worker_traces_merge_into_parent(self):
        circuit = make("Adder")
        with tracing() as tracer:
            place_multiseed(circuit, "annealing", seeds=(1, 2),
                            jobs=2, params=_FAST_SA)
            merged = tracer.to_trace()
        # both workers traced 400 proposals each through sa.cost
        assert merged.timers["sa.cost"]["calls"] >= 2 * 400
        roots = [s for s in merged.spans if s.name == "sa.place"]
        assert len(roots) == 2

    def test_untraced_by_default(self):
        circuit = make("Adder")
        results = place_multiseed(circuit, "annealing", seeds=(1,),
                                  jobs=1, params=_FAST_SA)
        assert not results[0].trace
