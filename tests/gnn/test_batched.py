"""Batched-kernel agreement, feature cache and fan-out determinism.

The batched kernels in ``repro.gnn.batched`` are held to the loop
reference implementations within 1e-10 (the same contract as
``tests.reference.density.rasterize_loop``), and every ``jobs`` fan-out must be
bit-identical to its sequential run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn import (
    NUM_FEATURES,
    FeatureEncoder,
    GNNModel,
    PerformanceModel,
    generate_dataset,
)
from repro.gnn.batched import (
    EnsembleKernels,
    FeatureCache,
    batch_input_grads,
    batch_loss_grads,
    encode_dataset,
)
from repro.gnn.dataset import (
    _random_packing,
    augment_dataset,
    sa_parameter_sweep_samples,
)

TOL = 1e-10


@pytest.fixture(scope="module")
def seed_placement():
    from repro.api import place
    from repro.circuits import cc_ota

    return place(cc_ota(), "eplace-a").placement


@pytest.fixture(scope="module")
def encoder(seed_placement):
    return FeatureEncoder(seed_placement.circuit)


def _random_batch(encoder, batch, seed):
    rng = np.random.default_rng(seed)
    n = encoder.a_hat.shape[0]
    return rng.standard_normal((batch, n, NUM_FEATURES))


class TestBatchedVsLoop:
    @pytest.mark.parametrize("batch", [1, 3, 7])
    def test_loss_and_param_grads_agree(self, encoder, batch):
        """Summed batched grads equal per-sample loop grads (any B)."""
        a_hat = encoder.a_hat
        x = _random_batch(encoder, batch, seed=5)
        rng = np.random.default_rng(1)
        labels = rng.uniform(0, 1, batch)
        model = GNNModel(NUM_FEATURES, hidden=12, seed=3)

        losses, grads = batch_loss_grads(model, a_hat, x, labels)
        ref_sum: dict[str, np.ndarray] = {}
        for b in range(batch):
            cache = model.forward(a_hat, x[b])
            ref_loss, ref_grads = model.loss_gradients(cache, labels[b])
            assert losses[b] == pytest.approx(ref_loss, abs=TOL)
            for k, g in ref_grads.items():
                ref_sum[k] = ref_sum.get(k, 0.0) + g
        assert set(grads) == set(ref_sum)
        for k in grads:
            assert np.abs(grads[k] - ref_sum[k]).max() < TOL

    @pytest.mark.parametrize("batch", [1, 4])
    def test_input_grads_agree(self, encoder, batch):
        a_hat = encoder.a_hat
        x = _random_batch(encoder, batch, seed=9)
        model = GNNModel(NUM_FEATURES, hidden=12, seed=2)
        phis, d_x = batch_input_grads(model, a_hat, x)
        for b in range(batch):
            fwd = model.forward(a_hat, x[b])
            assert phis[b] == pytest.approx(fwd.phi, abs=TOL)
            ref = model.input_gradient(fwd)
            assert np.abs(d_x[b] - ref).max() < TOL

    def test_ragged_final_minibatch(self, encoder):
        """Training must agree even when B doesn't divide the dataset."""
        a_hat = encoder.a_hat
        x = _random_batch(encoder, 5, seed=11)
        model = GNNModel(NUM_FEATURES, hidden=8, seed=0)
        labels = np.array([1.0, 0.0, 1.0, 0.5, 0.0])
        full, _ = batch_loss_grads(model, a_hat, x, labels)
        head, _ = batch_loss_grads(model, a_hat, x[:3], labels[:3])
        tail, _ = batch_loss_grads(model, a_hat, x[3:], labels[3:])
        assert np.abs(np.concatenate([head, tail]) - full).max() < TOL


class TestEnsembleKernels:
    def test_phi_and_input_grad_agree(self, encoder):
        a_hat = encoder.a_hat
        members = [GNNModel(NUM_FEATURES, hidden=10, seed=s)
                   for s in range(4)]
        kern = EnsembleKernels(members)
        feats = _random_batch(encoder, 1, seed=3)[0]

        phis = kern.phi(a_hat, feats)
        phis2, d_feats = kern.phi_and_input_grad(a_hat, feats)
        ref_d = np.zeros_like(feats)
        for i, m in enumerate(members):
            fwd = m.forward(a_hat, feats)
            assert phis[i] == pytest.approx(fwd.phi, abs=TOL)
            assert phis2[i] == pytest.approx(fwd.phi, abs=TOL)
            ref_d += m.input_gradient(fwd)
        assert np.abs(d_feats - ref_d).max() < TOL

    def test_phi_batch_is_ensemble_mean(self, encoder):
        a_hat = encoder.a_hat
        members = [GNNModel(NUM_FEATURES, hidden=10, seed=s)
                   for s in range(3)]
        kern = EnsembleKernels(members)
        x = _random_batch(encoder, 6, seed=21)
        out = kern.phi_batch(a_hat, x)
        for b in range(6):
            ref = np.mean([m.forward(a_hat, x[b]).phi for m in members])
            assert out[b] == pytest.approx(ref, abs=TOL)

    def test_matches_detects_parameter_replacement(self, encoder):
        members = [GNNModel(NUM_FEATURES, hidden=8, seed=s)
                   for s in range(2)]
        kern = EnsembleKernels(members)
        assert kern.matches(members)
        members[1].set_parameters(
            GNNModel(NUM_FEATURES, hidden=8, seed=9).parameters()
        )
        assert not kern.matches(members)

    def test_model_kernel_modes_agree(self, seed_placement):
        """PerformanceModel phi/phi_and_grad: batched == loop."""
        circuit = seed_placement.circuit
        model = PerformanceModel(circuit, hidden=8, seed=1, ensemble=3)
        rng = np.random.default_rng(4)
        n = circuit.num_devices
        x = rng.uniform(0, 8, n)
        y = rng.uniform(0, 8, n)
        phi_b, gx_b, gy_b = model.phi_and_grad(x, y)
        model.inference_kernel = "loop"
        phi_l, gx_l, gy_l = model.phi_and_grad(x, y)
        assert phi_b == pytest.approx(phi_l, abs=TOL)
        assert np.abs(gx_b - gx_l).max() < TOL
        assert np.abs(gy_b - gy_l).max() < TOL


class TestFeatureCache:
    def test_incremental_encode_appends_only(self, encoder,
                                             seed_placement):
        ds = generate_dataset(seed_placement, samples=12, seed=1)
        cache = FeatureCache()
        first = cache.features(encoder, ds)
        assert first.shape[0] == 12

        calls = []
        orig = FeatureCache._encode_rows

        def counting(enc, dataset, lo, hi):
            calls.append((lo, hi))
            return orig(enc, dataset, lo, hi)

        rng = np.random.default_rng(0)
        extras = [_random_packing(seed_placement.circuit, rng)
                  for _ in range(3)]
        bigger = augment_dataset(ds, extras)
        cache._encode_rows = counting  # type: ignore[method-assign]
        second = cache.features(encoder, bigger)
        assert second.shape[0] == 15
        assert calls == [(12, 15)]  # only the new rows were encoded
        assert np.array_equal(second, encode_dataset(encoder, bigger))

    def test_prefix_mutation_invalidates(self, encoder,
                                         seed_placement):
        ds = generate_dataset(seed_placement, samples=8, seed=1)
        cache = FeatureCache()
        cache.features(encoder, ds)
        ds.positions[0, 0, 0] += 0.5  # corrupt the encoded prefix
        refreshed = cache.features(encoder, ds)
        assert np.array_equal(refreshed,
                              encode_dataset(encoder, ds))


class TestTrainingKernels:
    def test_train_kernels_agree_and_report_members(
        self, seed_placement
    ):
        ds = generate_dataset(seed_placement, samples=40, seed=3)
        kwargs = dict(epochs=6, seed=0)
        a = PerformanceModel(seed_placement.circuit, hidden=8, seed=0,
                             ensemble=2)
        rep_a = a.train(ds, kernel="batched", **kwargs)
        b = PerformanceModel(seed_placement.circuit, hidden=8, seed=0,
                             ensemble=2)
        rep_b = b.train(ds, kernel="loop", **kwargs)

        assert rep_a.final_loss == pytest.approx(rep_b.final_loss,
                                                 abs=1e-8)
        for ma, mb in zip(a.members, b.members):
            for k, v in ma.parameters().items():
                assert np.abs(v - mb.parameters()[k]).max() < 1e-8

        # report shape: per-member curves + ensemble-mean history
        assert len(rep_a.member_histories) == 2
        assert all(len(h) == 6 for h in rep_a.member_histories)
        assert len(rep_a.history) == 6
        mean0 = float(np.mean([h[0] for h in rep_a.member_histories]))
        assert rep_a.history[0] == pytest.approx(mean0, abs=TOL)
        assert rep_a.final_loss == pytest.approx(rep_a.history[-1],
                                                 abs=TOL)

    def test_unknown_kernel_rejected(self, seed_placement):
        ds = generate_dataset(seed_placement, samples=8, seed=1)
        model = PerformanceModel(seed_placement.circuit, ensemble=1)
        with pytest.raises(ValueError, match="kernel"):
            model.train(ds, epochs=1, kernel="gpu")


class TestFanOutDeterminism:
    def test_generate_dataset_jobs_bit_identical(self, seed_placement):
        seq = generate_dataset(seed_placement, samples=30, seed=5)
        par = generate_dataset(seed_placement, samples=30, seed=5,
                               jobs=3)
        assert np.array_equal(seq.positions, par.positions)
        assert np.array_equal(seq.flips, par.flips)
        assert np.array_equal(seq.foms, par.foms)
        assert seq.threshold == par.threshold

    def test_sweep_jobs_bit_identical(self, seed_placement):
        circuit = seed_placement.circuit
        seq = sa_parameter_sweep_samples(
            circuit, np.random.default_rng(7), runs=4,
            iterations=120, perturbations=2)
        par = sa_parameter_sweep_samples(
            circuit, np.random.default_rng(7), runs=4,
            iterations=120, perturbations=2, jobs=2)
        assert len(seq) == len(par) > 0
        for a, b in zip(seq, par):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)

    def test_augment_jobs_bit_identical(self, seed_placement):
        ds = generate_dataset(seed_placement, samples=10, seed=1)
        rng = np.random.default_rng(0)
        extras = [_random_packing(seed_placement.circuit, rng)
                  for _ in range(6)]
        seq = augment_dataset(ds, list(extras))
        par = augment_dataset(ds, list(extras), jobs=3)
        assert np.array_equal(seq.foms, par.foms)
        assert np.array_equal(seq.positions, par.positions)
