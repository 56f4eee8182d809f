"""Batched GNN kernels: minibatch training and stacked-ensemble inference.

The GNN sits on two hot paths of the performance-driven half of the
paper (Tables V-VII, Fig. 6):

* **training** — ``PerformanceModel.train`` runs ``epochs x batches``
  minibatches; the original implementation dispatched one numpy
  forward+backward *per sample*, so a 600-sample dataset cost tens of
  thousands of tiny matmuls dominated by Python/numpy call overhead;
* **inference** — every ePlace-AP Nesterov iteration and every perf-SA
  move evaluates the ensemble, and the original implementation looped
  over the ``K`` members one forward (plus one backward for the
  gradient) at a time.

Because every sample of one circuit shares the same normalised
adjacency ``a_hat``, the per-sample feature matrices stack into a
``(B, N, F)`` tensor and both passes become a handful of batched
matmuls:

* :func:`batch_forward` / :func:`batch_loss_grads` /
  :func:`batch_input_grads` — one call per *minibatch* with parameter
  gradients summed over the batch in one flattened GEMM;
* :class:`EnsembleKernels` — the ``K`` members' weights stacked into
  ``(K, F, H)`` tensors so one call evaluates (and differentiates) the
  whole ensemble.

The per-sample / per-member loop implementations in
:mod:`repro.gnn.model` and :mod:`repro.gnn.train` are **retained as
the reference spec** (as the per-device loops in
``tests/reference/density.py`` anchor the vectorised density kernels):
the agreement tests hold the batched kernels to the loop results within
1e-10 on forward values, parameter gradients and input-position
gradients.

:class:`FeatureCache` completes the batch pipeline: adversarial
hardening rounds grow the dataset by appending samples, so re-encoding
the whole prefix every round is pure waste — the cache fingerprints
the encoded prefix and only encodes the new rows.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # import cycle: train imports this module
    from .dataset import PlacementDataset
    from .features import FeatureEncoder
    from .model import GNNModel

#: numeric floor/ceiling keeping the cross-entropy away from log(0);
#: must match the clipping of the loop reference in model.loss_gradients
_PHI_EPS = 1e-9


def _flat2d(t: np.ndarray) -> np.ndarray:
    """Collapse all leading axes of ``t`` into one (``(..., M) -> (-1, M)``)."""
    return np.ascontiguousarray(t).reshape(-1, t.shape[-1])


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    """Numerically plain sigmoid (logits here are O(1) by design)."""
    return 1.0 / (1.0 + np.exp(-logits))


class BatchForward:
    """Activations of one batched forward pass (kept for backward).

    All tensors are batched along axis 0: ``x`` is ``(B, N, F)``,
    ``z1``/``h1``/``z2``/``h2`` are ``(B, N, H)``, ``pooled`` is
    ``(B, H)`` and ``logits``/``phis`` are ``(B,)``.
    """

    __slots__ = ("a_hat", "x", "z1", "h1", "z2", "h2", "pooled",
                 "logits", "phis")

    def __init__(self, a_hat: np.ndarray, x: np.ndarray,
                 z1: np.ndarray, h1: np.ndarray, z2: np.ndarray,
                 h2: np.ndarray, pooled: np.ndarray,
                 logits: np.ndarray, phis: np.ndarray) -> None:
        self.a_hat = a_hat
        self.x = x
        self.z1 = z1
        self.h1 = h1
        self.z2 = z2
        self.h2 = h2
        self.pooled = pooled
        self.logits = logits
        self.phis = phis


def batch_forward(
    model: "GNNModel", a_hat: np.ndarray, x: np.ndarray
) -> BatchForward:
    """Forward pass of one model over a ``(B, N, F)`` feature tensor.

    Row ``b`` of every output equals the loop reference
    ``model.forward(a_hat, x[b])`` within 1e-10; the shared ``a_hat``
    broadcasts over the batch axis, so the two GCN layers are plain
    batched matmuls.  The matmul association is
    ``a_hat @ (x @ w1)`` — feature-projection first — which is the
    cheaper order whenever the device count exceeds the feature width.
    """
    z1 = a_hat @ (x @ model.w1) + model.b1
    h1 = np.maximum(z1, 0.0)
    z2 = a_hat @ (h1 @ model.w2) + model.b2
    h2 = np.maximum(z2, 0.0)
    pooled = h2.mean(axis=1)
    logits = pooled @ model.w3 + model.b3
    phis = _sigmoid(logits)
    return BatchForward(a_hat, x, z1, h1, z2, h2, pooled, logits, phis)


def _batch_backward(
    model: "GNNModel", cache: BatchForward, dlogits: np.ndarray,
    need_dx: bool = False,
) -> tuple[dict[str, np.ndarray], "np.ndarray | None"]:
    """Backward pass from per-sample logit cotangents ``(B,)``.

    Parameter gradients are *summed* over the batch inside flattened
    GEMM contractions (one pass, no per-sample accumulation loop); the
    optional input gradient keeps its batch axis.
    """
    n = cache.x.shape[1]
    grad_w3 = dlogits @ cache.pooled
    grad_b3 = float(dlogits.sum())
    d_pooled = dlogits[:, None] * model.w3

    d_z2 = (d_pooled[:, None, :] / n) * (cache.z2 > 0.0)
    ah1 = cache.a_hat @ cache.h1
    # contract the (batch, node) axes in one 2-D GEMM — np.einsum
    # would run the same reduction through its non-BLAS inner loops
    grad_w2 = _flat2d(ah1).T @ _flat2d(d_z2)
    grad_b2 = d_z2.sum(axis=(0, 1))
    d_h1 = cache.a_hat.T @ (d_z2 @ model.w2.T)

    d_z1 = d_h1 * (cache.z1 > 0.0)
    ax = cache.a_hat @ cache.x
    grad_w1 = _flat2d(ax).T @ _flat2d(d_z1)
    grad_b1 = d_z1.sum(axis=(0, 1))
    d_x = None
    if need_dx:
        d_x = cache.a_hat.T @ (d_z1 @ model.w1.T)

    grads = {
        "w1": grad_w1, "b1": grad_b1,
        "w2": grad_w2, "b2": grad_b2,
        "w3": grad_w3, "b3": np.array([grad_b3]),
    }
    return grads, d_x


def batch_loss_grads(
    model: "GNNModel", a_hat: np.ndarray, x: np.ndarray,
    labels: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Cross-entropy losses ``(B,)`` and batch-summed parameter grads.

    Equals the loop reference ``model.loss_gradients`` evaluated per
    sample with the gradients added up — within 1e-10, for any batch
    size including ``B=1`` and ragged final minibatches.
    """
    cache = batch_forward(model, a_hat, x)
    phis = np.clip(cache.phis, _PHI_EPS, 1.0 - _PHI_EPS)
    losses = -(labels * np.log(phis)
               + (1.0 - labels) * np.log(1.0 - phis))
    grads, _ = _batch_backward(model, cache, phis - labels)
    return losses, grads


def batch_input_grads(
    model: "GNNModel", a_hat: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample ``phi`` values and input gradients.

    Returns ``(phis (B,), d_x (B, N, F))`` where ``d_x[b]`` equals the
    loop reference ``model.input_gradient(model.forward(a_hat, x[b]))``
    within 1e-10.
    """
    cache = batch_forward(model, a_hat, x)
    dlogits = cache.phis * (1.0 - cache.phis)
    # dlogits scale per-sample cotangents; d_x keeps its batch axis
    n = cache.x.shape[1]
    d_pooled = dlogits[:, None] * model.w3
    d_z2 = (d_pooled[:, None, :] / n) * (cache.z2 > 0.0)
    d_h1 = cache.a_hat.T @ (d_z2 @ model.w2.T)
    d_z1 = d_h1 * (cache.z1 > 0.0)
    d_x = cache.a_hat.T @ (d_z1 @ model.w1.T)
    return cache.phis, d_x


class EnsembleKernels:
    """The ``K`` ensemble members' weights stacked for one-pass calls.

    ``w1`` is ``(K, F, H)``, ``w2`` ``(K, H, H)``, ``w3`` ``(K, H)``
    and the biases follow; :meth:`phi` and :meth:`phi_and_input_grad`
    then evaluate the whole ensemble on one ``(N, F)`` feature matrix
    with broadcast matmuls instead of a Python loop over members — the
    per-iteration cost of ePlace-AP's Nesterov loop and of every
    perf-SA move.

    A kernel stack is a *snapshot*: :meth:`matches` checks (by array
    identity) that no member has had parameters replaced since the
    stack was built, so consumers rebuild lazily after training.
    """

    def __init__(self, members: "Sequence[GNNModel]") -> None:
        self._sources = tuple(
            (m.w1, m.b1, m.w2, m.b2, m.w3, m.b3) for m in members
        )
        self.w1 = np.stack([m.w1 for m in members])
        self.b1 = np.stack([m.b1 for m in members])
        self.w2 = np.stack([m.w2 for m in members])
        self.b2 = np.stack([m.b2 for m in members])
        self.w3 = np.stack([m.w3 for m in members])
        self.b3 = np.array([m.b3 for m in members])

    def matches(self, members: "Sequence[GNNModel]") -> bool:
        """True while the stack mirrors the members' current arrays."""
        if len(members) != len(self._sources):
            return False
        return all(
            src[0] is m.w1 and src[1] is m.b1 and src[2] is m.w2
            and src[3] is m.b2 and src[4] is m.w3 and src[5] is m.b3
            for src, m in zip(self._sources, members)
        )

    # ------------------------------------------------------------------
    def _forward(
        self, a_hat: np.ndarray, feats: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Shared ensemble forward; returns ``(z1, h1, z2, phis)``."""
        # (N, F) @ (K, F, H) broadcasts to K BLAS GEMMs -> (K, N, H);
        # einsum would run the contraction outside BLAS (~6x slower
        # per call, and this sits inside the Nesterov iteration loop)
        z1 = a_hat @ (feats @ self.w1) + self.b1[:, None, :]
        h1 = np.maximum(z1, 0.0)
        z2 = a_hat @ (h1 @ self.w2) + self.b2[:, None, :]
        h2 = np.maximum(z2, 0.0)
        pooled = h2.mean(axis=1)
        logits = (pooled * self.w3).sum(axis=1) + self.b3
        return z1, h1, z2, _sigmoid(logits)

    def phi(self, a_hat: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """Per-member failure probabilities ``(K,)`` for one sample."""
        return self._forward(a_hat, feats)[3]

    def phi_and_input_grad(
        self, a_hat: np.ndarray, feats: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-member ``phi`` plus the summed input-feature gradient.

        Returns ``(phis (K,), d_feats (N, F))`` where ``d_feats`` is
        :math:`\\sum_k \\partial \\Phi_k / \\partial X` — the caller
        divides by ``K`` for the ensemble mean, matching the loop
        reference in ``PerformanceModel.phi_and_grad``.
        """
        n = feats.shape[0]
        z1, h1, z2, phis = self._forward(a_hat, feats)
        dlogits = phis * (1.0 - phis)
        d_pooled = dlogits[:, None] * self.w3
        d_z2 = (d_pooled[:, None, :] / n) * (z2 > 0.0)
        d_h1 = a_hat.T @ (d_z2 @ self.w2.transpose(0, 2, 1))
        d_z1 = d_h1 * (z1 > 0.0)
        d_x = a_hat.T @ (d_z1 @ self.w1.transpose(0, 2, 1))
        return phis, d_x.sum(axis=0)

    def phi_batch(
        self, a_hat: np.ndarray, x: np.ndarray
    ) -> np.ndarray:
        """Ensemble-mean ``phi`` for a whole ``(B, N, F)`` tensor.

        One matmul chain over both the batch and the member axes; used
        by training-accuracy reporting, where the original code paid
        ``B x K`` separate forward passes.
        """
        z1 = a_hat @ (x[None] @ self.w1[:, None]) \
            + self.b1[:, None, None, :]
        h1 = np.maximum(z1, 0.0)
        z2 = a_hat @ (h1 @ self.w2[:, None]) \
            + self.b2[:, None, None, :]
        h2 = np.maximum(z2, 0.0)
        pooled = h2.mean(axis=2)  # (K, B, H)
        logits = (pooled * self.w3[:, None, :]).sum(axis=2) \
            + self.b3[:, None]
        return _sigmoid(logits).mean(axis=0)


class FeatureCache:
    """Incremental encoder for a dataset's ``(B, N, F)`` feature tensor.

    Adversarial hardening repeatedly calls ``train`` on a dataset that
    *grows by appending* (``augment_dataset`` concatenates new samples
    after the old ones), so the encoded prefix never changes.  The
    cache stores the encoded tensor together with a digest of the raw
    positions/flips it encoded; when asked again it verifies the
    prefix digest and encodes only the new rows, falling back to a
    full re-encode whenever the prefix bytes differ (invalidation is
    by content, not by object identity, because augmentation builds
    fresh arrays every round).
    """

    def __init__(self) -> None:
        self._feats: "np.ndarray | None" = None
        self._count = 0
        self._digest = b""

    @staticmethod
    def _fingerprint(dataset: "PlacementDataset", count: int) -> bytes:
        """Digest of the first ``count`` samples' raw inputs."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(
            dataset.positions[:count]).tobytes())
        h.update(np.ascontiguousarray(dataset.flips[:count]).tobytes())
        return h.digest()

    @staticmethod
    def _encode_rows(
        encoder: "FeatureEncoder", dataset: "PlacementDataset",
        lo: int, hi: int,
    ) -> np.ndarray:
        from .features import NUM_FEATURES

        n = dataset.positions.shape[1]
        if hi <= lo:
            return np.zeros((0, n, NUM_FEATURES))
        return np.stack([
            encoder.encode_xy(
                dataset.positions[k, :, 0], dataset.positions[k, :, 1],
                dataset.flips[k, :, 0], dataset.flips[k, :, 1],
            )
            for k in range(lo, hi)
        ])

    def features(
        self, encoder: "FeatureEncoder", dataset: "PlacementDataset"
    ) -> np.ndarray:
        """The dataset's encoded feature tensor, incrementally built."""
        m = len(dataset)
        if (
            self._feats is not None
            and 0 < self._count <= m
            and self._fingerprint(dataset, self._count) == self._digest
        ):
            fresh = self._encode_rows(encoder, dataset, self._count, m)
            feats = (
                np.concatenate([self._feats, fresh])
                if len(fresh) else self._feats
            )
        else:
            feats = self._encode_rows(encoder, dataset, 0, m)
        self._feats = feats
        self._count = m
        self._digest = self._fingerprint(dataset, m)
        return feats


def encode_dataset(
    encoder: "FeatureEncoder",
    dataset: "PlacementDataset",
    cache: "FeatureCache | None" = None,
) -> np.ndarray:
    """Encode a whole dataset into one ``(B, N, F)`` tensor.

    With a :class:`FeatureCache`, rows already encoded for a previous
    (prefix-identical) version of the dataset are reused.
    """
    if cache is not None:
        return cache.features(encoder, dataset)
    return FeatureCache._encode_rows(encoder, dataset, 0, len(dataset))
