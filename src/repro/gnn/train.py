"""Adam trainer and the trained performance-model wrapper."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..netlist import Circuit
from ..obs import trace
from ..placement import Placement
from .batched import (
    EnsembleKernels,
    FeatureCache,
    batch_loss_grads,
    encode_dataset,
)
from .dataset import PlacementDataset, generate_dataset
from .features import NUM_FEATURES, FeatureEncoder
from .model import GNNModel

#: accepted kernel selectors for training and ensemble inference
KERNELS = ("batched", "loop")


def _check_kernel(kernel: str) -> None:
    """Reject kernel selectors outside :data:`KERNELS`."""
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {KERNELS}"
        )


class Adam:
    """Plain Adam over a dict of parameter arrays."""

    def __init__(self, params: dict[str, np.ndarray], lr: float = 3e-3,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One bias-corrected Adam update; returns the new params."""
        self.t += 1
        out = {}
        for key, value in params.items():
            g = grads[key]
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * g
            self.v[key] = (
                self.beta2 * self.v[key] + (1 - self.beta2) * g * g
            )
            m_hat = self.m[key] / (1 - self.beta1 ** self.t)
            v_hat = self.v[key] / (1 - self.beta2 ** self.t)
            out[key] = value - self.lr * m_hat / (
                np.sqrt(v_hat) + self.eps
            )
        return out


@dataclass
class TrainReport:
    """Telemetry from one training run.

    ``history`` is the per-epoch *ensemble-mean* training loss and
    ``final_loss`` its last entry; ``member_histories`` keeps each
    member's own epoch curve (``ensemble x epochs``) for anyone who
    needs to see the members diverge.
    """

    epochs: int
    final_loss: float
    train_accuracy: float
    validation_corr: float = 0.0
    history: list[float] = field(default_factory=list)
    member_histories: list[list[float]] = field(default_factory=list)


class PerformanceModel:
    """A trained GNN ensemble bound to one circuit.

    This is the object the performance-driven placers consume:
    ``phi(x, y)`` is the (ensemble-mean) failure probability and
    ``phi_and_grad`` adds :math:`\\partial \\Phi / \\partial (x, y)`
    for the Nesterov loop.  Individual members vary noticeably with
    their initialisation seed; averaging a small ensemble stabilises
    both the ranking and the gradient direction.

    Inference runs through :class:`repro.gnn.batched.EnsembleKernels`
    (all members in one pass) unless ``inference_kernel`` is set to
    ``"loop"``, which selects the retained per-member reference
    implementation; agreement between the two is held to 1e-10.
    """

    def __init__(self, circuit: Circuit, hidden: int = 16,
                 seed: int = 0, ensemble: int = 3) -> None:
        if ensemble < 1:
            raise ValueError("ensemble size must be >= 1")
        self.circuit = circuit
        self.encoder = FeatureEncoder(circuit)
        self.members = [
            GNNModel(NUM_FEATURES, hidden=hidden, seed=seed + 101 * k)
            for k in range(ensemble)
        ]
        self.threshold: float | None = None
        #: Pearson correlation of phi vs FOM on held-out samples,
        #: set by train_performance_model; 0 means "never validated".
        self.validation_corr: float = 0.0
        #: "batched" (stacked one-pass ensemble) or "loop" (reference)
        self.inference_kernel: str = "batched"
        self._kernels: EnsembleKernels | None = None
        self._feature_cache = FeatureCache()

    @property
    def model(self) -> GNNModel:
        """First ensemble member (kept for single-model access)."""
        return self.members[0]

    # ------------------------------------------------------------------
    def _ensemble_kernels(self) -> EnsembleKernels:
        """Stacked-weight kernels, rebuilt whenever members changed."""
        if self._kernels is None or not self._kernels.matches(
                self.members):
            self._kernels = EnsembleKernels(self.members)
        return self._kernels

    def _phi_from_feats(self, feats: np.ndarray) -> float:
        """Ensemble-mean phi for one encoded feature matrix."""
        if self.inference_kernel == "loop":
            return self._phi_from_feats_loop(feats)
        kernels = self._ensemble_kernels()
        return float(kernels.phi(self.encoder.a_hat, feats).mean())

    def _phi_from_feats_loop(self, feats: np.ndarray) -> float:
        """Per-member reference for :meth:`_phi_from_feats`."""
        return float(np.mean([
            member.predict(self.encoder.a_hat, feats)
            for member in self.members
        ]))

    def phi(self, x: np.ndarray, y: np.ndarray) -> float:
        """Ensemble-mean failure probability at coordinates (µm)."""
        return self._phi_from_feats(self.encoder.encode_xy(x, y))

    def phi_placement(self, placement: Placement) -> float:
        """Ensemble-mean failure probability of a placement."""
        return self._phi_from_feats(self.encoder.encode(placement))

    @property
    def trust(self) -> float:
        """How much optimisation weight the model has earned, in [0, 1].

        Scales linearly from 0 at a validation correlation of -0.6 to
        1 at -0.9: a surrogate that cannot rank held-out placements has
        no business steering a placer, and every consumer of this model
        multiplies its influence by this factor.
        """
        return float(np.clip((-self.validation_corr - 0.6) / 0.3,
                             0.0, 1.0))

    def phi_and_grad(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Ensemble-mean failure probability and gradient (µm)."""
        if self.inference_kernel == "loop":
            return self.phi_and_grad_loop(x, y)
        feats, tape = self.encoder.forward(x, y)
        kernels = self._ensemble_kernels()
        phis, d_feats = kernels.phi_and_input_grad(
            self.encoder.a_hat, feats
        )
        k = len(self.members)
        gx, gy = self.encoder.backward(d_feats / k, tape)
        return float(phis.mean()), gx, gy

    def phi_and_grad_loop(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Per-member reference for :meth:`phi_and_grad`."""
        feats = self.encoder.encode_xy(x, y)
        phi_sum = 0.0
        d_feats = np.zeros_like(feats)
        for member in self.members:
            cache = member.forward(self.encoder.a_hat, feats)
            phi_sum += cache.phi
            d_feats += member.input_gradient(cache)
        k = len(self.members)
        gx, gy = self.encoder.position_grad(d_feats / k, x, y)
        return phi_sum / k, gx, gy

    # ------------------------------------------------------------------
    def train(
        self,
        dataset: PlacementDataset,
        epochs: int = 60,
        batch: int = 32,
        lr: float = 3e-3,
        seed: int = 0,
        kernel: str = "batched",
    ) -> TrainReport:
        """Minibatch cross-entropy training with Adam.

        ``kernel="batched"`` runs each minibatch as one stacked
        forward/backward over the ``(B, N, F)`` feature tensor
        (:func:`repro.gnn.batched.batch_loss_grads`); ``kernel="loop"``
        is the retained per-sample reference.  Both consume the same
        RNG stream (one permutation per member per epoch), so they
        follow the same trajectory up to floating-point summation
        order.  Encoded features are cached across calls, so the
        adversarial-hardening rounds of
        :func:`train_performance_model` only encode the appended
        samples.
        """
        _check_kernel(kernel)
        if dataset.circuit is not self.circuit and \
                dataset.circuit.name != self.circuit.name:
            raise ValueError("dataset belongs to a different circuit")
        self.threshold = dataset.threshold
        a_hat = self.encoder.a_hat
        m = len(dataset)
        with trace.span("gnn.train", samples=m, epochs=epochs,
                        ensemble=len(self.members), kernel=kernel):
            feats_all = encode_dataset(
                self.encoder, dataset, self._feature_cache
            )
            labels = np.asarray(dataset.labels, dtype=float)
            member_histories: list[list[float]] = []
            for member_id, member in enumerate(self.members):
                rng = np.random.default_rng(seed + 31 * member_id)
                optimizer = Adam(member.parameters(), lr=lr)
                history_m: list[float] = []
                for _ in range(epochs):
                    order = rng.permutation(m)
                    epoch_loss = 0.0
                    for lo in range(0, m, batch):
                        idx = order[lo:lo + batch]
                        if kernel == "batched":
                            losses, grads_sum = batch_loss_grads(
                                member, a_hat, feats_all[idx],
                                labels[idx],
                            )
                            epoch_loss += float(losses.sum())
                        else:
                            epoch_loss, grads_sum = self._loop_batch(
                                member, a_hat, feats_all, labels,
                                idx, epoch_loss,
                            )
                        scale = 1.0 / len(idx)
                        grads_avg = {
                            k: v * scale for k, v in grads_sum.items()
                        }
                        member.set_parameters(optimizer.step(
                            member.parameters(), grads_avg
                        ))
                    history_m.append(epoch_loss / m)
                member_histories.append(history_m)
            self._kernels = None  # weights changed; rebuild lazily

            history = [
                float(np.mean(col))
                for col in zip(*member_histories)
            ] if member_histories and member_histories[0] else []
            accuracy = self._train_accuracy(
                feats_all, dataset, kernel
            )
        return TrainReport(
            epochs=epochs,
            final_loss=history[-1] if history else float("nan"),
            train_accuracy=accuracy,
            history=history,
            member_histories=member_histories,
        )

    @staticmethod
    def _loop_batch(
        member: GNNModel,
        a_hat: np.ndarray,
        feats_all: np.ndarray,
        labels: np.ndarray,
        idx: np.ndarray,
        epoch_loss: float,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Reference minibatch: per-sample forward/backward, summed."""
        grads_sum: dict[str, np.ndarray] | None = None
        for k in idx:
            cache = member.forward(a_hat, feats_all[k])
            loss, grads = member.loss_gradients(
                cache, float(labels[k])
            )
            epoch_loss += loss
            if grads_sum is None:
                grads_sum = grads
            else:
                for key in grads_sum:
                    grads_sum[key] = grads_sum[key] + grads[key]
        assert grads_sum is not None
        return epoch_loss, grads_sum

    def _train_accuracy(
        self,
        feats_all: np.ndarray,
        dataset: PlacementDataset,
        kernel: str,
    ) -> float:
        """Fraction of samples whose hard label phi>=0.5 reproduces."""
        m = len(dataset)
        if kernel == "batched":
            phis = self._ensemble_kernels().phi_batch(
                self.encoder.a_hat, feats_all
            )
        else:
            phis = np.array([
                self._phi_from_feats_loop(feats_all[k])
                for k in range(m)
            ])
        hard = np.asarray(dataset.labels_hard, dtype=bool)
        return float(np.mean((phis >= 0.5) == hard))


def train_performance_model(
    seed_placement: Placement,
    samples: int = 600,
    epochs: int = 60,
    hidden: int = 16,
    seed: int = 0,
    sa_sweep_runs: int = 16,
    adversarial_rounds: int = 2,
    jobs: int = 1,
    kernel: str = "batched",
) -> tuple[PerformanceModel, TrainReport]:
    """Dataset generation + training + adversarial hardening.

    Three data sources, mirroring how the paper's >1000 samples come
    from the placement flow itself:

    1. the synthetic regimes of :func:`generate_dataset`;
    2. ``sa_sweep_runs`` short SA runs with randomised parameters (the
       optimiser's own output distribution);
    3. ``adversarial_rounds`` hardening passes — a quick SA guided by
       the *current* model hunts placements it scores well, their true
       FOMs join the dataset, and training continues.  Without this, a
       downstream optimiser reliably walks into the surrogate's blind
       spots (excellent :math:`\\Phi`, poor true FOM).

    ``jobs`` fans the embarrassingly parallel stages (synthetic
    regimes, SA sweep runs, augmentation labelling) across processes
    via :mod:`repro.parallel`; results are bit-identical to ``jobs=1``
    at any job count because every sample owns a seeded RNG stream.
    """
    from ..annealing import SAParams, SimulatedAnnealingPlacer
    from .dataset import augment_dataset, sa_parameter_sweep_samples

    circuit = seed_placement.circuit
    rng = np.random.default_rng(seed + 1)
    with trace.span("gnn.dataset", samples=samples, jobs=jobs):
        dataset = generate_dataset(
            seed_placement, samples=samples, seed=seed, jobs=jobs
        )
        if sa_sweep_runs > 0:
            dataset = augment_dataset(
                dataset,
                sa_parameter_sweep_samples(
                    circuit, rng, runs=sa_sweep_runs, jobs=jobs
                ),
                jobs=jobs,
            )
    model = PerformanceModel(circuit, hidden=hidden, seed=seed)
    report = model.train(dataset, epochs=epochs, seed=seed,
                         kernel=kernel)

    side = float(np.sqrt(circuit.total_device_area()))
    for round_id in range(adversarial_rounds):
        with trace.span("gnn.adversarial", round=round_id):
            probe = SimulatedAnnealingPlacer(
                circuit,
                SAParams(
                    iterations=3000,
                    seed=int(rng.integers(0, 2 ** 31 - 1)),
                    perf_weight=3.0,
                ),
                cost_hook=model.phi_placement,
            ).place().placement
            extras = [probe]
            for _ in range(7):
                jitter = probe.copy()
                sigma = rng.uniform(0.05, 0.5) * side / 12.0
                jitter.x = jitter.x + rng.normal(
                    0.0, sigma, len(jitter.x))
                jitter.y = jitter.y + rng.normal(
                    0.0, sigma, len(jitter.y))
                extras.append(jitter)
            dataset = augment_dataset(dataset, extras, jobs=jobs)
            report = model.train(dataset, epochs=max(epochs // 2, 10),
                                 seed=seed, kernel=kernel)

    # validation: rank fresh held-out placements (packings + local
    # perturbations of the seed), exactly the candidates downstream
    # optimisers will ask the model to compare
    from ..simulate import fom as true_fom
    from .dataset import _perturb, _random_packing

    val_rng = np.random.default_rng(seed + 9999)
    phis = []
    foms = []
    with trace.span("gnn.validate"):
        for k in range(60):
            if k % 2:
                p = _random_packing(circuit, val_rng)
            else:
                p = _perturb(seed_placement,
                             val_rng.uniform(0.2, 2.0) * side / 12.0,
                             val_rng)
            phis.append(model.phi_placement(p))
            foms.append(true_fom(p))
    spread = float(np.std(foms))
    if spread > 1e-6 and float(np.std(phis)) > 1e-9:
        model.validation_corr = float(np.corrcoef(phis, foms)[0, 1])
    report.validation_corr = model.validation_corr
    return model, report
