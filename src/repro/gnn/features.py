"""Graph features for the GNN performance model (paper Sec. V-A).

The circuit graph :math:`\\mathcal{G}` "covers device types, locations,
connections, etc." [19].  Per device node we encode:

* one-hot device type,
* normalised width/height, connectivity degree, and a critical-net
  membership flag (static),
* normalised centre coordinates (dynamic),
* two *interaction* features — the adjacency-weighted smooth-Manhattan
  distance to connected neighbours, over (a) the full connectivity
  graph and (b) the subgraph of performance-critical nets.

The interaction features are the analog of [19]'s customised
message-passing: they hand the network the quantity performance
actually depends on (how far apart connected — especially critically
connected — devices sit) instead of asking two GCN layers to
rediscover geometry from raw coordinates.  Both are differentiable, and
:meth:`FeatureEncoder.backward` backpropagates through them exactly, so
ePlace-AP's :math:`\\partial \\Phi / \\partial v` includes their pull.

One encode does each piece of work once: one pairwise smooth-distance
matrix feeds both interaction columns, and one WA pass over every net
and both axes feeds both span columns (the critical nets are a slice
of it).  :meth:`FeatureEncoder.forward` also keeps the smooth-abs
derivatives and WA pin gradients, so ``phi_and_grad``'s backward pass
recomputes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analytic.netarrays import NetArrays
from ..analytic.wa import _wa_axis, wa_span
from ..netlist import NUM_DEVICE_TYPES, Circuit
from ..placement import Placement

#: feature-vector width per node
NUM_FEATURES = NUM_DEVICE_TYPES + 12

#: column indices of the dynamic features
POS_X_COL = NUM_DEVICE_TYPES + 2
POS_Y_COL = NUM_DEVICE_TYPES + 3
NBR_DIST_COL = NUM_DEVICE_TYPES + 6
CRIT_DIST_COL = NUM_DEVICE_TYPES + 7
NET_SPAN_COL = NUM_DEVICE_TYPES + 8
CRIT_SPAN_COL = NUM_DEVICE_TYPES + 9
PAIR_SEP_COL = NUM_DEVICE_TYPES + 10
COUPLING_COL = NUM_DEVICE_TYPES + 11

#: smoothing of |d| ~ sqrt(d^2 + eps^2), in µm
_SMOOTH_EPS = 0.05

#: WA smoothing parameter for the net-span features, in µm
_SPAN_GAMMA = 0.4


def _clique_adjacency(circuit: Circuit, critical_only: bool) -> np.ndarray:
    """Net-weighted clique-model adjacency (optionally critical nets)."""
    n = circuit.num_devices
    index = circuit.device_index()
    adjacency = np.zeros((n, n))
    for net in circuit.nets:
        if critical_only and not net.critical:
            continue
        devs = [index[d] for d in net.devices]
        if len(devs) < 2:
            continue
        weight = net.weight * 2.0 / len(devs)
        for a_pos, a in enumerate(devs):
            for b in devs[a_pos + 1:]:
                adjacency[a, b] += weight
                adjacency[b, a] += weight
    return adjacency


@dataclass
class FeatureTape:
    """What the backward pass of one forward encode needs.

    ``sx``/``sy`` are the smooth-abs derivatives ``d/|d|_eps`` of the
    pairwise coordinate differences; ``pin_gx``/``pin_gy`` the WA span
    gradients of every pin of ``FeatureEncoder.nets_all``.  ``x`` and
    ``y`` are the caller's arrays, not copies: run the backward pass
    before changing them.
    """

    x: np.ndarray
    y: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    pin_gx: np.ndarray
    pin_gy: np.ndarray


class FeatureEncoder:
    """Precompiled static features + adjacency for one circuit.

    Position and interaction features change per placement; everything
    else is fixed.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        n = circuit.num_devices
        self.scale = float(np.sqrt(circuit.total_device_area()))

        adjacency = _clique_adjacency(circuit, critical_only=False)
        self.adj_all = adjacency
        self.adj_crit = _clique_adjacency(circuit, critical_only=True)

        static = np.zeros((n, NUM_FEATURES))
        for i, device in enumerate(circuit.devices.values()):
            static[i, device.dtype.index] = 1.0
            static[i, NUM_DEVICE_TYPES] = device.width / self.scale
            static[i, NUM_DEVICE_TYPES + 1] = device.height / self.scale
        degree = adjacency.sum(axis=1)
        static[:, NUM_DEVICE_TYPES + 4] = degree / max(degree.max(), 1e-9)
        static[:, NUM_DEVICE_TYPES + 5] = (
            self.adj_crit.sum(axis=1) > 0
        ).astype(float)
        self.static = static

        with_self = adjacency + np.eye(n)
        d_inv_sqrt = 1.0 / np.sqrt(with_self.sum(axis=1))
        self.a_hat = with_self * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]

        # symmetry partner per device (-1 when unpaired); matched-pair
        # distance drives offset/matching metrics in every family
        index = circuit.device_index()
        partner = np.full(n, -1, dtype=int)
        for group in circuit.constraints.symmetry_groups:
            for a, b in group.pairs:
                partner[index[a]] = index[b]
                partner[index[b]] = index[a]
        self.partner = partner
        self._paired = np.flatnonzero(partner >= 0)

        from ..simulate.helpers import coupling_pairs

        self.victims, self.aggressors = coupling_pairs(circuit)

        model = circuit.metadata.get("model", {})
        crit_names = set(model.get(
            "critical_nets",
            tuple(net.name for net in circuit.nets if net.critical),
        ))
        self.nets_all = NetArrays(circuit)
        self.nets_crit = NetArrays(
            circuit, include=lambda net: net.name in crit_names
        )
        # one WA pass over nets_all covers both axes (x pins, then y);
        # the critical nets are a subsequence of nets_all with the same
        # pin lists, so their spans and pin gradients are slices of it
        self._nets_xy = self.nets_all.tiled(2)
        self._crit_nets = np.array(
            [name in crit_names for name in self.nets_all.net_names],
            dtype=bool,
        )
        self._crit_pins = self._crit_nets[self.nets_all.pin_net]

    # ------------------------------------------------------------------
    def _signs(
        self, n: int, flip_x: np.ndarray | None, flip_y: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        sign_x = np.where(flip_x, -1.0, 1.0) if flip_x is not None \
            else np.ones(n)
        sign_y = np.where(flip_y, -1.0, 1.0) if flip_y is not None \
            else np.ones(n)
        return sign_x, sign_y

    def _span_feature(
        self, arrays: NetArrays, spans: np.ndarray, n: int
    ) -> np.ndarray:
        """Per-device sum of the spans of its incident nets.

        Net spans are what circuit performance physically tracks (a
        differentiable stand-in for routed net length); exposing them
        as a feature lets a small network calibrate *how much* each
        net matters instead of having to rediscover geometry.
        ``bincount`` adds each device's pins in pin order from zero,
        exactly as ``np.add.at`` into a zeroed vector would.
        """
        return np.bincount(
            arrays.pin_dev, weights=spans[arrays.pin_net], minlength=n
        ) / self.scale

    def _span_grad(
        self,
        arrays: NetArrays,
        g_col: np.ndarray,
        pin_gx: np.ndarray,
        pin_gy: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chain rule through one net-span feature column.

        The flip signs affect pin offsets (constants), so the gradient
        w.r.t. device centres is unchanged in form.
        """
        n = len(g_col)
        if arrays.num_nets == 0:
            return np.zeros(n), np.zeros(n)
        # cotangent of net e's span: sum of g over devices of its pins
        m_net = arrays.segment_sum(g_col[arrays.pin_dev])
        gx = arrays.scatter_to_devices(
            pin_gx * m_net[arrays.pin_net], n) / self.scale
        gy = arrays.scatter_to_devices(
            pin_gy * m_net[arrays.pin_net], n) / self.scale
        return gx, gy

    def _encode(
        self, x: np.ndarray, y: np.ndarray,
        flip_x: np.ndarray | None, flip_y: np.ndarray | None,
        keep_tape: bool,
    ) -> tuple[np.ndarray, FeatureTape | None]:
        """One forward pass; the tape only when ``keep_tape`` is set."""
        n = len(x)
        sign_x, sign_y = self._signs(n, flip_x, flip_y)
        feats = self.static.copy()
        feats[:, POS_X_COL] = x / self.scale
        feats[:, POS_Y_COL] = y / self.scale

        # adjacency-weighted smooth-Manhattan distance per node, over
        # one pairwise matrix |dx|_eps + |dy|_eps shared by both columns
        dx = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        ax = np.sqrt(dx * dx + _SMOOTH_EPS * _SMOOTH_EPS)
        ay = np.sqrt(dy * dy + _SMOOTH_EPS * _SMOOTH_EPS)
        dist = ax + ay
        feats[:, NBR_DIST_COL] = (
            self.adj_all * dist).sum(axis=1) / self.scale
        feats[:, CRIT_DIST_COL] = (
            self.adj_crit * dist).sum(axis=1) / self.scale

        arrays = self.nets_all
        pin_g = np.zeros(0)
        if arrays.num_nets == 0:
            spans = np.zeros(0)
        else:
            dev = arrays.pin_dev
            pins = np.concatenate((
                x[dev] + arrays.pin_offx * sign_x[dev],
                y[dev] + arrays.pin_offy * sign_y[dev],
            ))
            if keep_tape:
                spans_xy, pin_g = _wa_axis(
                    self._nets_xy, pins, _SPAN_GAMMA)
            else:
                spans_xy = wa_span(self._nets_xy, pins, _SPAN_GAMMA)
            e = arrays.num_nets
            spans = spans_xy[:e] + spans_xy[e:]
        feats[:, NET_SPAN_COL] = self._span_feature(arrays, spans, n)
        feats[:, CRIT_SPAN_COL] = self._span_feature(
            self.nets_crit, spans[self._crit_nets], n)
        feats[:, PAIR_SEP_COL] = self._pair_separation(x, y)
        feats[:, COUPLING_COL] = self._coupling_feature(x, y)
        if not keep_tape:
            return feats, None
        p = arrays.num_pins
        return feats, FeatureTape(
            x, y, dx / ax, dy / ay, pin_g[:p], pin_g[p:])

    def encode_xy(
        self, x: np.ndarray, y: np.ndarray,
        flip_x: np.ndarray | None = None,
        flip_y: np.ndarray | None = None,
    ) -> np.ndarray:
        """Node-feature matrix for centre coordinates (+optional flips).

        Flips mirror pin offsets, which changes net spans — the FOM is
        flip-sensitive, so the features must be too, or flip-heavy
        layouts carry irreducible label noise.
        """
        return self._encode(x, y, flip_x, flip_y, keep_tape=False)[0]

    def forward(
        self, x: np.ndarray, y: np.ndarray,
        flip_x: np.ndarray | None = None,
        flip_y: np.ndarray | None = None,
    ) -> tuple[np.ndarray, FeatureTape]:
        """:meth:`encode_xy` plus the tape :meth:`backward` consumes."""
        feats, tape = self._encode(x, y, flip_x, flip_y, keep_tape=True)
        assert tape is not None
        return feats, tape

    def _coupling_feature(
        self, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Per-device victim-aggressor proximity, 1/(1 + d^2) summed.

        Victims see their total exposure to aggressors and vice versa,
        matching the coupling term in the performance models; devices
        in neither group read 0.
        """
        v, a = self.victims, self.aggressors
        if len(v) == 0 or len(a) == 0:
            return np.zeros(len(x))
        dx = x[v][:, None] - x[a][None, :]
        dy = y[v][:, None] - y[a][None, :]
        prox = 1.0 / (1.0 + dx * dx + dy * dy)
        out = np.bincount(v, weights=prox.sum(axis=1), minlength=len(x))
        np.add.at(out, a, prox.sum(axis=0))
        return out

    def _pair_separation(
        self, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Smooth distance to each device's symmetry partner (0 if none)."""
        paired = self._paired
        out = np.zeros(len(x))
        if len(paired) == 0:
            return out
        p = self.partner[paired]
        dx = x[paired] - x[p]
        dy = y[paired] - y[p]
        out[paired] = np.sqrt(
            dx * dx + dy * dy + _SMOOTH_EPS ** 2) / self.scale
        return out

    def encode(self, placement: Placement) -> np.ndarray:
        """Node-feature matrix for a placement (flip-aware)."""
        return self.encode_xy(placement.x, placement.y,
                              placement.flip_x, placement.flip_y)

    # ------------------------------------------------------------------
    def backward(
        self, grad_features: np.ndarray, tape: FeatureTape
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chain-rule a feature-space gradient back to (x, y) in µm.

        Includes the direct position columns and the interaction
        columns' dependence on every coordinate, at the point the tape
        was recorded.
        """
        x, y = tape.x, tape.y
        gx = grad_features[:, POS_X_COL] / self.scale
        gy = grad_features[:, POS_Y_COL] / self.scale
        for col, adjacency in (
            (NBR_DIST_COL, self.adj_all),
            (CRIT_DIST_COL, self.adj_crit),
        ):
            g_col = grad_features[:, col]  # dPhi/d feat_k
            # feat_k = sum_j adjacency[k, j] (|dx_kj| + |dy_kj|) / scale
            # d feat_k / d x_k = sum_j a_kj sx_kj / scale
            # d feat_k / d x_j = -a_kj sx_kj / scale
            w = adjacency * tape.sx
            gx += (g_col * w.sum(axis=1)
                   - w.T @ g_col) / self.scale
            w = adjacency * tape.sy
            gy += (g_col * w.sum(axis=1)
                   - w.T @ g_col) / self.scale
        crit = self._crit_pins
        for col, arrays, pin_gx, pin_gy in (
            (NET_SPAN_COL, self.nets_all, tape.pin_gx, tape.pin_gy),
            (CRIT_SPAN_COL, self.nets_crit,
             tape.pin_gx[crit], tape.pin_gy[crit]),
        ):
            dgx, dgy = self._span_grad(
                arrays, grad_features[:, col], pin_gx, pin_gy)
            gx += dgx
            gy += dgy
        v, a = self.victims, self.aggressors
        if len(v) and len(a):
            g_col = grad_features[:, COUPLING_COL]
            dx = x[v][:, None] - x[a][None, :]
            dy = y[v][:, None] - y[a][None, :]
            denom = (1.0 + dx * dx + dy * dy) ** 2
            # d prox / d x_v = -2 dx / denom ; feature appears on both
            # the victim's and the aggressor's row
            weight = (g_col[v][:, None] + g_col[a][None, :])
            wx = -2.0 * dx / denom * weight
            wy = -2.0 * dy / denom * weight
            np.add.at(gx, v, wx.sum(axis=1))
            np.add.at(gx, a, -wx.sum(axis=0))
            np.add.at(gy, v, wy.sum(axis=1))
            np.add.at(gy, a, -wy.sum(axis=0))

        paired = self._paired
        if len(paired):
            g_col = grad_features[:, PAIR_SEP_COL]
            p = self.partner[paired]
            dx = x[paired] - x[p]
            dy = y[paired] - y[p]
            dist = np.sqrt(dx * dx + dy * dy + _SMOOTH_EPS ** 2)
            coeff = g_col[paired] / (dist * self.scale)
            np.add.at(gx, paired, coeff * dx)
            np.add.at(gx, p, -coeff * dx)
            np.add.at(gy, paired, coeff * dy)
            np.add.at(gy, p, -coeff * dy)
        return gx, gy

    def position_grad(
        self,
        grad_features: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        flip_x: np.ndarray | None = None,
        flip_y: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`backward` through a fresh forward pass at (x, y)."""
        _, tape = self.forward(x, y, flip_x, flip_y)
        return self.backward(grad_features, tape)
