"""Per-feature reference for :class:`repro.gnn.FeatureEncoder`.

``FeatureEncoder`` runs one forward pass per placement: one
smooth-distance matrix shared by both interaction columns, one
value-only WA pass over every net and both axes (the critical-net
spans are a slice of it), ``bincount`` scatters, and a tape of the
smooth-abs derivatives and WA pin gradients for the backward pass.
These functions keep the readable form in which every feature column,
and every column's chain rule, recomputes what it needs on its own,
with its own WA kernel and ``np.add.at`` scatters.
"""

from __future__ import annotations

import numpy as np

from repro.analytic import NetArrays
from repro.gnn import FeatureEncoder
from repro.gnn.features import (
    COUPLING_COL,
    CRIT_DIST_COL,
    CRIT_SPAN_COL,
    NBR_DIST_COL,
    NET_SPAN_COL,
    PAIR_SEP_COL,
    POS_X_COL,
    POS_Y_COL,
    _SMOOTH_EPS,
    _SPAN_GAMMA,
)


def wa_axis(
    arrays: NetArrays, coords: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-net WA span and per-pin gradient along one axis."""
    seg = arrays.pin_net
    seg_max = np.maximum.reduceat(coords, arrays.starts)
    a = np.exp(np.clip((coords - seg_max[seg]) / gamma, -60.0, 60.0))
    denom_max = np.add.reduceat(a, arrays.starts)
    numer_max = np.add.reduceat(coords * a, arrays.starts)
    f_max = numer_max / np.maximum(denom_max, 1e-30)
    grad_max = a / np.maximum(denom_max[seg], 1e-30) * (
        1.0 + (coords - f_max[seg]) / gamma
    )
    seg_min = np.minimum.reduceat(coords, arrays.starts)
    b = np.exp(np.clip(-(coords - seg_min[seg]) / gamma, -60.0, 60.0))
    denom_min = np.add.reduceat(b, arrays.starts)
    numer_min = np.add.reduceat(coords * b, arrays.starts)
    f_min = numer_min / np.maximum(denom_min, 1e-30)
    grad_min = b / np.maximum(denom_min[seg], 1e-30) * (
        1.0 - (coords - f_min[seg]) / gamma
    )
    return f_max - f_min, grad_max - grad_min


def scatter_to_devices(arrays: NetArrays, pin_values, n: int):
    """Accumulate per-pin values onto their owning devices."""
    out = np.zeros(n)
    np.add.at(out, arrays.pin_dev, pin_values)
    return out


def smooth_abs(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smooth |d| and its derivative."""
    value = np.sqrt(d * d + _SMOOTH_EPS * _SMOOTH_EPS)
    return value, d / value


def signs(n, flip_x, flip_y) -> tuple[np.ndarray, np.ndarray]:
    """Per-device pin-mirroring signs for optional flip vectors."""
    sign_x = np.where(flip_x, -1.0, 1.0) if flip_x is not None \
        else np.ones(n)
    sign_y = np.where(flip_y, -1.0, 1.0) if flip_y is not None \
        else np.ones(n)
    return sign_x, sign_y


def pin_coords(arrays: NetArrays, x, y, sign_x, sign_y):
    """Pin coordinates honouring per-device flip signs."""
    dev = arrays.pin_dev
    return (
        x[dev] + arrays.pin_offx * sign_x[dev],
        y[dev] + arrays.pin_offy * sign_y[dev],
    )


def interaction(
    enc: FeatureEncoder, adjacency: np.ndarray, x: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Adjacency-weighted smooth-Manhattan distance per node."""
    ax, _ = smooth_abs(x[:, None] - x[None, :])
    ay, _ = smooth_abs(y[:, None] - y[None, :])
    return (adjacency * (ax + ay)).sum(axis=1) / enc.scale


def net_span_feature(
    enc: FeatureEncoder, arrays: NetArrays, x, y, sign_x, sign_y,
) -> np.ndarray:
    """Per-device sum of WA-smoothed spans of its incident nets."""
    n = len(x)
    feat = np.zeros(n)
    if arrays.num_nets == 0:
        return feat
    px, py = pin_coords(arrays, x, y, sign_x, sign_y)
    span_x, _ = wa_axis(arrays, px, _SPAN_GAMMA)
    span_y, _ = wa_axis(arrays, py, _SPAN_GAMMA)
    spans = span_x + span_y
    np.add.at(feat, arrays.pin_dev, spans[arrays.pin_net])
    return feat / enc.scale


def net_span_grad(
    enc: FeatureEncoder, arrays: NetArrays, g_col, x, y, sign_x, sign_y,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain rule through one net-span feature column."""
    n = len(x)
    if arrays.num_nets == 0:
        return np.zeros(n), np.zeros(n)
    px, py = pin_coords(arrays, x, y, sign_x, sign_y)
    _, pin_gx = wa_axis(arrays, px, _SPAN_GAMMA)
    _, pin_gy = wa_axis(arrays, py, _SPAN_GAMMA)
    # cotangent of net e's span: sum of g over devices of its pins
    m_net = arrays.segment_sum(g_col[arrays.pin_dev])
    gx = scatter_to_devices(
        arrays, pin_gx * m_net[arrays.pin_net], n) / enc.scale
    gy = scatter_to_devices(
        arrays, pin_gy * m_net[arrays.pin_net], n) / enc.scale
    return gx, gy


def coupling_feature(
    enc: FeatureEncoder, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Per-device victim-aggressor proximity, 1/(1 + d^2) summed."""
    out = np.zeros(len(x))
    v, a = enc.victims, enc.aggressors
    if len(v) == 0 or len(a) == 0:
        return out
    dx = x[v][:, None] - x[a][None, :]
    dy = y[v][:, None] - y[a][None, :]
    prox = 1.0 / (1.0 + dx * dx + dy * dy)
    np.add.at(out, v, prox.sum(axis=1))
    np.add.at(out, a, prox.sum(axis=0))
    return out


def pair_separation(
    enc: FeatureEncoder, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Smooth distance to each device's symmetry partner (0 if none)."""
    paired = enc.partner >= 0
    out = np.zeros(len(x))
    if not paired.any():
        return out
    p = enc.partner[paired]
    dx = x[paired] - x[p]
    dy = y[paired] - y[p]
    out[paired] = np.sqrt(dx * dx + dy * dy + _SMOOTH_EPS ** 2) / enc.scale
    return out


def encode_xy(
    enc: FeatureEncoder, x: np.ndarray, y: np.ndarray,
    flip_x: np.ndarray | None = None, flip_y: np.ndarray | None = None,
) -> np.ndarray:
    """Node-feature matrix, one column at a time."""
    sign_x, sign_y = signs(len(x), flip_x, flip_y)
    feats = enc.static.copy()
    feats[:, POS_X_COL] = x / enc.scale
    feats[:, POS_Y_COL] = y / enc.scale
    feats[:, NBR_DIST_COL] = interaction(enc, enc.adj_all, x, y)
    feats[:, CRIT_DIST_COL] = interaction(enc, enc.adj_crit, x, y)
    feats[:, NET_SPAN_COL] = net_span_feature(
        enc, enc.nets_all, x, y, sign_x, sign_y)
    feats[:, CRIT_SPAN_COL] = net_span_feature(
        enc, enc.nets_crit, x, y, sign_x, sign_y)
    feats[:, PAIR_SEP_COL] = pair_separation(enc, x, y)
    feats[:, COUPLING_COL] = coupling_feature(enc, x, y)
    return feats


def position_grad(
    enc: FeatureEncoder, grad_features: np.ndarray, x: np.ndarray,
    y: np.ndarray, flip_x: np.ndarray | None = None,
    flip_y: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain-rule a feature-space gradient back to (x, y), per column."""
    gx = grad_features[:, POS_X_COL] / enc.scale
    gy = grad_features[:, POS_Y_COL] / enc.scale
    for col, adjacency in (
        (NBR_DIST_COL, enc.adj_all),
        (CRIT_DIST_COL, enc.adj_crit),
    ):
        g_col = grad_features[:, col]  # dPhi/d feat_k
        _, sx = smooth_abs(x[:, None] - x[None, :])
        _, sy = smooth_abs(y[:, None] - y[None, :])
        # feat_k = sum_j adjacency[k, j] (|dx_kj| + |dy_kj|) / scale
        # d feat_k / d x_k = sum_j a_kj sx_kj / scale
        # d feat_k / d x_j = -a_kj sx_kj / scale
        w = adjacency * sx
        gx += (g_col * w.sum(axis=1) - w.T @ g_col) / enc.scale
        w = adjacency * sy
        gy += (g_col * w.sum(axis=1) - w.T @ g_col) / enc.scale
    sign_x, sign_y = signs(len(x), flip_x, flip_y)
    for col, arrays in (
        (NET_SPAN_COL, enc.nets_all),
        (CRIT_SPAN_COL, enc.nets_crit),
    ):
        dgx, dgy = net_span_grad(
            enc, arrays, grad_features[:, col], x, y, sign_x, sign_y)
        gx += dgx
        gy += dgy
    v, a = enc.victims, enc.aggressors
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

    paired = enc.partner >= 0
    if paired.any():
        g_col = grad_features[:, PAIR_SEP_COL]
        p = enc.partner[paired]
        dx = x[paired] - x[p]
        dy = y[paired] - y[p]
        dist = np.sqrt(dx * dx + dy * dy + _SMOOTH_EPS ** 2)
        coeff = g_col[paired] / (dist * enc.scale)
        np.add.at(gx, np.where(paired)[0], coeff * dx)
        np.add.at(gx, p, -coeff * dx)
        np.add.at(gy, np.where(paired)[0], coeff * dy)
        np.add.at(gy, p, -coeff * dy)
    return gx, gy


def phi_and_grad(model, x: np.ndarray, y: np.ndarray):
    """``PerformanceModel.phi_and_grad`` on the per-column reference."""
    enc = model.encoder
    feats = encode_xy(enc, x, y)
    phis, d_feats = model._ensemble_kernels().phi_and_input_grad(
        enc.a_hat, feats)
    gx, gy = position_grad(enc, d_feats / len(model.members), x, y)
    return float(phis.mean()), gx, gy
