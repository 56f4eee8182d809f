"""Numpy reference for :class:`repro.annealing.IncrementalCostEvaluator`.

This is the array form of the SA move cost: per-pin offsets live in
numpy arrays, and a move re-spans its dirty nets with a gather plus
``np.maximum.reduceat``/``np.minimum.reduceat`` over the dirty pins
(static gather indices per block for flip and reorder moves; all nets
at once when at least half of them are dirty).  Production re-spans the
same dirty nets in one scalar loop over plain lists.  Both compute each
span as ``max − min + max − min`` over the same pins and sum HPWL with
``np.dot``, so every candidate's cost and spans must be bitwise equal
to this one, and so must the ``dirty_nets`` count.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.analytic import NetArrays
from repro.annealing.incremental import CostDriftError, block_geometry
from repro.annealing.islands import Block
from repro.annealing.seqpair import SequencePair, pack_lists
from repro.netlist import Circuit
from repro.placement import Placement

#: above this fraction of dirty nets the evaluator recomputes all spans
#: in one vectorised pass instead of gathering per-net subsets
FULL_RECOMPUTE_FRACTION = 0.5


class _BlockGeom(NamedTuple):
    """One block's geometry under a row order and extra flips.

    Pin offsets (over the block's pins) and packed extents feed the
    span and area kernels; member device offsets and flips (over
    ``idx``) feed realized placements.
    """

    pin_rel_x: np.ndarray
    pin_rel_y: np.ndarray
    lo_x: float
    hi_x: float
    lo_y: float
    hi_y: float
    idx: np.ndarray
    rel_x: np.ndarray
    rel_y: np.ndarray
    fx: np.ndarray
    fy: np.ndarray


class _Cache:
    """One fully evaluated SA state (committed or pending).

    Device/pin fields are numpy (fancy-indexed by the span kernels);
    per-block fields are plain lists (only ever indexed one element at
    a time, where list access beats numpy scalar access severalfold).
    """

    __slots__ = (
        "rel_x", "rel_y", "sign_x", "sign_y", "fx", "fy",
        "pin_rel_x", "pin_rel_y",
        "block_w", "block_h",
        "ext_lo_x", "ext_hi_x", "ext_lo_y", "ext_hi_y",
        "bx_l", "by_l", "bx", "by", "spans", "hpwl", "cost",
    )

    def shallow(self) -> "_Cache":
        out = _Cache()
        out.rel_x = self.rel_x
        out.rel_y = self.rel_y
        out.sign_x = self.sign_x
        out.sign_y = self.sign_y
        out.fx = self.fx
        out.fy = self.fy
        out.pin_rel_x = self.pin_rel_x
        out.pin_rel_y = self.pin_rel_y
        out.block_w = self.block_w
        out.block_h = self.block_h
        out.ext_lo_x = self.ext_lo_x
        out.ext_hi_x = self.ext_hi_x
        out.ext_lo_y = self.ext_lo_y
        out.ext_hi_y = self.ext_hi_y
        out.bx_l = self.bx_l
        out.by_l = self.by_l
        out.bx = self.bx
        out.by = self.by
        out.spans = self.spans
        return out


class ReferenceCostEvaluator:
    """Maintains the SA cost of a block configuration across moves.

    Usage protocol (one instance per annealer)::

        cost = ev.reset(blocks, pair, free_flips)             # full eval
        cand_cost = ev.propose(blocks, pair, flips, touched)  # one move
        ev.commit()     # accept: the candidate becomes current
        # (not committing rejects the candidate)
        ev.audit(blocks, pair, free_flips)  # full recompute, drift check

    ``touched`` names the single block whose *internal* geometry changed
    (flip or island-reorder move) and asserts that the sequence pair is
    unchanged from the current state; pass ``None`` for sequence moves.
    """

    def __init__(
        self,
        circuit: Circuit,
        arrays: NetArrays,
        widths: np.ndarray,
        heights: np.ndarray,
        area_weight: float,
        hpwl_norm: float,
        area_norm: float,
        perf_weight: float = 0.0,
        cost_hook: "Callable[[Placement], float] | None" = None,
        audit_tol: float = 1e-9,
    ) -> None:
        self.circuit = circuit
        self.arrays = arrays
        self.widths = widths
        self.heights = heights
        self.half_w = widths / 2.0
        self.half_h = heights / 2.0
        self.area_weight = float(area_weight)
        self.hpwl_norm = float(hpwl_norm)
        self.area_norm = float(area_norm)
        self.perf_weight = float(perf_weight)
        self.cost_hook = cost_hook
        # with an active hook every candidate is realized as a
        # Placement, so the device-level caches are kept current too
        self._hooked = cost_hook is not None and self.perf_weight > 0
        self.audit_tol = float(audit_tol)
        self.audits = 0
        self.incremental_evals = 0
        self.full_evals = 0
        self.dirty_nets = 0  # cumulative nets re-spanned incrementally

        n = circuit.num_devices
        self._dev_block = np.zeros(n, dtype=int)
        self._pin_block: "np.ndarray | None" = None  # set on first reset
        # static per-block structures, built on first reset (device →
        # block membership is invariant: reorder moves permute devices
        # *inside* a block, never across blocks)
        self._block_pins: list[np.ndarray] = []
        self._block_net_mask: list[np.ndarray] = []
        self._block_net_count: list[int] = []
        self._block_dirty_pins: list[np.ndarray] = []
        self._block_dirty_pb: list[np.ndarray] = []
        self._block_sub_starts: list[np.ndarray] = []
        # per-net pin counts, for carving dirty-net segment boundaries
        self._pin_counts = np.diff(
            np.append(arrays.starts, arrays.num_pins)
        )
        # block geometry is a pure function of (block index, row order,
        # extra flips); SA revisits the same handful of geometries per
        # block thousands of times, so pin offsets, extents and member
        # device geometry memoize
        self._geom_cache: dict[
            tuple[int, tuple[int, ...], bool, bool], _BlockGeom,
        ] = {}
        self._cur: "_Cache | None" = None
        self._pending: "_Cache | None" = None

    # -- full evaluation ----------------------------------------------
    def reset(
        self,
        blocks: list[Block],
        pair: SequencePair,
        free_flips: dict[int, tuple[bool, bool]],
    ) -> float:
        """Evaluate a state from scratch and make it current."""
        self._cur = self._full(blocks, pair, free_flips)
        self._pending = None
        return self._cur.cost

    def _full(
        self,
        blocks: list[Block],
        pair: SequencePair,
        free_flips: dict[int, tuple[bool, bool]],
    ) -> _Cache:
        self.full_evals += 1
        n = self.circuit.num_devices
        nb = len(blocks)
        cache = _Cache()
        cache.rel_x = np.zeros(n)
        cache.rel_y = np.zeros(n)
        cache.fx = np.zeros(n, dtype=bool)
        cache.fy = np.zeros(n, dtype=bool)
        cache.block_w = [0.0] * nb
        cache.block_h = [0.0] * nb
        cache.ext_lo_x = [0.0] * nb
        cache.ext_hi_x = [0.0] * nb
        cache.ext_lo_y = [0.0] * nb
        cache.ext_hi_y = [0.0] * nb
        for k, block in enumerate(blocks):
            efx, efy = free_flips.get(k, (False, False))
            idx = np.asarray(block.device_indices, dtype=int)
            rel_x, rel_y, bfx, bfy = block_geometry(block, efx, efy)
            cache.rel_x[idx] = rel_x
            cache.rel_y[idx] = rel_y
            cache.fx[idx] = bfx
            cache.fy[idx] = bfy
            self._dev_block[idx] = k
            cache.block_w[k] = block.width
            cache.block_h[k] = block.height
            cache.ext_lo_x[k] = float((rel_x - self.half_w[idx]).min())
            cache.ext_hi_x[k] = float((rel_x + self.half_w[idx]).max())
            cache.ext_lo_y[k] = float((rel_y - self.half_h[idx]).min())
            cache.ext_hi_y[k] = float((rel_y + self.half_h[idx]).max())
        cache.sign_x = np.where(cache.fx, -1.0, 1.0)
        cache.sign_y = np.where(cache.fy, -1.0, 1.0)

        a = self.arrays
        if self._pin_block is None:
            self._pin_block = self._dev_block[a.pin_dev]
            self._build_static(nb)
        cache.pin_rel_x = (
            cache.rel_x[a.pin_dev]
            + a.pin_offx * cache.sign_x[a.pin_dev]
        )
        cache.pin_rel_y = (
            cache.rel_y[a.pin_dev]
            + a.pin_offy * cache.sign_y[a.pin_dev]
        )
        cache.bx_l, cache.by_l = pack_lists(
            pair.plus, pair.minus, cache.block_w, cache.block_h
        )
        cache.bx = np.asarray(cache.bx_l)
        cache.by = np.asarray(cache.by_l)
        cache.spans = self._spans_all(cache)
        self._finish(cache)
        return cache

    def _build_static(self, nb: int) -> None:
        """Precompute per-block dirty-net structures.

        For a geometry-only move of block ``k`` the dirty nets are
        exactly the nets with a pin on ``k`` — a static set, so the
        net mask, the gather indices of *all* pins on those nets and
        the ``reduceat`` segment boundaries are computed once.
        """
        a = self.arrays
        pin_block = self._pin_block
        assert pin_block is not None
        for k in range(nb):
            pins_k = np.flatnonzero(pin_block == k)
            self._block_pins.append(pins_k)
            if a.num_nets:
                on_block = np.zeros(a.num_nets, dtype=bool)
                on_block[np.unique(a.pin_net[pins_k])] = True
            else:
                on_block = np.zeros(0, dtype=bool)
            self._block_net_mask.append(on_block)
            self._block_net_count.append(int(np.count_nonzero(on_block)))
            # all pins of those nets; pin order is net-major, so
            # flatnonzero keeps reduceat segments contiguous
            dirty_pins = np.flatnonzero(on_block[a.pin_net])
            self._block_dirty_pins.append(dirty_pins)
            self._block_dirty_pb.append(pin_block[dirty_pins])
            counts = self._pin_counts[on_block]
            self._block_sub_starts.append(
                np.concatenate(([0], np.cumsum(counts)[:-1])).astype(int)
            )

    # -- incremental evaluation ---------------------------------------
    def propose(
        self,
        blocks: list[Block],
        pair: SequencePair,
        free_flips: dict[int, tuple[bool, bool]],
        touched_block: "int | None",
    ) -> float:
        """Cost of a candidate differing from the current state by one
        move; cached as *pending* until :meth:`commit`."""
        cur = self._cur
        if cur is None:
            raise RuntimeError("evaluator has no current state; call reset")
        cand = cur.shallow()
        k = touched_block
        if k is not None:
            self._update_geometry(cand, blocks, free_flips, k)
        if (
            k is not None
            and cand.block_w[k] == cur.block_w[k]
            and cand.block_h[k] == cur.block_h[k]
        ):
            # geometry-only move: dims and pair unchanged, so the
            # packing (bx/by, shared via the shallow copy) is still
            # valid and the dirty-net set is the precomputed one
            n_dirty = self._block_net_count[k]
            self.dirty_nets += int(n_dirty)
            if n_dirty == 0:
                pass  # spans shared via the shallow copy
            elif n_dirty >= self.arrays.num_nets * \
                    FULL_RECOMPUTE_FRACTION:
                cand.spans = self._spans_all(cand)
            else:
                cand.spans = self._spans_subset(cand, cur, k)
        else:
            cand.bx_l, cand.by_l = pack_lists(
                pair.plus, pair.minus, cand.block_w, cand.block_h
            )
            if k is None and cand.bx_l == cur.bx_l \
                    and cand.by_l == cur.by_l:
                pass  # no block moved: bx/by/spans shared as-is
            else:
                cand.bx = np.asarray(cand.bx_l)
                cand.by = np.asarray(cand.by_l)
                moved = (cand.bx != cur.bx) | (cand.by != cur.by)
                if k is not None:
                    moved[k] = True
                cand.spans = self._spans_update(cand, cur, moved)
        self._finish(cand)
        self._pending = cand
        self.incremental_evals += 1
        return cand.cost

    def _block_geom(
        self, blocks: list[Block], k: int, efx: bool, efy: bool
    ) -> _BlockGeom:
        """Memoized per-block pin offsets, extents and member geometry.

        Keyed by row order (not object identity) so memoized reorder
        blocks share entries.
        """
        block = blocks[k]
        key = (k, tuple(block.row_order), efx, efy)
        geom = self._geom_cache.get(key)
        if geom is None:
            a = self.arrays
            rel_x, rel_y, bfx, bfy = block_geometry(block, efx, efy)
            idx = np.asarray(block.device_indices, dtype=int)
            psel = self._block_pins[k]
            # pin → member-position map under this row order
            pos = {d: i for i, d in enumerate(block.device_indices)}
            mem = np.array(
                [pos[d] for d in a.pin_dev[psel]], dtype=int
            )
            bfx = np.atleast_1d(bfx)
            bfy = np.atleast_1d(bfy)
            sign_x = np.where(bfx, -1.0, 1.0)
            sign_y = np.where(bfy, -1.0, 1.0)
            rel_x = np.atleast_1d(rel_x)
            rel_y = np.atleast_1d(rel_y)
            geom = _BlockGeom(
                pin_rel_x=rel_x[mem] + a.pin_offx[psel] * sign_x[mem],
                pin_rel_y=rel_y[mem] + a.pin_offy[psel] * sign_y[mem],
                lo_x=float((rel_x - self.half_w[idx]).min()),
                hi_x=float((rel_x + self.half_w[idx]).max()),
                lo_y=float((rel_y - self.half_h[idx]).min()),
                hi_y=float((rel_y + self.half_h[idx]).max()),
                idx=idx, rel_x=rel_x, rel_y=rel_y, fx=bfx, fy=bfy,
            )
            self._geom_cache[key] = geom
        return geom

    def _update_geometry(
        self,
        cand: _Cache,
        blocks: list[Block],
        free_flips: dict[int, tuple[bool, bool]],
        k: int,
    ) -> None:
        """Refresh pin/extent caches for one re-shaped block.

        The candidate's *device*-level arrays (``rel_x`` … ``fy``) are
        refreshed only when a cost hook realizes candidates; the span
        and area kernels read just the pin offsets and extents.
        ``sign_x``/``sign_y`` stay full-evaluation artifacts.
        """
        block = blocks[k]
        efx, efy = free_flips.get(k, (False, False))
        geom = self._block_geom(blocks, k, efx, efy)
        if block.width != cand.block_w[k] or \
                block.height != cand.block_h[k]:
            cand.block_w = list(cand.block_w)
            cand.block_h = list(cand.block_h)
            cand.block_w[k] = block.width
            cand.block_h[k] = block.height
        cand.ext_lo_x = list(cand.ext_lo_x)
        cand.ext_hi_x = list(cand.ext_hi_x)
        cand.ext_lo_y = list(cand.ext_lo_y)
        cand.ext_hi_y = list(cand.ext_hi_y)
        cand.ext_lo_x[k] = geom.lo_x
        cand.ext_hi_x[k] = geom.hi_x
        cand.ext_lo_y[k] = geom.lo_y
        cand.ext_hi_y[k] = geom.hi_y
        psel = self._block_pins[k]
        if len(psel):
            cand.pin_rel_x = cand.pin_rel_x.copy()
            cand.pin_rel_y = cand.pin_rel_y.copy()
            cand.pin_rel_x[psel] = geom.pin_rel_x
            cand.pin_rel_y[psel] = geom.pin_rel_y
        if self._hooked:
            cand.rel_x = cand.rel_x.copy()
            cand.rel_y = cand.rel_y.copy()
            cand.fx = cand.fx.copy()
            cand.fy = cand.fy.copy()
            cand.rel_x[geom.idx] = geom.rel_x
            cand.rel_y[geom.idx] = geom.rel_y
            cand.fx[geom.idx] = geom.fx
            cand.fy[geom.idx] = geom.fy

    def commit(self) -> None:
        """Promote the last :meth:`propose` result to current state."""
        if self._pending is None:
            raise RuntimeError("no pending candidate to commit")
        self._cur = self._pending
        self._pending = None

    @property
    def cost(self) -> float:
        """Cost of the current (committed) state."""
        if self._cur is None:
            raise RuntimeError("evaluator has no current state")
        return self._cur.cost

    # -- span computation ---------------------------------------------
    def _spans_all(self, cache: _Cache) -> np.ndarray:
        a = self.arrays
        px = cache.bx[self._pin_block] + cache.pin_rel_x
        py = cache.by[self._pin_block] + cache.pin_rel_y
        return (
            np.maximum.reduceat(px, a.starts)
            - np.minimum.reduceat(px, a.starts)
            + np.maximum.reduceat(py, a.starts)
            - np.minimum.reduceat(py, a.starts)
        )

    def _spans_subset(
        self, cand: _Cache, cur: _Cache, k: int
    ) -> np.ndarray:
        """Candidate spans after a geometry-only move of block ``k``,
        recomputing exactly the nets with a pin on that block."""
        pins = self._block_dirty_pins[k]
        px = cand.bx[self._block_dirty_pb[k]] + cand.pin_rel_x[pins]
        py = cand.by[self._block_dirty_pb[k]] + cand.pin_rel_y[pins]
        ss = self._block_sub_starts[k]
        sub = (
            np.maximum.reduceat(px, ss)
            - np.minimum.reduceat(px, ss)
            + np.maximum.reduceat(py, ss)
            - np.minimum.reduceat(py, ss)
        )
        spans = cur.spans.copy()
        spans[self._block_net_mask[k]] = sub
        return spans

    def _spans_update(
        self, cand: _Cache, cur: _Cache, moved: np.ndarray
    ) -> np.ndarray:
        """Candidate span vector, recomputing only dirty nets.

        A net is dirty when any of its pins sits on a block that moved
        or changed geometry.  Clean nets keep their cached span — valid
        because per-net max/min reductions are order-insensitive, so a
        cached span is bitwise what a full recompute would produce.
        """
        a = self.arrays
        if a.num_nets == 0:
            return cur.spans
        net_dirty = np.logical_or.reduceat(
            moved[self._pin_block], a.starts
        )
        n_dirty = int(np.count_nonzero(net_dirty))
        self.dirty_nets += n_dirty
        if n_dirty == 0:
            return cur.spans
        if n_dirty >= a.num_nets * FULL_RECOMPUTE_FRACTION:
            return self._spans_all(cand)
        pins = net_dirty[a.pin_net]
        pb = self._pin_block[pins]
        px = cand.bx[pb] + cand.pin_rel_x[pins]
        py = cand.by[pb] + cand.pin_rel_y[pins]
        counts = self._pin_counts[net_dirty]
        sub_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        sub = (
            np.maximum.reduceat(px, sub_starts)
            - np.minimum.reduceat(px, sub_starts)
            + np.maximum.reduceat(py, sub_starts)
            - np.minimum.reduceat(py, sub_starts)
        )
        spans = cur.spans.copy()
        spans[net_dirty] = sub
        return spans

    # -- cost assembly -------------------------------------------------
    def _finish(self, cache: _Cache) -> None:
        """HPWL + area (+ optional performance hook) from the caches."""
        cache.hpwl = float(np.dot(self.arrays.weights, cache.spans))
        bx_l, by_l = cache.bx_l, cache.by_l
        w = max(b + e for b, e in zip(bx_l, cache.ext_hi_x)) \
            - min(b + e for b, e in zip(bx_l, cache.ext_lo_x))
        h = max(b + e for b, e in zip(by_l, cache.ext_hi_y)) \
            - min(b + e for b, e in zip(by_l, cache.ext_lo_y))
        cost = (
            cache.hpwl / self.hpwl_norm
            + self.area_weight * (w * h) / self.area_norm
        )
        if self._hooked:
            # realize_placement's coordinates, from this state's packing
            # and device geometry instead of a re-pack
            dev_block = self._dev_block
            placement = Placement(
                self.circuit,
                cache.bx[dev_block] + cache.rel_x,
                cache.by[dev_block] + cache.rel_y,
                cache.fx, cache.fy,
            )
            cost += self.perf_weight * self.cost_hook(placement)
        cache.cost = cost

    # -- drift audit ---------------------------------------------------
    def audit(
        self,
        blocks: list[Block],
        pair: SequencePair,
        free_flips: dict[int, tuple[bool, bool]],
    ) -> float:
        """Full recompute of the current state; raise on cache drift.

        Returns the absolute cost deviation (0.0 in a healthy run) and
        resynchronises the cache, so even a tolerated sub-threshold
        deviation cannot accumulate.
        """
        if self._cur is None:
            raise RuntimeError("evaluator has no current state")
        cached = self._cur
        fresh = self._full(blocks, pair, free_flips)
        self.audits += 1
        deviation = abs(fresh.cost - cached.cost)
        span_dev = (
            float(np.abs(fresh.spans - cached.spans).max())
            if len(fresh.spans) else 0.0
        )
        scale = max(abs(fresh.cost), 1.0)
        if deviation > self.audit_tol * scale or \
                span_dev > self.audit_tol * max(self.hpwl_norm, 1.0):
            raise CostDriftError(
                "incremental SA cost drifted from full recompute: "
                f"cost {cached.cost!r} vs {fresh.cost!r} "
                f"(|delta| {deviation:.3e}), max span delta "
                f"{span_dev:.3e}"
            )
        self._cur = fresh
        self._pending = None
        return deviation
