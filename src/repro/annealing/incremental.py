"""Incremental SA cost evaluation (the hot path of the Metropolis loop).

The annealer historically rebuilt a full :class:`~repro.placement.Placement`
and recomputed the complete HPWL + area cost from scratch for every
proposed move — two per-device Python loops per Metropolis step.  This
module replaces that with an evaluator that maintains, between moves:

* per-*pin* offsets inside the owning block, which change only on flip
  / island-reorder moves (memoized per block geometry);
* per-block packed extents and the packed block origins;
* a per-net bounding-box **span cache**: a move only re-spans the
  nets with a pin on a block that moved or changed shape.  For
  geometry-only moves (flip, island reorder that keeps the block's
  dims) that set is static per block, and the sequence-pair packing is
  skipped entirely.

At analog sizes (2–16 blocks, 6–25 nets, 19–81 pins) numpy dispatch
costs more than the arithmetic, so the per-move path runs on plain
Python lists: each net holds its ``(pin, block)`` pairs, each block its
net list, and the dirty nets are re-spanned in one scalar loop.  The
from-scratch evaluation (:meth:`IncrementalCostEvaluator.reset`,
:meth:`~IncrementalCostEvaluator.audit`) stays in numpy as the
reference the cache is checked against.

Correctness invariant: per-net spans are always *recomputed from pin
coordinates* for dirty nets — never accumulated as deltas — as
``max − min + max − min`` in the same order as the numpy reference, and
max/min are exact, so a cached span is bitwise what a from-scratch
evaluation would produce.  There is therefore no floating-point drift
channel; the periodic :meth:`IncrementalCostEvaluator.audit` full
recompute exists to catch *logic* bugs (stale dirty tracking after a
new move type, say) and raises :class:`CostDriftError` when the cache
disagrees beyond ``audit_tol``.

See ``docs/PERFORMANCE.md`` ("Incremental SA cost") for the invariant
table and the audit policy.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from ..analytic import NetArrays
from ..netlist import Circuit
from ..placement import Placement
from .islands import Block
from .seqpair import SequencePair, pack_lists


class CostDriftError(RuntimeError):
    """The incremental cost cache disagreed with a full recompute."""


def block_geometry(
    block: Block, extra_fx: bool, extra_fy: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Member-device offsets and flips of one block under extra mirrors.

    Vectorised form of the per-device transform the annealer's
    ``realize`` loop used to apply; returns ``(rel_x, rel_y, fx, fy)``
    over the block's member devices (in ``block.device_indices`` order).
    """
    rel_x = block.width - block.rel_x if extra_fx else block.rel_x
    rel_y = block.height - block.rel_y if extra_fy else block.rel_y
    fx = block.flip_x ^ extra_fx
    fy = block.flip_y ^ extra_fy
    return rel_x, rel_y, fx, fy


def realize_placement(
    circuit: Circuit,
    blocks: list[Block],
    pair: SequencePair,
    free_flips: dict[int, tuple[bool, bool]],
) -> Placement:
    """Pack a sequence pair and emit the absolute device placement.

    The annealer's final-result path.  The evaluator's cost-hook path
    builds the same coordinates, bit for bit, from the packing and
    device geometry it already holds.
    """
    widths = np.array([b.width for b in blocks])
    heights = np.array([b.height for b in blocks])
    bx, by = pair.pack(widths, heights)

    n = circuit.num_devices
    x = np.zeros(n)
    y = np.zeros(n)
    fx = np.zeros(n, dtype=bool)
    fy = np.zeros(n, dtype=bool)
    for k, block in enumerate(blocks):
        extra_fx, extra_fy = free_flips.get(k, (False, False))
        idx = np.asarray(block.device_indices, dtype=int)
        rel_x, rel_y, bfx, bfy = block_geometry(block, extra_fx, extra_fy)
        x[idx] = bx[k] + rel_x
        y[idx] = by[k] + rel_y
        fx[idx] = bfx
        fy[idx] = bfy
    return Placement(circuit, x, y, fx, fy)


class _BlockGeom(NamedTuple):
    """One block's geometry under a row order and extra flips.

    Pin offsets (over the block's pins, as lists) and packed extents
    ``(lo_x, hi_x, lo_y, hi_y)`` feed the span and area kernels; member
    device offsets and flips (over ``idx``) feed realized placements.
    """

    pin_rel_x: list[float]
    pin_rel_y: list[float]
    ext: tuple[float, float, float, float]
    idx: np.ndarray
    rel_x: np.ndarray
    rel_y: np.ndarray
    fx: np.ndarray
    fy: np.ndarray


class _Cache:
    """One fully evaluated SA state (committed or pending).

    Per-pin, per-block and per-net fields are plain lists (read one
    element at a time, where list access beats numpy scalar access
    severalfold); the device-level arrays ``rel_x`` … ``fy`` only feed
    realized placements for a cost hook.  A candidate aliases every
    list of the state it was proposed from and copies only the ones
    its move writes.
    """

    __slots__ = (
        "rel_x", "rel_y", "fx", "fy", "pin_rel_x", "pin_rel_y",
        "block_w", "block_h", "ext", "bx", "by", "spans", "hpwl", "cost",
    )

    def shallow(self) -> "_Cache":
        out = _Cache()
        out.rel_x = self.rel_x
        out.rel_y = self.rel_y
        out.fx = self.fx
        out.fy = self.fy
        out.pin_rel_x = self.pin_rel_x
        out.pin_rel_y = self.pin_rel_y
        out.block_w = self.block_w
        out.block_h = self.block_h
        out.ext = self.ext
        out.bx = self.bx
        out.by = self.by
        out.spans = self.spans
        return out


class IncrementalCostEvaluator:
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

        self._dev_block = np.zeros(circuit.num_devices, dtype=int)
        self._pin_block: "np.ndarray | None" = None  # set on first reset
        # pin/net/block incidence, built on first reset (device → block
        # membership is invariant: reorder moves permute devices
        # *inside* a block, never across blocks)
        self._net_pins: list[tuple[tuple[int, int], ...]] = []
        self._block_pins: list[list[int]] = []
        self._block_nets: list[list[int]] = []
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
        """The numpy from-scratch evaluation every cache is checked
        against."""
        self.full_evals += 1
        n = self.circuit.num_devices
        cache = _Cache()
        cache.rel_x = np.zeros(n)
        cache.rel_y = np.zeros(n)
        cache.fx = np.zeros(n, dtype=bool)
        cache.fy = np.zeros(n, dtype=bool)
        cache.block_w = [block.width for block in blocks]
        cache.block_h = [block.height for block in blocks]
        cache.ext = []
        for k, block in enumerate(blocks):
            efx, efy = free_flips.get(k, (False, False))
            idx = np.asarray(block.device_indices, dtype=int)
            rel_x, rel_y, bfx, bfy = block_geometry(block, efx, efy)
            cache.rel_x[idx] = rel_x
            cache.rel_y[idx] = rel_y
            cache.fx[idx] = bfx
            cache.fy[idx] = bfy
            self._dev_block[idx] = k
            cache.ext.append((
                float((rel_x - self.half_w[idx]).min()),
                float((rel_x + self.half_w[idx]).max()),
                float((rel_y - self.half_h[idx]).min()),
                float((rel_y + self.half_h[idx]).max()),
            ))
        sign_x = np.where(cache.fx, -1.0, 1.0)
        sign_y = np.where(cache.fy, -1.0, 1.0)

        a = self.arrays
        if self._pin_block is None:
            self._pin_block = self._dev_block[a.pin_dev]
            self._link(len(blocks))
        pin_rel_x = cache.rel_x[a.pin_dev] + a.pin_offx * sign_x[a.pin_dev]
        pin_rel_y = cache.rel_y[a.pin_dev] + a.pin_offy * sign_y[a.pin_dev]
        cache.pin_rel_x = pin_rel_x.tolist()
        cache.pin_rel_y = pin_rel_y.tolist()
        cache.bx, cache.by = pack_lists(
            pair.plus, pair.minus, cache.block_w, cache.block_h
        )
        px = np.asarray(cache.bx)[self._pin_block] + pin_rel_x
        py = np.asarray(cache.by)[self._pin_block] + pin_rel_y
        cache.spans = (
            np.maximum.reduceat(px, a.starts)
            - np.minimum.reduceat(px, a.starts)
            + np.maximum.reduceat(py, a.starts)
            - np.minimum.reduceat(py, a.starts)
        ).tolist()
        self._finish(cache)
        return cache

    def _link(self, nb: int) -> None:
        """Pin/net/block incidence lists for the per-move kernels."""
        a = self.arrays
        pin_block = self._pin_block.tolist()
        ends = a.starts.tolist()[1:] + [a.num_pins]
        self._net_pins = [
            tuple((p, pin_block[p]) for p in range(s, e))
            for s, e in zip(a.starts.tolist(), ends)
        ]
        self._block_pins = [[] for _ in range(nb)]
        self._block_nets = [[] for _ in range(nb)]
        for p, k in enumerate(pin_block):
            self._block_pins[k].append(p)
        for j, pins in enumerate(self._net_pins):
            for k in sorted({k for _, k in pins}):
                self._block_nets[k].append(j)

    # -- incremental evaluation ---------------------------------------
    def propose(
        self,
        blocks: list[Block],
        pair: SequencePair,
        free_flips: dict[int, tuple[bool, bool]],
        touched_block: "int | None",
    ) -> float:
        """Cost of a candidate differing from the current state by one
        move; cached as *pending* until :meth:`commit`.

        The dirty nets are those with a pin on a block that moved or
        changed shape; each is re-spanned from its pins, every other
        span is shared with the current state.
        """
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
            # valid and only the block's own nets are dirty
            dirty: "list[int] | set[int]" = self._block_nets[k]
        else:
            bx, by = cand.bx, cand.by = pack_lists(
                pair.plus, pair.minus, cand.block_w, cand.block_h
            )
            bx0, by0 = cur.bx, cur.by
            dirty = set().union(*(
                self._block_nets[b] for b in range(len(bx))
                if b == k or bx[b] != bx0[b] or by[b] != by0[b]
            ))
        if dirty:
            self.dirty_nets += len(dirty)
            bx, by = cand.bx, cand.by
            prx, pry = cand.pin_rel_x, cand.pin_rel_y
            net_pins = self._net_pins
            spans = list(cur.spans)
            for j in dirty:
                pins = net_pins[j]
                p, b = pins[0]
                lo_x = hi_x = bx[b] + prx[p]
                lo_y = hi_y = by[b] + pry[p]
                # first extreme wins ties, as in the reference reduceat
                for p, b in pins:
                    v = bx[b] + prx[p]
                    if v > hi_x:
                        hi_x = v
                    elif v < lo_x:
                        lo_x = v
                    v = by[b] + pry[p]
                    if v > hi_y:
                        hi_y = v
                    elif v < lo_y:
                        lo_y = v
                spans[j] = hi_x - lo_x + hi_y - lo_y
            cand.spans = spans
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
            psel = np.asarray(self._block_pins[k], dtype=int)
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
                pin_rel_x=(
                    rel_x[mem] + a.pin_offx[psel] * sign_x[mem]
                ).tolist(),
                pin_rel_y=(
                    rel_y[mem] + a.pin_offy[psel] * sign_y[mem]
                ).tolist(),
                ext=(
                    float((rel_x - self.half_w[idx]).min()),
                    float((rel_x + self.half_w[idx]).max()),
                    float((rel_y - self.half_h[idx]).min()),
                    float((rel_y + self.half_h[idx]).max()),
                ),
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
        cand.ext = list(cand.ext)
        cand.ext[k] = geom.ext
        pins = self._block_pins[k]
        if pins:
            prx = cand.pin_rel_x = list(cand.pin_rel_x)
            pry = cand.pin_rel_y = list(cand.pin_rel_y)
            for p, vx, vy in zip(pins, geom.pin_rel_x, geom.pin_rel_y):
                prx[p] = vx
                pry[p] = vy
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

    # -- cost assembly -------------------------------------------------
    def _finish(self, cache: _Cache) -> None:
        """HPWL + area (+ optional performance hook) from the caches.

        HPWL stays ``np.dot``: BLAS accumulates in a different order
        from a Python sum, and the two differ in the last bit.
        """
        cache.hpwl = float(np.dot(self.arrays.weights, cache.spans))
        inf = float("inf")
        lo_x = lo_y = inf
        hi_x = hi_y = -inf
        # first extreme wins ties, as in max()/min()
        for bx, by, (elx, ehx, ely, ehy) in zip(
                cache.bx, cache.by, cache.ext):
            v = bx + elx
            if v < lo_x:
                lo_x = v
            v = bx + ehx
            if v > hi_x:
                hi_x = v
            v = by + ely
            if v < lo_y:
                lo_y = v
            v = by + ehy
            if v > hi_y:
                hi_y = v
        w = hi_x - lo_x
        h = hi_y - lo_y
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
                np.asarray(cache.bx)[dev_block] + cache.rel_x,
                np.asarray(cache.by)[dev_block] + cache.rel_y,
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
            float(np.abs(np.subtract(fresh.spans, cached.spans)).max())
            if fresh.spans else 0.0
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
