"""Correctness gate: every placement of every pass must be legal and repeat.

A placement counts as failed when

* its call raised;
* devices overlap (``total_overlap > 0``);
* a symmetry, alignment or ordering constraint is violated
  (``audit_constraints(...).ok`` is false);
* its fingerprint (sha256 over x, y and both flip arrays) differs from
  pass 0 of the same case.

An ILP time limit hit under load changes the result, so it shows up as
a fingerprint failure here and as ``legalize.ilp.time_limit_hits`` in
the traced passes; it is never hidden.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.placement import Placement, audit_constraints, total_overlap


@dataclass(frozen=True)
class Failure:
    """One offending placement."""

    workload: str
    circuit: str
    engine: str
    seed: int
    reason: str

    def __str__(self) -> str:
        return (f"FAIL {self.workload} {self.circuit} {self.engine} "
                f"seed={self.seed}: {self.reason}")


def fingerprint(placement: Placement) -> str:
    """sha256 over the placement's coordinates and flip flags."""
    digest = hashlib.sha256()
    for array in (placement.x, placement.y,
                  placement.flip_x, placement.flip_y):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class Gate:
    """Checks the placements of one workload across its passes."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[Failure] = []
        self._reference: dict[tuple[str, str, int], str] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, circuit: str, engine: str, seeds: tuple[int, ...],
              outcome: "list[Placement] | BaseException") -> None:
        """Check one call's placements (one per seed) or its exception."""
        self.attempted += len(seeds)
        if isinstance(outcome, BaseException):
            reason = f"raised {type(outcome).__name__}: {outcome}"
            for seed in seeds:
                self._fail(circuit, engine, seed, reason)
            return
        if len(outcome) != len(seeds):
            for seed in seeds:
                self._fail(circuit, engine, seed,
                           f"{len(outcome)} placements for "
                           f"{len(seeds)} seeds")
            return
        for seed, placement in zip(seeds, outcome):
            reason = self._reason(circuit, engine, seed, placement)
            if reason:
                self._fail(circuit, engine, seed, reason)

    def _reason(self, circuit: str, engine: str, seed: int,
                placement: Placement) -> str:
        overlap = total_overlap(placement)
        if overlap > 0:
            return f"devices overlap by {overlap:.4g} um2"
        audit = audit_constraints(placement)
        if not audit.ok:
            return "constraint violated: " + "; ".join(audit.violations)
        digest = fingerprint(placement)
        reference = self._reference.setdefault(
            (circuit, engine, seed), digest)
        if digest != reference:
            return "result differs from pass 0 (nondeterministic)"
        return ""

    def _fail(self, circuit: str, engine: str, seed: int,
              reason: str) -> None:
        self.failures.append(
            Failure(self.workload, circuit, engine, seed, reason))
