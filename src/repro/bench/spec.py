"""Declarative benchmark suites: engine × circuit × seed matrices.

A :class:`SuiteSpec` names *what* to measure — which engines on which
paper testcases, over which seeds, with how many timed repeats and
discarded warmup runs — plus optional per-engine parameter overrides
(iteration budgets trimmed for CI-sized suites).  The runner
(:mod:`repro.bench.runner`) turns a suite into an artifact; suites
themselves never execute anything.

Built-in suites:

* ``smoke`` — 2 engines × 2 small circuits, trimmed budgets; the CI
  nightly suite and the committed-baseline target.
* ``quick`` — the three conventional engines on three mid-size
  circuits, still with reduced budgets.
* ``gnnsmoke`` — the performance layer: GNN model training
  (``gnn-train``) and one full ePlace-AP placement (``eplace-ap``) on
  two small circuits; gates the batched-kernel hot paths.
* ``paper`` — all three conventional engines × all ten testcases ×
  three seeds at full budgets (Table III scale; not for CI).

Custom suites load from JSON files with the same field names::

    {"name": "mine", "engines": ["eplace-a"], "circuits": ["SCF"],
     "seeds": [1, 2], "repeats": 3, "warmup": 1,
     "params": {"eplace-a": {"gp": {"max_iters": 200}}}}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from ..api import METHODS
from ..circuits import PAPER_TESTCASES

#: engines a suite may reference: the three placement methods plus two
#: performance-layer pseudo-engines — ``gnn-train`` times one
#: ``PerformanceModel.train`` run on a per-process cached dataset, and
#: ``eplace-ap`` times the full performance-driven ePlace-AP flow with
#: a per-process cached trained model (so the measurement isolates
#: placement, not model training)
BENCH_ENGINES: tuple[str, ...] = tuple(METHODS) + (
    "gnn-train", "eplace-ap",
)


class SuiteError(ValueError):
    """Raised for unknown suites and malformed suite files."""


@dataclass(frozen=True)
class CaseSpec:
    """One cell of the benchmark matrix."""

    engine: str
    circuit: str
    seed: int

    @property
    def key(self) -> str:
        """Stable identifier used to join runs across artifacts."""
        return f"{self.engine}:{self.circuit}:{self.seed}"


@dataclass
class SuiteSpec:
    """A full benchmark matrix plus execution knobs.

    ``params`` maps an engine name to its override dict: for the
    analytical flows the keys ``"gp"`` and ``"dp"`` hold keyword
    overrides for the global/detailed parameter dataclasses; for
    ``annealing`` the overrides are flat ``SAParams`` fields.  The
    case seed always wins over any ``seed`` key in the overrides.
    """

    name: str
    engines: list[str]
    circuits: list[str]
    seeds: list[int] = field(default_factory=lambda: [1])
    repeats: int = 3
    warmup: int = 1
    params: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown_engines = [
            e for e in self.engines if e not in BENCH_ENGINES
        ]
        if unknown_engines:
            raise SuiteError(
                f"suite {self.name!r}: unknown engines "
                f"{unknown_engines}; choose from {list(BENCH_ENGINES)}"
            )
        unknown_circuits = [
            c for c in self.circuits if c not in PAPER_TESTCASES
        ]
        if unknown_circuits:
            raise SuiteError(
                f"suite {self.name!r}: unknown circuits "
                f"{unknown_circuits}; choose from "
                f"{list(PAPER_TESTCASES)}"
            )
        if self.repeats < 1:
            raise SuiteError(
                f"suite {self.name!r}: repeats must be >= 1"
            )
        if self.warmup < 0:
            raise SuiteError(
                f"suite {self.name!r}: warmup must be >= 0"
            )
        if not self.seeds:
            raise SuiteError(
                f"suite {self.name!r}: at least one seed is required"
            )

    def cases(self) -> list[CaseSpec]:
        """The matrix in deterministic (engine, circuit, seed) order."""
        return [
            CaseSpec(engine, circuit, seed)
            for engine in self.engines
            for circuit in self.circuits
            for seed in self.seeds
        ]

    def describe(self) -> str:
        """One-line summary for CLI listings."""
        return (
            f"{self.name}: {len(self.engines)} engines x "
            f"{len(self.circuits)} circuits x {len(self.seeds)} seeds, "
            f"{self.repeats} repeats (+{self.warmup} warmup)"
        )


def _smoke() -> SuiteSpec:
    return SuiteSpec(
        name="smoke",
        engines=["eplace-a", "annealing"],
        circuits=["Adder", "CC-OTA"],
        seeds=[1],
        repeats=2,
        warmup=1,
        params={
            "eplace-a": {
                "gp": {"max_iters": 150, "min_iters": 30, "bins": 16},
                "dp": {"iterate_rounds": 1, "refine_rounds": 0,
                       "time_limit_s": 20.0},
            },
            "annealing": {"iterations": 4000},
        },
    )


def _quick() -> SuiteSpec:
    return SuiteSpec(
        name="quick",
        engines=["eplace-a", "xu-ispd19", "annealing"],
        circuits=["Comp1", "CM-OTA1", "VCO1"],
        seeds=[1, 2],
        repeats=3,
        warmup=1,
        params={
            "eplace-a": {
                "gp": {"max_iters": 250, "min_iters": 40, "bins": 16},
                "dp": {"iterate_rounds": 1, "refine_rounds": 0,
                       "time_limit_s": 30.0},
            },
            "xu-ispd19": {
                "gp": {"stages": 6, "cg_iterations": 40},
                "dp": {"allow_flipping": False},
            },
            "annealing": {"iterations": 20000},
        },
    )


def _gnnsmoke() -> SuiteSpec:
    return SuiteSpec(
        name="gnnsmoke",
        engines=["gnn-train", "eplace-ap"],
        circuits=["Adder", "CC-OTA"],
        seeds=[1],
        repeats=2,
        warmup=1,
        params={
            "gnn-train": {"samples": 160, "epochs": 20},
            "eplace-ap": {
                "samples": 120, "epochs": 12, "alpha": 1.0,
                "gp": {"max_iters": 120, "min_iters": 20, "bins": 16},
            },
        },
    )


def _paper() -> SuiteSpec:
    return SuiteSpec(
        name="paper",
        engines=list(METHODS),
        circuits=list(PAPER_TESTCASES),
        seeds=[1, 2, 3],
        repeats=3,
        warmup=1,
    )


#: built-in suite factories (fresh spec per call: specs are mutable)
BUILTIN_SUITES: dict[str, Callable[[], SuiteSpec]] = {
    "smoke": _smoke,
    "quick": _quick,
    "gnnsmoke": _gnnsmoke,
    "paper": _paper,
}


def load_suite_file(path: "str | os.PathLike[str]") -> SuiteSpec:
    """Parse a JSON suite definition (see module docstring)."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SuiteError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SuiteError(f"{path}: suite file must hold a JSON object")
    known = {
        "name", "engines", "circuits", "seeds", "repeats", "warmup",
        "params",
    }
    unknown = sorted(set(doc) - known)
    if unknown:
        raise SuiteError(f"{path}: unknown suite fields {unknown}")
    for required in ("engines", "circuits"):
        if required not in doc:
            raise SuiteError(f"{path}: missing field {required!r}")
    defaults = SuiteSpec(
        name=str(doc.get("name", os.path.basename(str(path)))),
        engines=list(doc["engines"]),
        circuits=list(doc["circuits"]),
        seeds=[int(s) for s in doc.get("seeds", [1])],
        repeats=int(doc.get("repeats", 3)),
        warmup=int(doc.get("warmup", 1)),
        params=dict(doc.get("params", {})),
    )
    return defaults


def get_suite(name_or_path: str) -> SuiteSpec:
    """Resolve a built-in suite name or a JSON suite file path."""
    factory = BUILTIN_SUITES.get(name_or_path)
    if factory is not None:
        return factory()
    if os.path.exists(name_or_path):
        return load_suite_file(name_or_path)
    raise SuiteError(
        f"unknown suite {name_or_path!r}: not a built-in "
        f"({sorted(BUILTIN_SUITES)}) and not a file"
    )
