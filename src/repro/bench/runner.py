"""Suite execution: run the matrix, collect traces, emit one artifact.

For every case (engine × circuit × seed) the runner executes:

1. *Warmup* runs — discarded from timing; the **first** warmup run
   doubles as the memory-profiling run (tracemalloc slows every
   allocation, so peaks must never be sampled during a timed repeat).
   With ``warmup=0`` a dedicated profiling run is inserted so memory
   data is never silently missing.
2. *Timed repeats* — each under a fresh tracer; wall-clock comes from
   the engine's own ``runtime_s`` (spans partition it per phase), and
   repeat 0 additionally contributes the convergence series stored in
   the artifact (seeded engines make every repeat's trajectory
   identical, so one copy suffices).

The runner never reads clocks itself — durations come from
:mod:`repro.obs` spans and the artifact stamp from
:func:`repro.obs.env.utc_timestamp` (lint rule RPR001).
"""

from __future__ import annotations

import os
from typing import Any

from ..annealing import SAParams
from ..api import place
from ..circuits import make
from ..eplace import EPlaceParams
from ..legalize import DetailedParams
from ..obs import diagnose, env, memory, tracing
from ..obs.log import get_logger
from ..obs.trace import Trace
from ..parallel import parallel_map
from ..placement import PlacerResult
from ..xu_ispd19 import XuParams
from .artifact import SCHEMA, artifact_filename, save_artifact, \
    validate_artifact
from .spec import CaseSpec, SuiteSpec

logger = get_logger("bench")

#: per-phase convergence series are downsampled to at most this many
#: points before landing in the artifact (sparkline resolution)
DEFAULT_SERIES_POINTS = 48


def build_kwargs(
    engine: str, seed: int, overrides: dict[str, Any],
) -> dict[str, Any]:
    """Map a case onto the engine entry point's keyword arguments.

    The case seed always wins over a ``seed`` in the overrides so a
    suite's seed axis cannot be silently ignored.
    """
    if engine == "eplace-a":
        gp = dict(overrides.get("gp", {}))
        gp["seed"] = seed
        kwargs: dict[str, Any] = {"gp_params": EPlaceParams(**gp)}
        dp = overrides.get("dp")
        if dp is not None:
            kwargs["dp_params"] = DetailedParams(**dp)
        return kwargs
    if engine == "xu-ispd19":
        gp = dict(overrides.get("gp", {}))
        gp["seed"] = seed
        kwargs = {"gp_params": XuParams(**gp)}
        dp = overrides.get("dp")
        if dp is not None:
            kwargs["dp_params"] = DetailedParams(**dp)
        return kwargs
    if engine == "annealing":
        flat = dict(overrides)
        flat["seed"] = seed
        return {"params": SAParams(**flat)}
    raise ValueError(f"no kwargs mapping for engine {engine!r}")


def downsample(values: list[float], points: int) -> list[float]:
    """Thin a series to ``points`` samples, keeping first and last."""
    n = len(values)
    if n <= points or points < 2:
        return list(values)
    picked = []
    last_index = -1
    for i in range(points):
        index = round(i * (n - 1) / (points - 1))
        if index != last_index:
            picked.append(values[index])
            last_index = index
    return picked


def convergence_summary(
    trace: Trace, points: int = DEFAULT_SERIES_POINTS,
) -> list[dict[str, Any]]:
    """Per-phase convergence series/finals from one run's trace."""
    by_phase: dict[str, list[dict[str, float]]] = {}
    for rec in trace.convergence:
        by_phase.setdefault(rec.phase, []).append(
            {k: float(v) for k, v in rec.values.items()}
        )
    out: list[dict[str, Any]] = []
    for phase, rows in sorted(by_phase.items()):
        fields: dict[str, list[float]] = {}
        for row in rows:
            for key, value in row.items():
                fields.setdefault(key, []).append(value)
        out.append({
            "phase": phase,
            "iterations": len(rows),
            "series": {
                key: downsample(series, points)
                for key, series in sorted(fields.items())
            },
            "final": rows[-1],
        })
    return out


#: per-process fixture caches for the performance pseudo-engines:
#: datasets and trained models are *inputs* to the measured stage, so
#: they are built once (during the first warmup run) and reused across
#: repeats — keyed so distinct cases never share state
_GNN_FIXTURES: dict[tuple[str, int, int], tuple[Any, Any]] = {}
_GNN_MODELS: dict[tuple[str, int, int, int], Any] = {}

#: trimmed conventional seed-placement budget for the GNN fixtures
_FIXTURE_GP = {"max_iters": 150, "min_iters": 30, "bins": 16}


def _gnn_fixture(
    circuit_name: str, seed: int, samples: int,
) -> tuple[Any, Any]:
    """Cached ``(seed_placement, dataset)`` for one gnn bench case."""
    from ..gnn import generate_dataset

    key = (circuit_name, seed, samples)
    if key not in _GNN_FIXTURES:
        circuit = make(circuit_name)
        seed_placement = place(
            circuit, "eplace-a",
            gp_params=EPlaceParams(seed=seed, **_FIXTURE_GP),
            dp_params=DetailedParams(iterate_rounds=1,
                                     refine_rounds=0),
        ).placement
        dataset = generate_dataset(
            seed_placement, samples=samples, seed=seed)
        _GNN_FIXTURES[key] = (seed_placement, dataset)
    return _GNN_FIXTURES[key]


def _gnn_model(
    circuit_name: str, seed: int, samples: int, epochs: int,
) -> Any:
    """Cached trained :class:`PerformanceModel` for ``eplace-ap``.

    The fixture always trains with the retained ``loop`` kernel so the
    model weights are identical no matter which inference kernel the
    suite then measures — before/after evidence artifacts therefore
    differ only in the code under test, never in the model.
    """
    from ..gnn import PerformanceModel

    key = (circuit_name, seed, samples, epochs)
    if key not in _GNN_MODELS:
        seed_placement, dataset = _gnn_fixture(
            circuit_name, seed, samples)
        model = PerformanceModel(seed_placement.circuit, seed=seed)
        model.train(dataset, epochs=epochs, seed=seed, kernel="loop")
        # an unvalidated model has trust 0 and the flow would skip the
        # perf-driven machinery; pin full trust so the benchmark
        # exercises the whole gradient + refine path deterministically
        model.validation_corr = -0.9
        _GNN_MODELS[key] = model
    return _GNN_MODELS[key]


def _execute_gnn_train(
    case: CaseSpec, overrides: dict[str, Any],
) -> tuple[PlacerResult, Trace]:
    """Time one ``PerformanceModel.train`` run on a cached dataset.

    The returned result wraps the (training-independent) seed
    placement, so quality metrics are deterministic and identical
    across artifacts — only ``runtime_s`` carries signal.
    """
    from ..gnn import PerformanceModel
    from ..obs.trace import Stopwatch

    opts = dict(overrides)
    samples = int(opts.pop("samples", 160))
    epochs = int(opts.pop("epochs", 20))
    kernel = str(opts.pop("kernel", "batched"))
    if opts:
        raise ValueError(
            f"unknown gnn-train overrides: {sorted(opts)}")
    seed_placement, dataset = _gnn_fixture(
        case.circuit, case.seed, samples)
    with tracing() as tracer:
        clock = Stopwatch()
        model = PerformanceModel(seed_placement.circuit,
                                 seed=case.seed)
        report = model.train(dataset, epochs=epochs, seed=case.seed,
                             kernel=kernel)
        runtime = clock.elapsed()
    result = PlacerResult(
        placement=seed_placement,
        runtime_s=runtime,
        method="gnn-train",
        stats={"final_loss": report.final_loss,
               "train_accuracy": report.train_accuracy,
               "kernel": kernel},
        trace=tracer.to_trace(),
    )
    return result, result.trace


def _execute_eplace_ap(
    case: CaseSpec, overrides: dict[str, Any],
) -> tuple[PlacerResult, Trace]:
    """Time one full ePlace-AP flow with a cached trained model."""
    from ..perf_driven import place_eplace_ap

    opts = dict(overrides)
    samples = int(opts.pop("samples", 120))
    epochs = int(opts.pop("epochs", 12))
    kernel = str(opts.pop("kernel", "batched"))
    alpha = float(opts.pop("alpha", 1.0))
    gp = dict(opts.pop("gp", {}))
    gp["seed"] = case.seed
    dp = opts.pop("dp", None)
    if opts:
        raise ValueError(
            f"unknown eplace-ap overrides: {sorted(opts)}")
    model = _gnn_model(case.circuit, case.seed, samples, epochs)
    model.inference_kernel = kernel
    kwargs: dict[str, Any] = {
        "gp_params": EPlaceParams(**gp), "alpha": alpha,
    }
    if dp is not None:
        kwargs["dp_params"] = DetailedParams(**dp)
    circuit = make(case.circuit)
    with tracing() as tracer:
        result = place_eplace_ap(circuit, model, **kwargs)
    trace = result.trace if result.trace else tracer.to_trace()
    return result, trace


def _execute(
    case: CaseSpec, overrides: dict[str, Any],
) -> tuple[PlacerResult, Trace]:
    """One traced engine execution of ``case`` on a fresh circuit."""
    if case.engine == "gnn-train":
        return _execute_gnn_train(case, overrides)
    if case.engine == "eplace-ap":
        return _execute_eplace_ap(case, overrides)
    circuit = make(case.circuit)
    kwargs = build_kwargs(case.engine, case.seed, overrides)
    with tracing() as tracer:
        result = place(circuit, case.engine, **kwargs)
    trace = result.trace if result.trace else tracer.to_trace()
    return result, trace


def run_case(
    case: CaseSpec,
    overrides: dict[str, Any],
    repeats: int,
    warmup: int,
    series_points: int = DEFAULT_SERIES_POINTS,
) -> list[dict[str, Any]]:
    """Execute one case; returns its run records (one per repeat)."""
    mem_profile = None
    profiled = max(warmup, 1)  # warmup=0 still gets a profiling run
    for index in range(profiled):
        if index == 0:
            with memory.profile_memory() as mem_profile:
                _execute(case, overrides)
        else:
            _execute(case, overrides)
    mem_doc: dict[str, Any] | None = None
    if mem_profile is not None:
        mem_doc = {
            "overall_peak_kib": mem_profile.overall_peak_kib,
            "phases": dict(sorted(
                mem_profile.phase_peaks_kib.items()
            )),
        }

    records: list[dict[str, Any]] = []
    for repeat in range(repeats):
        result, trace = _execute(case, overrides)
        record: dict[str, Any] = {
            "engine": case.engine,
            "circuit": case.circuit,
            "seed": case.seed,
            "repeat": repeat,
            "runtime_s": float(result.runtime_s),
            "metrics": {
                k: float(v) for k, v in result.metrics().items()
                if k != "runtime_s"
            },
            "phases": trace.phase_times(),
            "mem": mem_doc if repeat == 0 else None,
            "convergence": (
                convergence_summary(trace, series_points)
                if repeat == 0 else []
            ),
            "diagnosis": (
                diagnose.diagnose_trace(trace).to_dict()
                if repeat == 0 else None
            ),
        }
        records.append(record)
        logger.info(
            "bench %s repeat %d: %.3fs hpwl %.2f",
            case.key, repeat, record["runtime_s"],
            record["metrics"]["hpwl"],
        )
    return records


def _case_worker(
    payload: tuple[CaseSpec, dict[str, Any], int, int, int],
) -> list[dict[str, Any]]:
    """Picklable :func:`run_case` wrapper for the process pool."""
    case, overrides, repeats, warmup, series_points = payload
    return run_case(
        case, overrides,
        repeats=repeats, warmup=warmup, series_points=series_points,
    )


def run_suite(
    suite: SuiteSpec,
    repeats: "int | None" = None,
    warmup: "int | None" = None,
    series_points: int = DEFAULT_SERIES_POINTS,
    jobs: int = 1,
) -> dict[str, Any]:
    """Execute a whole suite; returns the validated artifact dict.

    ``jobs > 1`` fans the cases out over worker processes
    (:mod:`repro.parallel`).  Cases are seed-sharded — one worker owns
    one (engine, circuit, seed) cell end to end — and the artifact
    lists runs in the same deterministic case order as ``jobs=1``, so
    metrics/convergence output is identical; only the ``runtime_s``
    measurements see whatever CPU contention the parallelism causes
    (record comparison baselines with ``jobs=1``).
    """
    effective_repeats = suite.repeats if repeats is None else repeats
    effective_warmup = suite.warmup if warmup is None else warmup
    cases = suite.cases()
    logger.info("bench suite %s: %d cases, jobs=%d",
                suite.name, len(cases), jobs)
    per_case = parallel_map(
        _case_worker,
        [
            (
                case,
                suite.params.get(case.engine, {}),
                effective_repeats,
                effective_warmup,
                series_points,
            )
            for case in cases
        ],
        jobs=jobs,
    )
    runs: list[dict[str, Any]] = []
    for records in per_case:
        runs.extend(records)
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "created_utc": env.iso_timestamp(),
        "suite": suite.name,
        "config": {
            "engines": list(suite.engines),
            "circuits": list(suite.circuits),
            "seeds": list(suite.seeds),
            "repeats": effective_repeats,
            "warmup": effective_warmup,
        },
        "fingerprint": env.fingerprint(),
        "runs": runs,
    }
    return validate_artifact(doc)


def run_to_file(
    suite: SuiteSpec,
    out_dir: "str | os.PathLike[str]",
    repeats: "int | None" = None,
    warmup: "int | None" = None,
    series_points: int = DEFAULT_SERIES_POINTS,
    jobs: int = 1,
) -> str:
    """Run ``suite`` and write ``BENCH_<stamp>.json`` under ``out_dir``.

    Returns the artifact path.
    """
    doc = run_suite(
        suite, repeats=repeats, warmup=warmup,
        series_points=series_points, jobs=jobs,
    )
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(str(out_dir), artifact_filename(
        env.utc_timestamp()
    ))
    save_artifact(doc, path)
    logger.info("bench artifact written: %s", path)
    return path
