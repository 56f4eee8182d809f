"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``list`` — the available paper testcases;
* ``place`` — run one placement method on a testcase, print metrics,
  optionally save the layout as JSON and/or SVG, a convergence/span
  trace as JSONL (``--trace-out``), or a per-phase time table
  (``--profile``);
* ``simulate`` — evaluate a saved (or freshly placed) layout's circuit
  performance and FOM;
* ``table`` — regenerate one of the paper's tables/figures;
* ``runs`` — inspect the persistent run registry
  (:mod:`repro.obs.registry`): ``list``/``show``/``compare``/``gc``
  over the run directories that ``place --save-run`` and ``table
  --save-run`` record.

Global ``-v``/``-vv`` raises the ``repro.*`` logging level (INFO /
DEBUG) for solver diagnostics.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import obs
from .annealing import SAParams
from .api import METHODS, place, place_multiseed
from .obs.registry import RegistryError, read_run_trace
from .circuits import PAPER_TESTCASES, make
from .placement import audit_constraints
from .placement.io import load_placement, save_placement, save_svg
from .simulate import fom, simulate


def _echo(message: str = "", err: bool = False) -> None:
    """CLI output channel (stdout is data; diagnostics go to logging)."""
    stream = sys.stderr if err else sys.stdout
    stream.write(message + "\n")


def _normalize(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


#: forgiving lookup: "cmota1", "CM-OTA1" and "cm_ota1" all resolve
CIRCUIT_ALIASES = {_normalize(name): name for name in PAPER_TESTCASES}


def _parse_seeds(spec: "str | None") -> "list[int] | None":
    """Parse a ``--seeds`` list like ``1,2,3`` (None when absent)."""
    if not spec:
        return None
    try:
        seeds = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(
            f"--seeds expects a comma-separated integer list, "
            f"got {spec!r}"
        )
    if not seeds:
        raise SystemExit("--seeds expects at least one seed")
    return seeds


def resolve_circuit(name: str) -> str:
    """Map a user-supplied circuit name to its canonical testcase name."""
    canonical = CIRCUIT_ALIASES.get(_normalize(name))
    if canonical is None:
        raise SystemExit(
            f"unknown circuit {name!r}; choose from "
            f"{', '.join(PAPER_TESTCASES)}"
        )
    return canonical


def _cmd_list(_args) -> int:
    for name in PAPER_TESTCASES:
        circuit = make(name)
        _echo(f"{name:8s} devices={circuit.num_devices:3d} "
              f"nets={circuit.num_nets:3d} "
              f"symmetry_groups="
              f"{len(circuit.constraints.symmetry_groups)}")
    return 0


def _cmd_place(args) -> int:
    name = args.circuit_opt or args.circuit
    if not name:
        raise SystemExit(
            "place: a circuit is required (positional or --circuit)"
        )
    circuit = make(resolve_circuit(name))
    kwargs = {}
    if args.method == "annealing":
        kwargs["params"] = SAParams(iterations=args.sa_iterations,
                                    seed=args.seed)
    seeds = _parse_seeds(args.seeds)
    want_trace = bool(args.trace_out or args.profile or args.save_run)

    def _run():
        if seeds is None:
            return place(circuit, args.method, **kwargs)
        results = place_multiseed(
            circuit, args.method, seeds=seeds, jobs=args.jobs, **kwargs,
        )
        for seed, res in zip(seeds, results):
            m = res.metrics()
            _echo(f"seed {seed:4d}: hpwl {m['hpwl']:.2f} "
                  f"area {m['area']:.2f} "
                  f"runtime {m['runtime_s']:.2f}s")
        return min(results, key=lambda r: r.metrics()["hpwl"])

    writer = None
    if args.save_run:
        writer = obs.RunRegistry().create(
            "place", f"{circuit.name}:{args.method}",
            config={
                "circuit": circuit.name, "method": args.method,
                "seed": args.seed, "seeds": seeds,
                "jobs": args.jobs,
                "sa_iterations": args.sa_iterations,
            },
        )
    with obs.tracing(enabled=want_trace) as tracer:
        result = _run()
    if want_trace and not result.trace:
        result.trace = tracer.to_trace()
    metrics = result.metrics()
    audit = audit_constraints(result.placement)
    _echo(f"method   : {result.method}")
    _echo(f"area     : {metrics['area']:.2f} um^2")
    _echo(f"hpwl     : {metrics['hpwl']:.2f} um")
    _echo(f"overlap  : {metrics['overlap']:.4f} um^2")
    _echo(f"runtime  : {metrics['runtime_s']:.2f} s")
    _echo(f"audit    : {'OK' if audit.ok else audit.violations}")
    if args.out:
        save_placement(result.placement, args.out)
        _echo(f"saved    : {args.out}")
    if args.svg:
        save_svg(result.placement, args.svg)
        _echo(f"svg      : {args.svg}")
    if args.trace_out:
        count = obs.write_jsonl(
            result.trace, args.trace_out,
            method=result.method, circuit=circuit.name,
            runtime_s=result.runtime_s,
        )
        _echo(f"trace    : {args.trace_out} ({count} records)")
    if args.metrics_out:
        doc = {
            "schema": "repro.obs.metrics/1",
            "method": result.method,
            "circuit": circuit.name,
            "runtime_s": result.runtime_s,
            "quality": metrics,
            "registry": obs.snapshot(),
        }
        with open(args.metrics_out, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True,
                      default=float)
            handle.write("\n")
        _echo(f"metrics  : {args.metrics_out}")
    if args.profile:
        _echo()
        _echo(obs.format_profile(result.trace, result.runtime_s))
    if writer is not None:
        # the run keeps the whole invocation's trace: under --seeds,
        # every seed's records, merged in seed order
        writer.write_trace(
            tracer.to_trace(), method=result.method,
            circuit=circuit.name, runtime_s=result.runtime_s,
        )
        path = writer.finalize(metrics=dict(metrics))
        _echo(f"run      : {path}")
    return 0


def _cmd_simulate(args) -> int:
    circuit = make(resolve_circuit(args.circuit))
    if args.layout:
        placement = load_placement(circuit, args.layout)
    else:
        placement = place(circuit, args.method).placement
    metrics = simulate(placement)
    for name, value in metrics.items():
        _echo(f"{name:20s} {value:10.2f}")
    _echo(f"{'FOM':20s} {fom(placement):10.3f}")
    return 0


def _cmd_table(args) -> int:
    from . import experiments as exp

    drivers = {
        "table1": (exp.run_table1, exp.format_table1),
        "fig2": (exp.run_fig2, exp.format_fig2),
        "table3": (exp.run_table3, exp.format_table3),
        "table4": (exp.run_table4, exp.format_table4),
        "fig5": (exp.run_fig5, exp.format_fig5),
        "table5": (exp.run_table5, exp.format_table5),
        "table7": (exp.run_table7, exp.format_table7),
    }
    if args.name not in drivers:
        _echo(f"unknown experiment {args.name!r}; choose from "
              f"{sorted(drivers)}", err=True)
        return 2
    run, fmt = drivers[args.name]
    writer = None
    if args.save_run:
        writer = obs.RunRegistry().create(
            "table", args.name,
            config={"name": args.name, "quick": bool(args.quick),
                    "jobs": args.jobs},
        )
    if args.name in ("table3", "table5", "table7"):
        rows = run(quick=args.quick, jobs=args.jobs)
    else:
        rows = run(quick=args.quick)
    rendered = fmt(rows)
    _echo(rendered)
    if writer is not None:
        with open(writer.path / "table.txt", "w") as handle:
            handle.write(rendered + "\n")
        path = writer.finalize()
        _echo(f"run      : {path}")
    return 0


def _cmd_runs(args) -> int:
    registry = obs.RunRegistry(args.root)
    try:
        return _dispatch_runs(registry, args)
    except RegistryError as exc:
        _echo(f"error: {exc}", err=True)
        return 2


def _run_diagnosis(run):
    """Best-available Diagnosis for a registry run, or ``None``.

    Prefers the manifest's stored verdicts (schema ``repro.run/2``);
    older runs fall back to recomputing from ``trace.jsonl``, so
    ``doctor``/``--health`` work on ``repro.run/1`` directories too.
    """
    from .obs import diagnose

    doc = run.manifest.get("diagnosis")
    if isinstance(doc, dict):
        return diagnose.Diagnosis.from_dict(doc)
    trace = read_run_trace(run.path)
    if trace is None or not trace.convergence:
        return None
    return diagnose.diagnose_trace(trace)


def _echo_diagnosis(diagnosis) -> None:
    _echo(f"verdict  : {diagnosis.verdict}")
    for name in sorted(diagnosis.phases):
        phase = diagnosis.phases[name]
        fired = sorted(
            check for check, hit in phase.checks.items() if hit
        )
        detail = f" [{', '.join(fired)}]" if fired else ""
        metric = f" metric={phase.metric}" if phase.metric else ""
        _echo(f"  {name:24s} {phase.verdict:17s} "
              f"({phase.points} points{metric}){detail}")


def _dispatch_runs(registry, args) -> int:
    if args.runs_command == "list":
        runs = registry.list_runs()
        if not runs:
            _echo(f"(no runs under {registry.root})")
            return 0
        for run in runs:
            summary = " ".join(
                f"{key}={value:.5g}"
                for key, value in sorted(run.metrics.items())
                if isinstance(value, (int, float))
            )
            _echo(f"{run.run_id}  {run.kind:6s} {run.label:20s} "
                  f"{run.status:9s} {summary}".rstrip())
        return 0
    if args.runs_command == "show":
        run = registry.resolve(args.run)
        manifest = run.manifest
        _echo(f"run      : {run.run_id}")
        _echo(f"kind     : {run.kind}")
        _echo(f"label    : {run.label}")
        _echo(f"status   : {run.status}")
        _echo(f"created  : {manifest.get('created_utc', '?')}")
        git_sha = (manifest.get("fingerprint") or {}).get("git_sha")
        if git_sha:
            _echo(f"git      : {git_sha}")
        config = manifest.get("config") or {}
        if config:
            _echo("config   : "
                  + json.dumps(config, sort_keys=True, default=str))
        for key, value in sorted(run.metrics.items()):
            _echo(f"  {key:20s} {value:12.6g}")
        trace = read_run_trace(run.path)
        if trace is not None:
            for phase, series in sorted(
                    obs.export.convergence_series(trace).items()):
                _echo(f"phase    : {phase} "
                      f"({len(series['iterations'])} iterations)")
        for entry in sorted(run.path.iterdir()):
            _echo(f"file     : {entry.name} "
                  f"({entry.stat().st_size} B)")
        return 0
    if args.runs_command == "doctor":
        from .obs import diagnose

        run = registry.resolve(args.run)
        _echo(f"run      : {run.run_id}")
        diagnosis = _run_diagnosis(run)
        if diagnosis is None:
            _echo("verdict  : insufficient-data "
                  "(no convergence records)")
            return 0
        _echo_diagnosis(diagnosis)
        return 0 if diagnosis.verdict in diagnose.HEALTHY_VERDICTS \
            else 1
    if args.runs_command == "report":
        from .obs.report import render_run_html

        run = registry.resolve(args.run)
        html = render_run_html(run.path, run.manifest)
        out = args.out or str(run.path / "report.html")
        with open(out, "w") as handle:
            handle.write(html)
        _echo(f"report   : {out}")
        return 0
    if args.runs_command == "compare":
        base = registry.resolve(args.base)
        head = registry.resolve(args.head)
        _echo(f"BASE {base.run_id} ({base.kind}: {base.label})")
        _echo(f"HEAD {head.run_id} ({head.kind}: {head.label})")
        keys = sorted(set(base.metrics) & set(head.metrics))
        if not keys and not args.health:
            _echo("(no shared metric summary keys to compare)")
            return 0
        if keys:
            _echo(f"{'metric':20s} {'base':>12s} {'head':>12s} "
                  f"{'delta':>8s}")
            for key in keys:
                a, b = base.metrics[key], head.metrics[key]
                delta = (f"{100.0 * (b - a) / abs(a):+.1f}%"
                         if a else "n/a")
                _echo(f"{key:20s} {a:>12.5g} {b:>12.5g} {delta:>8s}")
        if args.health:
            diag_a = _run_diagnosis(base)
            diag_b = _run_diagnosis(head)
            verdict_a = diag_a.verdict if diag_a else "(none)"
            verdict_b = diag_b.verdict if diag_b else "(none)"
            marker = "" if verdict_a == verdict_b else "  *"
            _echo(f"{'health':20s} {verdict_a:>17s} "
                  f"{verdict_b:>17s}{marker}")
            phases = sorted(
                set(diag_a.phases if diag_a else {})
                | set(diag_b.phases if diag_b else {})
            )
            for name in phases:
                pa = diag_a.phases.get(name) if diag_a else None
                pb = diag_b.phases.get(name) if diag_b else None
                va = pa.verdict if pa else "(none)"
                vb = pb.verdict if pb else "(none)"
                marker = "" if va == vb else "  *"
                _echo(f"  {name:18s} {va:>17s} {vb:>17s}{marker}")
        return 0
    if args.runs_command == "gc":
        victims = registry.gc(keep=args.keep, dry_run=args.dry_run)
        verb = "would delete" if args.dry_run else "deleted"
        for run in victims:
            _echo(f"{verb}: {run.run_id}")
        _echo(f"{verb} {len(victims)} run(s), keeping newest "
              f"{args.keep}")
        return 0
    raise AssertionError(f"unhandled runs command {args.runs_command}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Analog placement study reproduction (DATE 2022)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise repro.* log level (-v INFO, -vv DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the paper's testcases")

    p_place = sub.add_parser("place", help="place one testcase")
    p_place.add_argument("circuit", nargs="?",
                         help=f"testcase ({', '.join(PAPER_TESTCASES)})")
    p_place.add_argument("--circuit", dest="circuit_opt",
                         help="testcase (alternative to the positional)")
    p_place.add_argument("--method", choices=METHODS,
                         default="eplace-a",
                         help="placement engine (default: eplace-a)")
    p_place.add_argument("--sa-iterations", type=int, default=20000,
                         help="annealing move budget "
                              "(--method annealing only)")
    p_place.add_argument("--seed", type=int, default=3,
                         help="annealing RNG seed "
                              "(ignored when --seeds is given)")
    p_place.add_argument(
        "--seeds", metavar="S1,S2,...",
        help="run once per seed (process-parallel with --jobs), "
             "print a per-seed summary and keep the best-HPWL result",
    )
    p_place.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for --seeds fan-out (0 = all cores)",
    )
    p_place.add_argument("--out", help="save layout JSON here")
    p_place.add_argument("--svg", help="save layout SVG here")
    p_place.add_argument("--trace-out", metavar="FILE.jsonl",
                         help="write the span/convergence trace as JSONL")
    p_place.add_argument(
        "--metrics-out", metavar="FILE.json",
        help="write quality metrics plus the repro.obs metrics "
             "registry snapshot as JSON (works without --trace-out)",
    )
    p_place.add_argument("--profile", action="store_true",
                         help="print a per-phase time table")
    p_place.add_argument(
        "--save-run", action="store_true",
        help="record this invocation in the run registry "
             "($REPRO_RUNS_DIR or ./runs; inspect with 'repro runs')",
    )

    p_sim = sub.add_parser("simulate",
                           help="simulate a layout's performance")
    p_sim.add_argument("circuit",
                       help=f"testcase ({', '.join(PAPER_TESTCASES)})")
    p_sim.add_argument("--layout", help="layout JSON (else place fresh)")
    p_sim.add_argument("--method", choices=METHODS, default="eplace-a",
                       help="engine used when placing fresh "
                            "(default: eplace-a)")

    p_table = sub.add_parser("table",
                             help="regenerate a paper table/figure")
    p_table.add_argument(
        "name",
        help="experiment driver: table1, fig2, table3, table4, fig5, "
             "table5 or table7 (table5/table7 train the per-design "
             "GNN models first — budget minutes, or use --quick)",
    )
    p_table.add_argument("--quick", action="store_true",
                         help="reduced budgets (same as REPRO_QUICK=1)")
    p_table.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for per-circuit fan-out "
             "(table3/table5/table7; 0 = all cores)",
    )
    p_table.add_argument(
        "--save-run", action="store_true",
        help="record the rendered table in the run registry",
    )

    p_runs = sub.add_parser(
        "runs", help="inspect the persistent run registry"
    )
    p_runs.add_argument(
        "--root", default=None,
        help="registry root (default: $REPRO_RUNS_DIR or ./runs)",
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command",
                                     required=True)
    runs_sub.add_parser("list",
                        help="list recorded runs, oldest first")
    p_show = runs_sub.add_parser(
        "show", help="print one run's manifest and artifacts"
    )
    p_show.add_argument(
        "run", help="run id, unique prefix, or 'latest'"
    )
    p_rcmp = runs_sub.add_parser(
        "compare", help="diff two runs' metric summaries"
    )
    p_rcmp.add_argument("base",
                        help="baseline run id/prefix/'latest'")
    p_rcmp.add_argument("head",
                        help="candidate run id/prefix/'latest'")
    p_rcmp.add_argument(
        "--health", action="store_true",
        help="also diff the convergence-health verdicts per phase",
    )
    p_doc = runs_sub.add_parser(
        "doctor",
        help="print a run's convergence-health diagnosis "
             "(exit 1 when unhealthy)",
    )
    p_doc.add_argument(
        "run", help="run id, unique prefix, or 'latest'"
    )
    p_rep = runs_sub.add_parser(
        "report",
        help="render one run as a self-contained HTML report",
    )
    p_rep.add_argument(
        "run", help="run id, unique prefix, or 'latest'"
    )
    p_rep.add_argument(
        "--out", default=None,
        help="output path (default: <run dir>/report.html)",
    )
    p_gc = runs_sub.add_parser(
        "gc", help="delete all but the newest runs"
    )
    p_gc.add_argument("--keep", type=int, default=20,
                      help="runs to keep (default: 20)")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report deletions without touching disk")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    obs.configure_logging(args.verbose)
    handlers = {
        "list": _cmd_list,
        "place": _cmd_place,
        "simulate": _cmd_simulate,
        "table": _cmd_table,
        "runs": _cmd_runs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
