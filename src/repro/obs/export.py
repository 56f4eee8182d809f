"""Trace serialisation (JSONL) and the ``--profile`` time table.

JSONL schema — one JSON object per line, discriminated by ``type``:

* ``{"type": "meta", ...}`` — header: record counts, drop counters,
  the tracer's wall-clock ``epoch_unix`` (the zero point of every
  span's monotonic ``t0`` offset — the only wall-clock value in the
  file) and any caller-supplied context (method, circuit, runtime_s);
* ``{"type": "span", "name", "t0", "dur_s", "self_s", "depth",
  "parent", "thread", "attrs"}`` — one per completed span;
* ``{"type": "iteration", "phase", "iteration", **values}`` — one per
  convergence record (engine-specific numeric fields, no timestamps);
* ``{"type": "timer", "name", "total_s", "calls"}`` — aggregated
  hot-path timers;
* ``{"type": "counter"|"gauge", "name", "value"}`` — metrics snapshot.

The schema is stable in both directions: :func:`read_jsonl` rebuilds a
:class:`Trace` (plus the caller metadata) from a file produced by
:func:`write_jsonl`, and re-exporting the reloaded trace reproduces
the original records byte-for-byte — the round-trip tests pin this.
"""

from __future__ import annotations

import json
import os
from typing import Iterator

from .trace import IterationRecord, SpanRecord, Trace

#: keys of the meta header computed from the trace itself (everything
#: else in the header is caller-supplied context and round-trips)
_META_COMPUTED = ("type", "spans", "iterations", "dropped_spans",
                  "dropped_records", "epoch_unix")


def convergence_series(trace: Trace) -> "dict[str, dict[str, list]]":
    """Per-phase ``{"iterations": [...], "values": {key: [...]}}``
    series of ``trace``'s iteration records, in record order — the
    plot-ready layout of a run directory's ``convergence.json``."""
    series: "dict[str, dict[str, list]]" = {}
    for record in trace.convergence:
        phase = series.setdefault(
            record.phase, {"iterations": [], "values": {}}
        )
        phase["iterations"].append(record.iteration)
        for key, value in record.values.items():
            phase["values"].setdefault(key, []).append(value)
    return series


def trace_records(trace: Trace, **meta: object) -> Iterator[dict]:
    """Yield the JSONL record dicts for ``trace``.

    ``meta`` keys (e.g. ``method=``, ``runtime_s=``) land in the header
    record so a trace file is self-describing.
    """
    header = {
        "type": "meta",
        "spans": len(trace.spans),
        "iterations": len(trace.convergence),
        "dropped_spans": trace.dropped_spans,
        "dropped_records": trace.dropped_records,
    }
    if trace.epoch_unix is not None:
        # the only wall-clock reading in the file: the zero point of
        # every span's monotonic start offset
        header["epoch_unix"] = trace.epoch_unix
    header.update(meta)
    yield header
    for s in trace.spans:
        rec = {
            "type": "span",
            "name": s.name,
            "t0": s.start,
            "dur_s": s.duration,
            "self_s": s.self_s,
            "depth": s.depth,
            "parent": s.parent,
            "thread": s.thread,
        }
        if s.attrs:
            rec["attrs"] = s.attrs
        yield rec
    for r in trace.convergence:
        rec = {
            "type": "iteration",
            "phase": r.phase,
            "iteration": r.iteration,
        }
        rec.update(r.values)
        yield rec
    for name, agg in trace.timers.items():
        yield {"type": "timer", "name": name, **agg}
    for name, value in trace.counters.items():
        yield {"type": "counter", "name": name, "value": value}
    for name, value in trace.gauges.items():
        yield {"type": "gauge", "name": name, "value": value}


def write_jsonl(trace: Trace, path: "str | os.PathLike[str]",
                **meta: object) -> int:
    """Write ``trace`` to ``path`` as JSONL; returns the record count."""
    count = 0
    with open(path, "w") as handle:
        for rec in trace_records(trace, **meta):
            handle.write(json.dumps(rec, default=float))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(
    path: "str | os.PathLike[str]",
) -> tuple[dict, Trace]:
    """Load a :func:`write_jsonl` file back into ``(meta, Trace)``.

    ``meta`` contains only the caller-supplied header context (method,
    circuit, runtime_s, ...); the computed counts are re-derived from
    the reloaded trace on re-export.  Raises ``ValueError`` on a
    missing/invalid header or an unknown record type, so schema drift
    fails loudly instead of silently dropping data.
    """
    spans: list[SpanRecord] = []
    convergence: list[IterationRecord] = []
    timers: dict[str, dict] = {}
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    header: dict | None = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.get("type")
            if lineno == 1:
                if kind != "meta":
                    raise ValueError(
                        f"{path}: first record must be the meta "
                        f"header, got type={kind!r}"
                    )
                header = rec
                continue
            if kind == "span":
                spans.append(SpanRecord(
                    name=rec["name"],
                    start=rec["t0"],
                    duration=rec["dur_s"],
                    self_s=rec["self_s"],
                    depth=rec["depth"],
                    parent=rec["parent"],
                    thread=rec["thread"],
                    attrs=rec.get("attrs", {}),
                ))
            elif kind == "iteration":
                values = {
                    k: v for k, v in rec.items()
                    if k not in ("type", "phase", "iteration")
                }
                convergence.append(IterationRecord(
                    rec["phase"], rec["iteration"], values
                ))
            elif kind == "timer":
                timers[rec["name"]] = {
                    "total_s": rec["total_s"], "calls": rec["calls"]
                }
            elif kind == "counter":
                counters[rec["name"]] = rec["value"]
            elif kind == "gauge":
                gauges[rec["name"]] = rec["value"]
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown record type {kind!r}"
                )
    if header is None:
        raise ValueError(f"{path}: empty trace file (no meta header)")
    meta = {k: v for k, v in header.items() if k not in _META_COMPUTED}
    reloaded = Trace(
        spans=spans,
        convergence=convergence,
        timers=timers,
        counters=counters,
        gauges=gauges,
        dropped_spans=header.get("dropped_spans", 0),
        dropped_records=header.get("dropped_records", 0),
        epoch_unix=header.get("epoch_unix"),
    )
    return meta, reloaded


def format_profile(trace: Trace, runtime_s: float | None = None) -> str:
    """Render the per-phase time table for ``--profile``.

    The ``self s`` column partitions traced wall-clock time between
    phases (span durations minus child-span time), so its sum equals
    the root spans' total — within measurement slop of the engine's
    reported ``runtime_s``.  Aggregated hot-path timers follow in a
    second section (their time is already counted inside the spans
    that contain them).
    """
    phases = trace.phase_times()
    if not phases:
        return "(empty trace: run with tracing enabled)"
    total = trace.total_span_s()
    denom = total if total > 0 else 1.0
    lines = [
        f"{'phase':<42s} {'calls':>6s} {'total s':>10s} "
        f"{'self s':>10s} {'self %':>7s}"
    ]
    order = sorted(
        phases.items(), key=lambda kv: kv[1]["self_s"], reverse=True
    )
    for name, agg in order:
        lines.append(
            f"{name:<42s} {agg['calls']:>6d} {agg['total_s']:>10.3f} "
            f"{agg['self_s']:>10.3f} {100.0 * agg['self_s'] / denom:>6.1f}%"
        )
    lines.append(
        f"{'total (sum of self)':<42s} {'':>6s} {'':>10s} "
        f"{total:>10.3f} {100.0:>6.1f}%"
    )
    if runtime_s is not None:
        lines.append(
            f"{'reported runtime_s':<42s} {'':>6s} {'':>10s} "
            f"{runtime_s:>10.3f}"
        )
    if trace.timers:
        lines.append("")
        lines.append(
            f"{'hot-path timer (inside spans above)':<42s} "
            f"{'calls':>6s} {'total s':>10s}"
        )
        for name, agg in sorted(
            trace.timers.items(),
            key=lambda kv: kv[1]["total_s"],
            reverse=True,
        ):
            lines.append(
                f"{name:<42s} {agg['calls']:>6d} {agg['total_s']:>10.3f}"
            )
    if trace.dropped_spans or trace.dropped_records:
        lines.append(
            f"(dropped {trace.dropped_spans} spans, "
            f"{trace.dropped_records} iteration records at capacity)"
        )
    return "\n".join(lines)
