"""Self-contained HTML run reports from run-registry directories.

``repro runs report <run>`` renders one run directory into a single
HTML file with **no external assets** — inline CSS, unicode sparklines
instead of scripted charts — so the artifact can be archived next to
the run, attached to CI, or mailed around and still render anywhere.

Sections, each sourced from one registry artifact:

* header — manifest identity (kind, label, status, config, git sha);
* diagnosis — the per-phase health verdicts with their evidence
  (:mod:`repro.obs.diagnose`);
* metrics — the numeric summary from ``metrics.json``;
* convergence — per-phase sparklines over every recorded series in
  ``trace.jsonl`` (health series included, under their
  ``<phase>.health`` names);
* phases — the span time table from ``trace.jsonl``.

Artifacts a run never wrote are skipped, so older ``repro.run/1``
directories render too.  :func:`sparkline` lives here (shared with the
bench reports, which re-export it).
"""

from __future__ import annotations

import html as _html
import json
import math
from pathlib import Path
from typing import Any, Iterator

from .diagnose import Diagnosis
from .export import convergence_series
from .registry import read_run_trace
from .trace import Trace

#: eight-level unicode bars, low to high
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: sample cap per run-report sparkline: longer series are subsampled
SPARK_POINTS = 60


def sparkline(values: "list[float]") -> str:
    """Render a numeric series as a fixed-height unicode sparkline.

    Non-finite samples render as spaces; a flat series renders high.
    The single shared implementation — :mod:`repro.bench.report`
    re-exports it for the bench artifacts.
    """
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return ""
    lo, hi = min(finite), max(finite)
    span = hi - lo
    top = len(SPARK_CHARS) - 1
    chars = []
    for value in values:
        if not math.isfinite(value):
            chars.append(" ")
            continue
        level = top if span <= 0 else int(
            round((value - lo) / span * top)
        )
        chars.append(SPARK_CHARS[level])
    return "".join(chars)


def _subsample(values: "list[float]") -> "list[float]":
    """Cap a series at :data:`SPARK_POINTS` evenly spaced samples."""
    if len(values) <= SPARK_POINTS:
        return values
    stride = len(values) / SPARK_POINTS
    return [values[int(i * stride)] for i in range(SPARK_POINTS)]


# ---------------------------------------------------------------------------
# artifact loading (every loader tolerates a missing file)


def _load_json(path: Path) -> "dict[str, Any] | None":
    if not path.is_file():
        return None
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


# ---------------------------------------------------------------------------
# HTML rendering

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif;
       margin: 2em auto; max-width: 60em; color: #222; }
h1 { font-size: 1.4em; border-bottom: 2px solid #444; }
h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em;
         text-align: left; font-size: 0.9em; }
th { background: #eee; }
code, .spark { font-family: 'DejaVu Sans Mono', monospace; }
.spark { font-size: 1.0em; letter-spacing: -1px; }
.verdict-converged { color: #0a7a0a; font-weight: bold; }
.verdict-insufficient-data { color: #666; }
.verdict-stalled, .verdict-oscillating { color: #b57600;
                                         font-weight: bold; }
.verdict-diverging, .verdict-non-finite, .verdict-step-collapse {
  color: #b00020; font-weight: bold; }
.meta { color: #555; font-size: 0.85em; }
"""


def _esc(value: object) -> str:
    return _html.escape(str(value))


def _verdict_cell(verdict: str) -> str:
    cls = "verdict-" + verdict.replace(" ", "-")
    return f'<span class="{_esc(cls)}">{_esc(verdict)}</span>'


def _table(headers: "list[str]", rows: "list[list[str]]") -> str:
    """Assemble one HTML table from pre-escaped cell strings."""
    parts = ["<table><tr>"]
    parts.extend(f"<th>{_esc(h)}</th>" for h in headers)
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        parts.extend(f"<td>{cell}</td>" for cell in row)
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _header_section(manifest: "dict[str, Any]") -> Iterator[str]:
    yield f"<h1>run {_esc(manifest.get('run_id', '?'))}</h1>"
    rows = []
    for key in ("kind", "label", "status", "created_utc", "schema"):
        if key in manifest:
            rows.append([_esc(key), _esc(manifest[key])])
    git_sha = (manifest.get("fingerprint") or {}).get("git_sha")
    if git_sha:
        rows.append(["git", _esc(git_sha)])
    config = manifest.get("config") or {}
    if config:
        rows.append(["config", "<code>" + _esc(json.dumps(
            config, sort_keys=True, default=str)) + "</code>"])
    yield _table(["field", "value"], rows)


def _diagnosis_section(
    doc: "dict[str, Any] | None",
) -> Iterator[str]:
    yield "<h2>Diagnosis</h2>"
    if not doc:
        yield '<p class="meta">no diagnosis recorded</p>'
        return
    diagnosis = Diagnosis.from_dict(doc)
    yield (f"<p>overall verdict: "
           f"{_verdict_cell(diagnosis.verdict)}</p>")
    rows = []
    for name in sorted(diagnosis.phases):
        phase = diagnosis.phases[name]
        fired = sorted(
            check for check, hit in phase.checks.items() if hit
        )
        evidence = "; ".join(
            f"{check}: " + ", ".join(
                f"{k}={_fmt(v)}"
                for k, v in sorted(phase.evidence[check].items())
            )
            for check in fired if check in phase.evidence
        )
        rows.append([
            _esc(name),
            _verdict_cell(phase.verdict),
            _esc(phase.metric or "–"),
            _esc(phase.points),
            _esc(evidence or "–"),
        ])
    yield _table(
        ["phase", "verdict", "metric", "points", "evidence"], rows,
    )


def _metrics_section(
    metrics: "dict[str, Any] | None",
) -> Iterator[str]:
    if not metrics:
        return
    rows = [
        [_esc(key), _esc(_fmt(value))]
        for key, value in sorted(metrics.items())
        if isinstance(value, (int, float))
    ]
    if not rows:
        return
    yield "<h2>Metrics</h2>"
    yield _table(["metric", "value"], rows)


def _convergence_section(trace: "Trace | None") -> Iterator[str]:
    phases = convergence_series(trace) if trace is not None else {}
    if not phases:
        return
    yield "<h2>Convergence &amp; health</h2>"
    rows = []
    for phase in sorted(phases):
        series = phases[phase]
        count = len(series.get("iterations", []))
        for key in sorted(series.get("values", {})):
            values = [
                v for v in series["values"][key]
                if isinstance(v, (int, float))
            ]
            if not values:
                continue
            rows.append([
                _esc(phase),
                _esc(key),
                _esc(count),
                _esc(_fmt(values[-1])),
                '<span class="spark">'
                f"{_esc(sparkline(_subsample(values)))}</span>",
            ])
    yield _table(
        ["phase", "series", "points", "last", "trend"], rows,
    )


def _phase_time_section(trace: "Trace | None") -> Iterator[str]:
    if trace is None:
        return
    times = trace.phase_times()
    if not times:
        return
    yield "<h2>Phase times</h2>"
    rows = [
        [
            _esc(name),
            _esc(int(agg["calls"])),
            _esc(f"{agg['total_s']:.4f}"),
            _esc(f"{agg['self_s']:.4f}"),
        ]
        for name, agg in sorted(times.items())
    ]
    yield _table(["phase", "calls", "total s", "self s"], rows)


def render_run_html(
    path: "Path | str", manifest: "dict[str, Any] | None" = None,
) -> str:
    """Render one run directory as a self-contained HTML document."""
    path = Path(path)
    if manifest is None:
        manifest = _load_json(path / "manifest.json") or {}
    if "run_id" not in manifest:
        manifest = dict(manifest)
        manifest.setdefault("run_id", path.name)
    parts: "list[str]" = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>repro run {_esc(manifest.get('run_id'))}</title>",
        f"<style>{_CSS}</style></head><body>",
    ]
    parts.extend(_header_section(manifest))
    parts.extend(_diagnosis_section(manifest.get("diagnosis")))
    parts.extend(
        _metrics_section(_load_json(path / "metrics.json")
                         or manifest.get("metrics"))
    )
    trace = read_run_trace(path)
    parts.extend(_convergence_section(trace))
    parts.extend(_phase_time_section(trace))
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
