"""Persistent run registry: self-describing run directories on disk.

Every ``place``/``bench``/``table`` invocation can persist what it did
as one run directory under a registry root (``REPRO_RUNS_DIR`` or
``./runs``), so past runs can be listed, inspected and diffed without
re-running anything (``repro runs list|show|compare|gc``).  Layout::

    runs/<run_id>/
        manifest.json      # schema repro.run/2: identity + summary
        trace.jsonl        # repro.obs.export span/convergence trace
        metrics.json       # quality metrics + metrics-registry snapshot
        convergence.json   # per-phase iteration series (plot-ready)

Schema ``repro.run/2`` adds two manifest/metrics keys over ``/1``: the
convergence ``diagnosis`` (:mod:`repro.obs.diagnose`) computed from
the recorded trace, and a resource summary (``peak_rss_kib``,
``mean_cpu``) that :meth:`RunWriter.finalize` reads from
``resource.getrusage``.  Readers never require either key, so ``/1``
directories keep loading, listing and comparing unchanged.  Older run
directories may also hold an ``events.jsonl`` event log; nothing reads
it any more.

``run_id`` is ``<UTC stamp>-<fp8>`` where ``fp8`` is the first 8 hex
chars of a sha256 over the run's identity (kind, label, config) — the
same content-fingerprint idiom as ``repro.gnn.batched.FeatureCache``.
The stamp orders runs chronologically; the fingerprint makes repeats
of the same configuration recognisable at a glance.

The manifest is written twice: once at creation (``status:
"running"``) so crashed runs remain visible and debuggable, and once
by :meth:`RunWriter.finalize` with the final status and metric
summary.  Only the registry writes inside run directories; consumers
treat them as read-only artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .diagnose import diagnose_trace
from .env import fingerprint, iso_timestamp, utc_timestamp
from .export import convergence_series, read_jsonl, write_jsonl
from .log import get_logger
from .trace import Stopwatch, Trace

logger = get_logger("obs.registry")

SCHEMA = "repro.run/2"

#: registry root environment override
ROOT_ENV = "REPRO_RUNS_DIR"

#: default registry root, relative to the working directory
DEFAULT_ROOT = "runs"

MANIFEST = "manifest.json"


class RegistryError(ValueError):
    """Raised on unknown run ids, ambiguous prefixes or bad manifests."""


def _fp8(kind: str, label: str, config: "dict[str, Any]") -> str:
    payload = json.dumps(
        {"kind": kind, "label": label, "config": config},
        sort_keys=True, default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:8]


def _write_json(path: Path, doc: "dict[str, Any]") -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True, default=float)
        handle.write("\n")


@dataclass
class RunInfo:
    """One registry entry: the manifest plus its directory."""

    run_id: str
    path: Path
    manifest: "dict[str, Any]"

    @property
    def kind(self) -> str:
        return str(self.manifest.get("kind", "?"))

    @property
    def label(self) -> str:
        return str(self.manifest.get("label", "?"))

    @property
    def status(self) -> str:
        return str(self.manifest.get("status", "?"))

    @property
    def metrics(self) -> "dict[str, Any]":
        summary = self.manifest.get("metrics")
        return summary if isinstance(summary, dict) else {}


def read_run_trace(path: Path) -> "Trace | None":
    """The ``trace.jsonl`` of run directory ``path``, or ``None`` when
    the run recorded none or it does not parse."""
    trace_path = path / "trace.jsonl"
    if not trace_path.is_file():
        return None
    try:
        return read_jsonl(trace_path)[1]
    except (OSError, ValueError, KeyError):
        return None


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_kib() -> float:
    """Largest resident set of this process or any reaped child, KiB.

    ``ru_maxrss`` is in KiB on Linux; both figures are lifetime peaks.
    """
    return float(max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ))


class RunWriter:
    """Handle for writing one run directory; produced by
    :meth:`RunRegistry.create`."""

    def __init__(self, path: Path, manifest: "dict[str, Any]") -> None:
        self.path = path
        self.run_id = path.name
        self._manifest = manifest
        self._clock = Stopwatch()
        self._cpu_start = _cpu_s()

    # -- artifacts -----------------------------------------------------
    def write_trace(self, trace: Trace, **meta: object) -> int:
        """Persist ``trace`` as ``trace.jsonl`` plus its convergence
        series as plot-ready ``convergence.json``; returns the JSONL
        record count.  Also diagnoses the trace's convergence series
        (:func:`repro.obs.diagnose.diagnose_trace`) into the manifest's
        ``diagnosis`` key (written at :meth:`finalize`)."""
        count = write_jsonl(trace, self.path / "trace.jsonl", **meta)
        if trace.convergence:
            self._manifest["diagnosis"] = \
                diagnose_trace(trace).to_dict()
        _write_json(self.path / "convergence.json", {
            "schema": "repro.run.convergence/1",
            "phases": convergence_series(trace),
        })
        return count

    def write_metrics(self, metrics: "dict[str, Any]") -> None:
        """Persist the quality/summary metrics document."""
        _write_json(self.path / "metrics.json", metrics)
        summary = self._manifest.setdefault("metrics", {})
        for key, value in metrics.items():
            if isinstance(value, (int, float)):
                summary[key] = value

    # -- lifecycle -----------------------------------------------------
    def finalize(
        self,
        status: str = "complete",
        metrics: "dict[str, Any] | None" = None,
    ) -> Path:
        """Write the metrics and the final manifest; returns the run
        directory.

        ``metrics`` gains ``peak_rss_kib`` (the largest resident set of
        this process or any worker it reaped) and ``mean_cpu`` (CPU
        seconds per wall second since the run was created, workers
        included), so ``runs list/show`` surface them.
        """
        metrics = dict(metrics or {})
        metrics["peak_rss_kib"] = _peak_rss_kib()
        elapsed = self._clock.elapsed()
        if elapsed > 0.0:
            metrics["mean_cpu"] = (_cpu_s() - self._cpu_start) / elapsed
        self.write_metrics(metrics)
        self._manifest["status"] = status
        _write_json(self.path / MANIFEST, self._manifest)
        logger.info("run %s finalized (%s)", self.run_id, status)
        return self.path


class RunRegistry:
    """The on-disk registry of past runs under one root directory."""

    def __init__(self, root: "str | os.PathLike[str] | None" = None) \
            -> None:
        if root is None:
            root = os.environ.get(ROOT_ENV) or DEFAULT_ROOT
        self.root = Path(root)

    # -- creation ------------------------------------------------------
    def create(
        self,
        kind: str,
        label: str,
        config: "dict[str, Any] | None" = None,
    ) -> RunWriter:
        """Open a new run directory and write its initial manifest."""
        config = config or {}
        stamp = utc_timestamp()
        run_id = f"{stamp}-{_fp8(kind, label, config)}"
        path = self.root / run_id
        suffix = 0
        while path.exists():  # same second + same config: disambiguate
            suffix += 1
            path = self.root / f"{run_id}.{suffix}"
        path.mkdir(parents=True)
        manifest = {
            "schema": SCHEMA,
            "run_id": path.name,
            "kind": kind,
            "label": label,
            "created_utc": iso_timestamp(),
            "created_unix": time.time(),
            "config": config,
            "fingerprint": fingerprint(),
            "status": "running",
        }
        _write_json(path / MANIFEST, manifest)
        return RunWriter(path, manifest)

    # -- inspection ----------------------------------------------------
    def list_runs(self) -> "list[RunInfo]":
        """All runs with a readable manifest, oldest first."""
        if not self.root.is_dir():
            return []
        runs = []
        for entry in sorted(self.root.iterdir()):
            manifest_path = entry / MANIFEST
            if not manifest_path.is_file():
                continue
            try:
                with open(manifest_path) as handle:
                    manifest = json.load(handle)
            except (OSError, json.JSONDecodeError):
                logger.warning("skipping unreadable manifest under %s",
                               entry)
                continue
            runs.append(RunInfo(entry.name, entry, manifest))
        # the directory stamp only has second resolution; the manifest
        # records sub-second creation time to break same-second ties
        runs.sort(key=lambda run: (
            float(run.manifest.get("created_unix", 0.0)), run.run_id,
        ))
        return runs

    def resolve(self, ref: str) -> RunInfo:
        """Find one run by exact id or unique prefix.

        ``latest`` resolves to the newest run.  Raises
        :class:`RegistryError` on no match or an ambiguous prefix.
        """
        runs = self.list_runs()
        if not runs:
            raise RegistryError(
                f"no runs under {self.root} (record one with "
                "--save-run)"
            )
        if ref == "latest":
            return runs[-1]
        exact = [run for run in runs if run.run_id == ref]
        if exact:
            return exact[0]
        matches = [run for run in runs if run.run_id.startswith(ref)]
        if not matches:
            raise RegistryError(
                f"no run matches {ref!r} under {self.root}"
            )
        if len(matches) > 1:
            names = ", ".join(run.run_id for run in matches[:5])
            raise RegistryError(
                f"run prefix {ref!r} is ambiguous: {names}"
            )
        return matches[0]

    # -- maintenance ---------------------------------------------------
    def gc(self, keep: int = 20, dry_run: bool = False) \
            -> "list[RunInfo]":
        """Delete all but the newest ``keep`` runs; returns deletions.

        ``dry_run`` reports what would be deleted without touching
        disk.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        runs = self.list_runs()
        victims = runs[:max(0, len(runs) - keep)]
        for run in victims:
            if not dry_run:
                shutil.rmtree(run.path)
        return victims
