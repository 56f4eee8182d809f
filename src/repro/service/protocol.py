"""Wire protocol for the placement service.

Request parsing, the job lifecycle states, and the fingerprint that
keys the service's dedupe index.  Everything here is pure data
plumbing — no sockets, no threads — so the protocol can be
unit-tested without a server.

Identity is a sha256 over what a request computes, never over object
identity or request arrival order.  Two submissions whose circuit,
engine, resolved params and seed all match are by construction the
same computation, so the service answers the second one with the
first one's job.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

from ..api import METHODS, _reseed_kwargs
from ..circuits import PAPER_TESTCASES

#: schema tag stamped on every fingerprinted payload
FINGERPRINT_SCHEMA = "repro.service.fingerprint/2"

#: schema tag for job records returned by the HTTP API
JOB_SCHEMA = "repro.service.job/1"

#: schema tag for returned result documents
RESULT_SCHEMA = "repro.service.result/1"

# -- job lifecycle states --------------------------------------------------
#: waiting in the FIFO queue
QUEUED = "queued"
#: claimed by a worker; the placement is executing in a forked child
RUNNING = "running"
#: finished successfully; the record carries a result document
DONE = "done"
#: the execution raised (or timed out); the record carries an error
FAILED = "failed"
#: cancelled via ``DELETE /jobs/<id>`` before or during execution
CANCELLED = "cancelled"
#: the terminal record itself was dropped (DELETE on a finished job,
#: or the bounded job store trimming old records); ``GET`` returns 410
EVICTED = "evicted"

#: every state a job record can report
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, EVICTED)

#: states after which a job can never run (again)
TERMINAL_STATES = (DONE, FAILED, CANCELLED, EVICTED)


class ProtocolError(ValueError):
    """A request document is malformed; maps to HTTP 400."""


def _normalize_name(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


#: forgiving circuit lookup, mirroring the CLI ("comp1" == "Comp1")
_CIRCUIT_ALIASES = {
    _normalize_name(name): name for name in PAPER_TESTCASES
}


def resolve_circuit(name: str) -> str:
    """Canonical testcase name for ``name``; raises ProtocolError."""
    canonical = _CIRCUIT_ALIASES.get(_normalize_name(str(name)))
    if canonical is None:
        raise ProtocolError(
            f"unknown circuit {name!r}; choose from "
            f"{', '.join(PAPER_TESTCASES)}"
        )
    return canonical


@dataclass(frozen=True)
class JobRequest:
    """One validated placement request.

    ``params`` holds engine-specific overrides applied on top of the
    same defaults :func:`repro.api.place` uses (``SAParams`` fields
    for annealing, ``EPlaceParams``/``XuParams`` fields for the
    analytical flows).  ``timeout_s`` bounds the execution wall time
    and is deliberately *not* part of the fingerprint: it changes when
    a job is killed, never what it computes.
    """

    circuit: str
    method: str
    seed: int
    params: "dict[str, Any]" = field(default_factory=dict)
    timeout_s: "float | None" = None


def parse_job_request(doc: Any) -> JobRequest:
    """Validate a ``POST /jobs`` JSON body into a :class:`JobRequest`.

    Raises :class:`ProtocolError` with a client-facing message on any
    malformed field; never raises anything else on bad input.
    """
    if not isinstance(doc, Mapping):
        raise ProtocolError("request body must be a JSON object")
    unknown = set(doc) - {
        "circuit", "method", "seed", "params", "timeout_s"
    }
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {sorted(unknown)}"
        )
    if "circuit" not in doc:
        raise ProtocolError("missing required field 'circuit'")
    circuit = resolve_circuit(doc["circuit"])
    method = str(doc.get("method", "eplace-a"))
    if method not in METHODS:
        raise ProtocolError(
            f"unknown method {method!r}; choose one of "
            f"{', '.join(METHODS)}"
        )
    seed_raw = doc.get("seed", 1)
    if isinstance(seed_raw, bool) or not isinstance(seed_raw, int):
        raise ProtocolError(f"seed must be an integer, got {seed_raw!r}")
    params_raw = doc.get("params") or {}
    if not isinstance(params_raw, Mapping):
        raise ProtocolError("params must be a JSON object")
    params: "dict[str, Any]" = {}
    for key, value in params_raw.items():
        if key == "seed":
            raise ProtocolError(
                "set the seed via the top-level 'seed' field, "
                "not params.seed"
            )
        if isinstance(value, bool) or not isinstance(
            value, (int, float, str)
        ):
            raise ProtocolError(
                f"params.{key} must be a number or string, "
                f"got {value!r}"
            )
        params[str(key)] = value
    timeout_raw = doc.get("timeout_s")
    timeout_s: "float | None" = None
    if timeout_raw is not None:
        if isinstance(timeout_raw, bool) or not isinstance(
            timeout_raw, (int, float)
        ):
            raise ProtocolError(
                f"timeout_s must be a number, got {timeout_raw!r}"
            )
        timeout_s = float(timeout_raw)
        if not math.isfinite(timeout_s):
            raise ProtocolError(
                f"timeout_s must be finite, got {timeout_raw!r}"
            )
        if timeout_s <= 0:
            raise ProtocolError("timeout_s must be positive")
    return JobRequest(
        circuit=circuit, method=method, seed=int(seed_raw),
        params=params, timeout_s=timeout_s,
    )


def build_place_kwargs(request: JobRequest) -> "dict[str, Any]":
    """Engine kwargs for :func:`repro.api.place`, seeded and overridden.

    Built through :func:`repro.api._reseed_kwargs` — the exact helper
    the multiseed fan-out uses — so a service execution and a direct
    ``place(circuit, method, **kwargs)`` call with the same request
    are the same computation, bit for bit.  Raises
    :class:`ProtocolError` on unknown param fields or values the
    engine's own validation rejects.
    """
    kwargs = _reseed_kwargs(request.method, {}, request.seed)
    if request.params:
        key = "params" if request.method == "annealing" else "gp_params"
        try:
            kwargs[key] = replace(kwargs[key], **request.params)
        except TypeError as exc:
            raise ProtocolError(
                f"unknown engine param for {request.method}: {exc}"
            ) from None
        except ValueError as exc:
            raise ProtocolError(
                f"invalid engine param value: {exc}"
            ) from None
    return kwargs


def engine_params_doc(request: JobRequest) -> "dict[str, Any]":
    """The fully-resolved engine parameter document for ``request``.

    Defaults are made explicit (a request that spells out a default
    value fingerprints identically to one that omits it) and the seed
    is folded in, so this document *is* the params+seed part of the
    job identity.
    """
    kwargs = build_place_kwargs(request)
    key = "params" if request.method == "annealing" else "gp_params"
    return asdict(kwargs[key])


def fingerprint_request(request: JobRequest) -> str:
    """sha256 hex fingerprint of a request's *computation* identity.

    Digests the resolved circuit name, the engine, and the
    fully-resolved engine params including the seed.  Requests can
    only name a deterministic :data:`repro.circuits.PAPER_TESTCASES`
    generator, so inside one server process the name fixes the
    netlist.  ``timeout_s`` is excluded — see :class:`JobRequest`.
    """
    payload = {
        "schema": FINGERPRINT_SCHEMA,
        "circuit": request.circuit,
        "engine": request.method,
        "params": engine_params_doc(request),
    }
    blob = json.dumps(payload, sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()
