"""Unit tests for the service wire protocol.

Everything here is socket-free: request parsing and the fingerprint
that keys the dedupe index.
"""

from __future__ import annotations

import pytest

from repro.service import (
    ProtocolError,
    build_place_kwargs,
    engine_params_doc,
    fingerprint_request,
    parse_job_request,
    resolve_circuit,
)

# ---------------------------------------------------------------------------
# request parsing


def test_parse_minimal_request_defaults():
    req = parse_job_request({"circuit": "comp1"})
    assert req.circuit == "Comp1"
    assert req.method == "eplace-a"
    assert req.seed == 1
    assert req.params == {}
    assert req.timeout_s is None


def test_parse_full_request():
    req = parse_job_request({
        "circuit": "CM-OTA1", "method": "annealing", "seed": 7,
        "params": {"iterations": 500}, "timeout_s": 2.5,
    })
    assert req.circuit == "CM-OTA1"
    assert req.method == "annealing"
    assert req.seed == 7
    assert req.params == {"iterations": 500}
    assert req.timeout_s == 2.5


@pytest.mark.parametrize("doc,fragment", [
    ("not an object", "JSON object"),
    ({}, "circuit"),
    ({"circuit": "nope"}, "unknown circuit"),
    ({"circuit": "comp1", "method": "magic"}, "unknown method"),
    ({"circuit": "comp1", "seed": "one"}, "seed"),
    ({"circuit": "comp1", "seed": True}, "seed"),
    ({"circuit": "comp1", "bogus": 1}, "unknown request field"),
    ({"circuit": "comp1", "params": [1]}, "params"),
    ({"circuit": "comp1", "params": {"seed": 2}}, "params.seed"),
    ({"circuit": "comp1", "params": {"x": [1]}}, "params.x"),
    ({"circuit": "comp1", "timeout_s": "fast"}, "timeout_s"),
    ({"circuit": "comp1", "timeout_s": -1}, "positive"),
    ({"circuit": "comp1", "timeout_s": float("nan")}, "finite"),
    ({"circuit": "comp1", "timeout_s": float("inf")}, "finite"),
])
def test_parse_rejects_malformed(doc, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        parse_job_request(doc)


def test_circuit_aliases_resolve_like_the_cli():
    assert resolve_circuit("cmota1") == "CM-OTA1"
    assert resolve_circuit("CC_OTA") == "CC-OTA"
    with pytest.raises(ProtocolError):
        resolve_circuit("not-a-circuit")


def test_build_place_kwargs_rejects_unknown_engine_param():
    req = parse_job_request(
        {"circuit": "comp1", "params": {"warp_factor": 9}}
    )
    with pytest.raises(ProtocolError, match="unknown engine param"):
        build_place_kwargs(req)


def test_build_place_kwargs_seeds_like_the_api():
    req = parse_job_request(
        {"circuit": "comp1", "method": "annealing", "seed": 11}
    )
    kwargs = build_place_kwargs(req)
    assert kwargs["params"].seed == 11
    req = parse_job_request({"circuit": "comp1", "seed": 4})
    assert build_place_kwargs(req)["gp_params"].seed == 4


# ---------------------------------------------------------------------------
# fingerprints


def _fp(doc):
    return fingerprint_request(parse_job_request(doc))


def test_fingerprint_is_stable_across_aliases_and_defaults():
    base = _fp({"circuit": "comp1", "method": "eplace-a", "seed": 3})
    # alias spelling of the same circuit
    assert _fp({"circuit": "Comp1", "seed": 3}) == base
    # spelling out a default param value changes nothing
    assert _fp({
        "circuit": "comp1", "seed": 3,
        "params": {"utilization": 0.8},
    }) == base
    # timeout_s changes when a job is killed, not what it computes
    assert _fp({
        "circuit": "comp1", "seed": 3, "timeout_s": 60,
    }) == base


def test_fingerprint_separates_distinct_computations():
    base = _fp({"circuit": "comp1", "seed": 3})
    assert _fp({"circuit": "comp1", "seed": 4}) != base
    assert _fp({"circuit": "comp2", "seed": 3}) != base
    assert _fp({
        "circuit": "comp1", "seed": 3, "method": "xu-ispd19",
    }) != base
    assert _fp({
        "circuit": "comp1", "seed": 3,
        "params": {"utilization": 0.7},
    }) != base


def test_engine_params_doc_folds_in_seed_and_defaults():
    doc = engine_params_doc(
        parse_job_request({"circuit": "comp1", "seed": 9})
    )
    assert doc["seed"] == 9
    assert doc["utilization"] == 0.8
