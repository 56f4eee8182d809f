"""End-to-end service tests over a real socket.

Each test boots a :class:`repro.service.PlacementService` plus its
``ThreadingHTTPServer`` on an ephemeral port, with the run registry
rooted in a temp directory, and drives it with ``urllib`` exactly as
an external client would.  The contracts pinned here are the service's
reason to exist:

* an HTTP job is **bit-identical** to a direct :func:`repro.api.place`
  call with the same request;
* duplicate submissions — in flight or after completion — coalesce
  to **one** execution and one registry run, until the record is
  evicted or the job fails or is cancelled;
* a full queue refuses with 503 + ``Retry-After``;
* cancellation lands mid-run through the fork bridge's cancel token;
* the NDJSON event stream round-trips through
  :func:`repro.obs.live.event_from_record` into the same canonical
  sequence an in-process run publishes.
"""

from __future__ import annotations

import json
import sys
import time
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.api import _reseed_kwargs, place
from repro.circuits import make
from repro.obs import live
from repro.obs.registry import RunRegistry
from repro.placement.io import placement_to_dict
from repro.service import PlacementService, ServiceConfig, app, make_server

#: request params that keep an xu-ispd19 run under a second
_FAST_XU = {"stages": 2, "cg_iterations": 20}

#: an annealing budget big enough to still be running when the test
#: cancels it, small enough to finish quickly if cancellation fails
_SLOW_SA = {"iterations": 200000}


@contextmanager
def service_server(tmp_path, **overrides):
    """A running service + HTTP server on an ephemeral port."""
    config = ServiceConfig(
        port=0,
        workers=overrides.pop("workers", 1),
        runs_root=str(tmp_path / "runs"),
        **overrides,
    )
    service, server = make_server(config)
    service.start()
    thread = threading.Thread(
        target=server.serve_forever, daemon=True
    )
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, service
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def request(method, url, body=None):
    """(status, json document, headers) for one HTTP exchange."""
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(
                resp.headers
            )
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


def wait_for(base, job_id, states, timeout_s=90.0):
    """Poll a job until its state is in ``states``; returns the doc."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _, doc, _ = request("GET", f"{base}/jobs/{job_id}")
        if doc.get("state") in states:
            return doc
        time.sleep(0.1)
    raise AssertionError(
        f"job {job_id} never reached {states}; last doc: {doc}"
    )


def run_ids(tmp_path):
    return [run.run_id
            for run in RunRegistry(tmp_path / "runs").list_runs()]


# ---------------------------------------------------------------------------
# the headline contract: HTTP == direct API call, bit for bit


def test_job_is_bit_identical_to_direct_place(tmp_path):
    with service_server(tmp_path) as (base, _service):
        status, doc, headers = request("POST", f"{base}/jobs", {
            "circuit": "comp1", "method": "xu-ispd19", "seed": 5,
            "params": _FAST_XU,
        })
        assert status == 202
        assert headers["Location"] == f"/jobs/{doc['id']}"
        assert doc["state"] in ("queued", "running")
        done = wait_for(base, doc["id"], ("done", "failed"))
        assert done["state"] == "done"

        kwargs = _reseed_kwargs("xu-ispd19", {}, 5)
        kwargs["gp_params"] = replace(kwargs["gp_params"], **_FAST_XU)
        direct = place(make("Comp1"), "xu-ispd19", **kwargs)
        assert done["result"]["placement"] == \
            placement_to_dict(direct.placement)
        assert done["result"]["metrics"]["hpwl"] == pytest.approx(
            direct.metrics()["hpwl"]
        )

        # the execution was finalized into the run registry
        assert done["run_id"] in run_ids(tmp_path)
        _, stats, _ = request("GET", f"{base}/stats")
        assert stats["completed"] == 1


def test_duplicate_submissions_share_one_execution(tmp_path):
    with service_server(tmp_path) as (base, _service):
        body = {"circuit": "comp1", "method": "xu-ispd19", "seed": 6,
                "params": _FAST_XU}
        status1, doc1, _ = request("POST", f"{base}/jobs", body)
        status2, doc2, _ = request("POST", f"{base}/jobs", body)
        assert status1 == 202
        # the duplicate coalesced onto the in-flight job...
        assert status2 == 200
        assert doc2["id"] == doc1["id"]
        assert doc2["deduped"] is True
        done = wait_for(base, doc1["id"], ("done", "failed"))
        assert done["state"] == "done"
        # ...so exactly one execution reached the registry
        assert len(run_ids(tmp_path)) == 1

        # a post-completion repeat answers with the same done job:
        # same id, same result, and still only one registry run
        status3, doc3, _ = request("POST", f"{base}/jobs", body)
        assert status3 == 200
        assert doc3["deduped"] is True
        assert doc3["id"] == doc1["id"]
        assert doc3["result"] == done["result"]
        assert doc3["coalesced"] == 2
        assert len(run_ids(tmp_path)) == 1
        _, stats, _ = request("GET", f"{base}/stats")
        assert stats["submitted"] == 1
        assert stats["coalesced"] == 2


def test_evicted_job_reexecutes_on_resubmit(tmp_path):
    with service_server(tmp_path) as (base, service):
        body = {"circuit": "comp1", "method": "xu-ispd19", "seed": 10,
                "params": _FAST_XU}
        _, doc1, _ = request("POST", f"{base}/jobs", body)
        wait_for(base, doc1["id"], ("done",))
        status, gone, _ = request("DELETE", f"{base}/jobs/{doc1['id']}")
        assert (status, gone["state"]) == (200, "evicted")
        assert doc1["fingerprint"] not in service._by_fingerprint

        status2, doc2, _ = request("POST", f"{base}/jobs", body)
        assert status2 == 202
        assert doc2["id"] != doc1["id"]
        assert "deduped" not in doc2
        wait_for(base, doc2["id"], ("done",))
        assert len(run_ids(tmp_path)) == 2


def test_retention_trimmed_job_reexecutes(tmp_path, monkeypatch):
    monkeypatch.setattr(app, "RETAIN_JOBS", 1)
    with service_server(tmp_path) as (base, service):
        first = {"circuit": "comp1", "method": "xu-ispd19", "seed": 12,
                 "params": _FAST_XU}
        second = dict(first, seed=13)
        _, doc1, _ = request("POST", f"{base}/jobs", first)
        wait_for(base, doc1["id"], ("done",))
        _, doc2, _ = request("POST", f"{base}/jobs", second)
        wait_for(base, doc2["id"], ("done",))
        # keeping one record trimmed the first job out of the index
        assert request("GET", f"{base}/jobs/{doc1['id']}")[0] == 410
        assert set(service._by_fingerprint) == {doc2["fingerprint"]}

        status3, doc3, _ = request("POST", f"{base}/jobs", first)
        assert status3 == 202
        assert doc3["id"] not in (doc1["id"], doc2["id"])
        wait_for(base, doc3["id"], ("done",))
        assert len(run_ids(tmp_path)) == 3
        _, stats, _ = request("GET", f"{base}/stats")
        assert stats["evicted"] == 2
        assert stats["coalesced"] == 0


def test_concurrent_duplicates_coalesce_onto_one_job(tmp_path):
    # socket-free and never started: the race is inside submit() alone
    service = PlacementService(ServiceConfig(
        runs_root=str(tmp_path / "runs"), queue_depth=64,
    ))
    body = {"circuit": "comp1", "method": "xu-ispd19", "seed": 14,
            "params": _FAST_XU}
    results = []
    threads = [
        threading.Thread(
            target=lambda: results.append(service.submit(dict(body)))
        )
        for _ in range(16)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(status for status, _, _ in results) == \
        [200] * 15 + [202]
    job_ids = {doc["id"] for _, doc, _ in results}
    assert len(job_ids) == 1
    assert service.stats["coalesced"] == 15
    assert service.get_job(job_ids.pop()).coalesced == 15


def test_crashed_job_fails_and_leaves_the_index(tmp_path, monkeypatch):
    body = {"circuit": "comp1", "method": "xu-ispd19", "seed": 15,
            "params": _FAST_XU}
    with service_server(tmp_path) as (base, service):
        def broken_create(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(service.registry, "create", broken_create)
        _, doc, _ = request("POST", f"{base}/jobs", body)
        final = wait_for(base, doc["id"], ("failed", "done"))
        assert final["state"] == "failed"
        assert "no space left" in final["error"]
        assert doc["fingerprint"] not in service._by_fingerprint

        # the worker survived and the repeat executes afresh
        monkeypatch.undo()
        status, doc2, _ = request("POST", f"{base}/jobs", body)
        assert status == 202
        assert wait_for(base, doc2["id"], ("done",))["state"] == "done"


# ---------------------------------------------------------------------------
# backpressure


def test_full_queue_gets_503(tmp_path):
    with service_server(
        tmp_path, workers=1, queue_depth=1
    ) as (base, _service):
        def submit(seed):
            return request("POST", f"{base}/jobs", {
                "circuit": "comp1", "method": "annealing",
                "seed": seed, "params": _SLOW_SA,
            })

        status1, doc1, _ = submit(1)
        assert status1 == 202
        wait_for(base, doc1["id"], ("running",), timeout_s=30.0)
        status2, doc2, _ = submit(2)     # fills the queue
        assert status2 == 202
        status3, doc3, headers = submit(3)
        assert status3 == 503
        assert "full" in doc3["error"]
        assert int(headers["Retry-After"]) >= 1
        # cancel the backlog so teardown is quick
        for doc in (doc2, doc1):
            request("DELETE", f"{base}/jobs/{doc['id']}")
        wait_for(base, doc1["id"],
                 ("cancelled", "done", "failed"))


# ---------------------------------------------------------------------------
# cancellation and timeouts


def test_cancel_lands_mid_run(tmp_path):
    with service_server(tmp_path) as (base, service):
        _, doc, _ = request("POST", f"{base}/jobs", {
            "circuit": "comp1", "method": "annealing", "seed": 2,
            "params": _SLOW_SA,
        })
        wait_for(base, doc["id"], ("running",), timeout_s=30.0)
        status, cancelled, _ = request(
            "DELETE", f"{base}/jobs/{doc['id']}"
        )
        assert status == 200
        assert cancelled["id"] == doc["id"]
        final = wait_for(base, doc["id"], ("cancelled", "done"))
        assert final["state"] == "cancelled"
        # a cancelled job leaves the dedupe index
        assert doc["fingerprint"] not in service._by_fingerprint
        # the interrupted run still reached the registry, finalized
        registry = RunRegistry(tmp_path / "runs")
        run = registry.list_runs()[-1]
        assert run.manifest["status"] == "cancelled"


def test_per_job_timeout_fails_the_job(tmp_path):
    with service_server(tmp_path) as (base, service):
        _, doc, _ = request("POST", f"{base}/jobs", {
            "circuit": "comp1", "method": "annealing", "seed": 3,
            "params": _SLOW_SA, "timeout_s": 0.5,
        })
        final = wait_for(base, doc["id"],
                         ("failed", "done", "cancelled"))
        assert final["state"] == "failed"
        assert "timed out" in final["error"]
        # a failed job leaves the dedupe index
        assert doc["fingerprint"] not in service._by_fingerprint
        _, stats, _ = request("GET", f"{base}/stats")
        assert stats["timeouts"] == 1


def test_cancel_while_queued_never_executes(tmp_path):
    with service_server(
        tmp_path, workers=1, queue_depth=4
    ) as (base, service):
        _, blocker, _ = request("POST", f"{base}/jobs", {
            "circuit": "comp1", "method": "annealing", "seed": 4,
            "params": _SLOW_SA,
        })
        wait_for(base, blocker["id"], ("running",), timeout_s=30.0)
        _, queued, _ = request("POST", f"{base}/jobs", {
            "circuit": "comp1", "method": "xu-ispd19", "seed": 7,
            "params": _FAST_XU,
        })
        assert queued["state"] == "queued"
        status, doc, _ = request(
            "DELETE", f"{base}/jobs/{queued['id']}"
        )
        assert status == 200
        assert doc["state"] == "cancelled"
        assert "run_id" not in doc  # never reached a worker
        assert queued["fingerprint"] not in service._by_fingerprint
        request("DELETE", f"{base}/jobs/{blocker['id']}")
        wait_for(base, blocker["id"], ("cancelled", "done"))


# ---------------------------------------------------------------------------
# event streaming


def _normalize(events):
    """Strip bridge artifacts: task-marker phases and source stamps."""
    out = []
    for event in events:
        if isinstance(event, live.PhaseEvent) and \
                event.phase == "task":
            continue
        out.append(replace(event, source=None))
    return out


def test_ndjson_stream_round_trips_the_live_run(tmp_path):
    body = {"circuit": "comp1", "method": "xu-ispd19", "seed": 8,
            "params": _FAST_XU}
    with service_server(tmp_path) as (base, _service):
        _, doc, _ = request("POST", f"{base}/jobs", body)
        done = wait_for(base, doc["id"], ("done", "failed"))
        assert done["state"] == "done"
        req = urllib.request.Request(
            f"{base}/jobs/{doc['id']}/events"
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.headers["Content-Type"] == \
                "application/x-ndjson"
            lines = resp.read().decode().splitlines()
        streamed = [live.event_from_record(json.loads(line))
                    for line in lines]
        assert len(streamed) == done["events"]

    # the same computation run in-process, on a local bus
    sub = live.CollectingSubscriber()
    bus = live.EventBus()
    bus.subscribe(sub)
    kwargs = _reseed_kwargs("xu-ispd19", {}, 8)
    kwargs["gp_params"] = replace(kwargs["gp_params"], **_FAST_XU)
    with live.session(bus):
        place(make("Comp1"), "xu-ispd19", **kwargs)

    assert _normalize(streamed) == _normalize(sub.canonical())


def test_event_stream_for_unknown_job_is_404(tmp_path):
    with service_server(tmp_path) as (base, _service):
        status, _, _ = request(
            "GET", f"{base}/jobs/nope/events"
        )
        assert status == 404


# ---------------------------------------------------------------------------
# record lifecycle and error surfaces


def test_malformed_submissions_get_400(tmp_path):
    with service_server(tmp_path) as (base, _service):
        status, doc, _ = request("POST", f"{base}/jobs", {
            "circuit": "not-a-circuit",
        })
        assert status == 400
        assert "unknown circuit" in doc["error"]
        status, _, _ = request("POST", f"{base}/jobs", ["array"])
        assert status == 400


def test_unknown_endpoints_and_jobs(tmp_path):
    with service_server(tmp_path) as (base, _service):
        assert request("GET", f"{base}/jobs/nope")[0] == 404
        assert request("GET", f"{base}/bogus")[0] == 404
        assert request("POST", f"{base}/bogus", {})[0] == 404
        assert request("DELETE", f"{base}/bogus")[0] == 404


def test_delete_on_done_job_evicts_to_410(tmp_path):
    with service_server(tmp_path) as (base, _service):
        _, doc, _ = request("POST", f"{base}/jobs", {
            "circuit": "comp1", "method": "xu-ispd19", "seed": 9,
            "params": _FAST_XU,
        })
        wait_for(base, doc["id"], ("done",))
        status, gone, _ = request(
            "DELETE", f"{base}/jobs/{doc['id']}"
        )
        assert status == 200
        assert gone["state"] == "evicted"
        status, doc2, _ = request("GET", f"{base}/jobs/{doc['id']}")
        assert status == 410
        assert doc2["state"] == "evicted"


def test_health_and_stats_endpoints(tmp_path):
    with service_server(tmp_path, workers=2) as (base, _service):
        status, health, _ = request("GET", f"{base}/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["workers"] == 2
        status, stats, _ = request("GET", f"{base}/stats")
        assert status == 200
        assert stats["schema"] == "repro.service.stats/1"
        assert stats["uptime_s"] > 0
        assert stats["config"]["queue_depth"] == 16
