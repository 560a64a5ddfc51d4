"""Tests for the mincut service (`repro.service`).

Three layers, matching the package:

* **framing** — the hand-rolled HTTP/1.1 subset: bounds enforced (431
  lines, 413 bodies, 501 chunked), pushback/feed semantics, keep-alive;
* **admission** — the two-budget controller in isolation: shed ordering,
  weights, drain mode, release accounting;
* **end-to-end** — a real server on a real socket via
  :class:`~repro.service.testing.ServiceThread`: solve correctness
  against the direct API, backpressure (429 + ``Retry-After``), deadline
  propagation (504 with request context), client-disconnect cancellation,
  graceful drain under load, and trace-taxonomy validation.

Fault injection reuses the engine's deterministic ``_test_fault`` hooks
(gated behind ``ServiceConfig(allow_test_faults=True)`` — production
configs reject underscore kwargs with a 400, which is itself tested).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.api import minimum_cut
from repro.engine import graph_digest
from repro.generators.gnm import connected_gnm
from repro.graph.io import write_metis
from repro.observability import Tracer
from repro.observability.schema import EVENT_KINDS, validate_trace_events
from repro.runtime.errors import WorkerCrashed, WorkerTimeout
from repro.service import (
    AdmissionController,
    HttpError,
    ServiceClient,
    ServiceConfig,
    classify_failure,
    fire_concurrent,
    graph_from_json,
    graph_payload,
)
from repro.service.http import BufferedStream, encode_response, read_request
from repro.service.testing import ServiceThread

HANG = {"test_fault": "hang", "sleep_seconds": 60}


def _stream(data: bytes) -> BufferedStream:
    """An in-memory stream; call only inside a running event loop."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return BufferedStream(reader)


def _parse(data: bytes, max_body: int | None = None):
    async def run():
        if max_body is None:
            return await read_request(_stream(data))
        return await read_request(_stream(data), max_body=max_body)

    return asyncio.run(run())


# ---------------------------------------------------------------------------
# HTTP framing
# ---------------------------------------------------------------------------


class TestHttpFraming:
    def test_parse_simple_request(self):
        req = _parse(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET" and req.path == "/v1/healthz"
        assert req.headers["host"] == "x"
        assert req.keep_alive is True

    def test_parse_body_and_json(self):
        body = b'{"n": 2}'
        req = _parse(
            b"POST /v1/solve HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body)
        )
        assert req.json() == {"n": 2}

    def test_connection_close_header(self):
        req = _parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert req.keep_alive is False

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_eof_mid_header_is_400(self):
        with pytest.raises(HttpError) as exc_info:
            _parse(b"GET / HTTP/1.1\r\nHost: x")
        assert exc_info.value.status == 400

    def test_malformed_request_line_is_400(self):
        with pytest.raises(HttpError) as exc_info:
            _parse(b"NONSENSE\r\n\r\n")
        assert exc_info.value.status == 400

    def test_oversized_header_line_is_431(self):
        with pytest.raises(HttpError) as exc_info:
            _parse(b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 20000 + b"\r\n\r\n")
        assert exc_info.value.status == 431

    def test_chunked_body_is_501(self):
        with pytest.raises(HttpError) as exc_info:
            _parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert exc_info.value.status == 501

    def test_oversized_body_is_413(self):
        with pytest.raises(HttpError) as exc_info:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n",
                   max_body=10)
        assert exc_info.value.status == 413

    def test_bad_content_length_is_400(self):
        with pytest.raises(HttpError) as exc_info:
            _parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert exc_info.value.status == 400

    def test_pushback_is_seen_before_socket(self):
        async def run():
            stream = _stream(b"tail")
            stream.push(b"head-")
            return await stream.read_chunk(16)

        assert asyncio.run(run()) == b"head-"

    def test_feed_appends_behind_push(self):
        async def run():
            stream = _stream(b"")
            stream.feed(b"first")
            stream.feed(b"-second")
            return await stream.read_chunk(64)

        assert asyncio.run(run()) == b"first-second"

    def test_read_underlying_bypasses_buffer(self):
        # the disconnect watch must observe socket EOF even while a
        # pipelined request sits in the pushback buffer
        async def run():
            stream = _stream(b"")
            stream.push(b"GET / HTTP/1.1\r\n\r\n")
            return await stream.read_underlying()

        assert asyncio.run(run()) == b""

    def test_encode_response_roundtrip(self):
        raw = encode_response(429, {"error": "shed"},
                              extra_headers={"Retry-After": "1"})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests")
        assert b"Retry-After: 1" in head
        assert json.loads(body) == {"error": "shed"}


# ---------------------------------------------------------------------------
# admission controller
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_admit_then_release(self):
        ac = AdmissionController(max_inflight=2, per_client_inflight=2)
        decision = ac.try_admit("a")
        assert decision.admitted and decision.queue_depth == 1
        ac.release("a")
        assert ac.inflight == 0

    def test_global_budget_sheds(self):
        ac = AdmissionController(max_inflight=2, per_client_inflight=2)
        ac.try_admit("a")
        ac.try_admit("b")
        decision = ac.try_admit("c")
        assert not decision.admitted
        assert decision.shed_reason == "global_inflight"
        assert decision.queue_depth == 2

    def test_per_client_budget_sheds_before_global_full(self):
        ac = AdmissionController(max_inflight=10, per_client_inflight=1)
        ac.try_admit("greedy")
        decision = ac.try_admit("greedy")
        assert decision.shed_reason == "client_queue"
        # other clients are unaffected by the greedy one
        assert ac.try_admit("polite").admitted

    def test_weight_counts_as_units(self):
        ac = AdmissionController(max_inflight=10, per_client_inflight=4)
        assert ac.try_admit("a", weight=3).admitted
        assert ac.try_admit("a", weight=2).shed_reason == "client_queue"
        assert ac.try_admit("b", weight=8).shed_reason == "global_inflight"
        ac.release("a", weight=3)
        assert ac.try_admit("b", weight=4).admitted

    def test_drain_sheds_everything(self):
        ac = AdmissionController()
        ac.try_admit("a")
        assert ac.begin_drain() == 1
        assert ac.try_admit("b").shed_reason == "draining"
        ac.release("a")  # inflight work still releases during drain
        assert ac.inflight == 0

    def test_over_release_raises(self):
        ac = AdmissionController()
        with pytest.raises(ValueError):
            ac.release("nobody")

    def test_stats_count_sheds_by_reason(self):
        ac = AdmissionController(max_inflight=1, per_client_inflight=1)
        ac.try_admit("a")
        ac.try_admit("b")
        ac.begin_drain()
        ac.try_admit("c")
        stats = ac.stats()
        assert stats["shed_total"] == 2
        assert stats["shed_by_reason"]["global_inflight"] == 1
        assert stats["shed_by_reason"]["draining"] == 1
        assert stats["draining"] is True


# ---------------------------------------------------------------------------
# request plumbing units
# ---------------------------------------------------------------------------


class TestRequestPlumbing:
    def test_graph_from_json_roundtrip(self, dumbbell):
        rebuilt = graph_from_json(graph_payload(dumbbell))
        assert rebuilt.n == dumbbell.n
        assert minimum_cut(rebuilt).value == 1

    @pytest.mark.parametrize("payload", [
        None,
        {"edges": [[0, 1]]},                      # missing n
        {"n": 0, "edges": []},                    # empty graph
        {"n": 2, "edges": [[0]]},                 # short edge row
        {"n": 2, "edges": [[0, 5, 1]]},           # endpoint out of range
        {"n": 2, "edges": [[0, 1, "x"]]},         # non-numeric weight
    ])
    def test_graph_from_json_rejections(self, payload):
        with pytest.raises(HttpError) as exc_info:
            graph_from_json(payload)
        assert exc_info.value.status == 400

    def test_classify_failure_statuses(self):
        assert classify_failure(WorkerTimeout(0, 1.0)) == ("timeout", 504)
        assert classify_failure(TimeoutError("x")) == ("timeout", 504)
        assert classify_failure(WorkerCrashed(0, 1)) == ("retryable", 500)
        assert classify_failure(ValueError("bad"))[1] == 400
        assert classify_failure(RuntimeError("boom"))[1] == 500


# ---------------------------------------------------------------------------
# end-to-end over a real socket
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def service():
    """One shared server for the happy-path class (pool of 2, generous
    budgets); robustness tests below build their own tight configs."""
    with ServiceThread(
        engine_kwargs={"pool_size": 2},
        config=ServiceConfig(max_inflight=16, per_client_inflight=16),
    ) as st:
        yield st


class TestServiceEndToEnd:
    def test_solve_matches_direct_api(self, service, dumbbell):
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _headers, body = client.solve(dumbbell)
            assert status == 200
            assert body["value"] == minimum_cut(dumbbell).value == 1
            assert body["n"] == 8 and body["algorithm"]

    def test_solve_include_side_returns_partition(self, service, dumbbell):
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _headers, body = client.solve(dumbbell, include_side=True)
            assert status == 200
            assert sorted(body["side"]) in ([0, 1, 2, 3], [4, 5, 6, 7])

    def test_solve_many_mixed_items(self, service, dumbbell, weighted_cycle):
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _headers, body = client.solve_many([
                {"graph": graph_payload(dumbbell)},
                {"graph": graph_payload(weighted_cycle)},
            ])
            assert status == 200
            assert [r["value"] for r in body["results"]] == [1, 2]
            assert body["failed"] == 0

    def test_solve_many_per_item_errors(self, service, dumbbell):
        # an unknown algorithm fails at solve time: the batch still
        # returns 200 with a structured per-item error entry, so one bad
        # item cannot void its siblings' results
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _headers, body = client.solve_many([
                {"graph": graph_payload(dumbbell)},
                {"graph": graph_payload(dumbbell), "algorithm": "bogus"},
            ])
            assert status == 200
            good, bad = body["results"]
            assert good["value"] == 1
            assert bad["kind"] == "invalid" and "bogus" in bad["error"]
            assert body["failed"] == 1

    def test_batch_manifest_reads_server_side(self, service, dumbbell,
                                              weighted_cycle, tmp_path):
        p1, p2 = tmp_path / "a.metis", tmp_path / "b.metis"
        write_metis(dumbbell, p1)
        write_metis(weighted_cycle, p2)
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _headers, body = client.batch([
                {"path": str(p1)},
                {"path": str(p2)},
                {"path": str(tmp_path / "missing.metis")},
            ])
            assert status == 200
            results = body["results"]
            assert [r.get("value") for r in results[:2]] == [1, 2]
            assert results[0]["path"] == str(p1)
            assert "error" in results[2] and body["failed"] == 1

    def test_healthz_running(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _headers, body = client.healthz()
            assert status == 200 and body["status"] == "running"

    def test_stats_shape(self, service, dumbbell):
        with ServiceClient("127.0.0.1", service.port) as client:
            client.solve(dumbbell)
            stats = client.stats()
            assert stats["state"] == "running"
            assert stats["service"]["admitted"] >= 1
            assert stats["admission"]["max_inflight"] == 16
            assert "cache" in stats["engine"]  # full engine stats nested

    def test_unknown_path_404(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _headers, body = client.request("GET", "/nope")
            assert status == 404

    def test_wrong_method_405(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _headers, _body = client.request("GET", "/v1/solve")
            assert status == 405

    def test_malformed_json_400(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            client._conn.request("POST", "/v1/solve", body=b"{nope",
                                 headers={"Content-Length": "5"})
            resp = client._conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 400 and "error" in body

    def test_invalid_graph_400(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _headers, body = client.request(
                "POST", "/v1/solve", {"graph": {"n": 2, "edges": [[0, 9]]}}
            )
            assert status == 400 and "error" in body

    def test_underscore_kwargs_rejected_without_test_flag(self, service,
                                                          dumbbell):
        # allow_test_faults defaults off: fault-injection kwargs are 400s
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _headers, body = client.solve(
                dumbbell, kwargs={"_test_fault": HANG}
            )
            assert status == 400 and "_test_fault" in body["error"]

    def test_keep_alive_reuses_one_connection(self, service, dumbbell):
        with ServiceClient("127.0.0.1", service.port) as client:
            before = client.stats()["service"]["connections"]
            for _ in range(3):
                assert client.solve(dumbbell)[0] == 200
            after = client.stats()["service"]["connections"]
            assert after == before  # same keep-alive socket throughout


class TestServiceDynamicUpdates:
    def test_register_update_and_warm_resolve(self, service, dumbbell):
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _h, body = client.update("dyn-a", graph=dumbbell)
            assert status == 200
            assert body["value"] == 1 and body["version"] == 0
            assert body["warm"]["mode"] == "cold"  # first solve seeds state
            digest0 = body["digest"]

            status, _h, body = client.update(
                "dyn-a", inserts=[[3, 4, 2]], include_side=True
            )
            assert status == 200
            assert body["value"] == 3  # bridge weight 1 → 3 (= min degree)
            assert body["version"] == 1 and body["digest"] != digest0
            assert body["warm"]["mode"] in ("fast-path", "seeded",
                                            "seeded-contracted")
            # the reported side must be a genuine minimum cut of the
            # *updated* graph (several cuts tie at 3, any is acceptable)
            import numpy as np

            from repro.dynamic import apply_updates

            updated, *_ = apply_updates(dumbbell, [(3, 4, 2)], ())
            mask = np.zeros(8, dtype=bool)
            mask[body["side"]] = True
            assert updated.cut_value(mask) == 3

            status, _h, body = client.update("dyn-a", deletes=[[3, 4]])
            assert status == 200
            assert body["value"] == 0  # the dumbbell halves disconnect
            assert body["m"] == 12 and body["version"] == 2

    def test_unknown_graph_id_404(self, service):
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _h, body = client.update("never-registered",
                                             inserts=[[0, 1, 1]])
            assert status == 404 and "never-registered" in body["error"]

    def test_reregister_conflict_409(self, service, dumbbell, weighted_cycle):
        with ServiceClient("127.0.0.1", service.port) as client:
            assert client.update("dyn-b", graph=dumbbell)[0] == 200
            status, _h, body = client.update("dyn-b", graph=weighted_cycle)
            assert status == 409 and "already registered" in body["error"]

    def test_malformed_batches_400(self, service, dumbbell):
        with ServiceClient("127.0.0.1", service.port) as client:
            assert client.update("dyn-c", graph=dumbbell)[0] == 200
            # wire-shape error: rows must be [u, v] / [u, v, w]
            status, _h, body = client.update("dyn-c", inserts=[[1]])
            assert status == 400 and "inserts[0]" in body["error"]
            # semantic error: deleting an absent edge classifies as invalid
            status, _h, body = client.update("dyn-c", deletes=[[0, 7]])
            assert status == 400 and body["kind"] == "invalid"
            # failed batches never mutate the handle
            status, _h, body = client.update("dyn-c")
            assert status == 200 and body["version"] == 0

    def test_missing_graph_id_400(self, service, dumbbell):
        with ServiceClient("127.0.0.1", service.port) as client:
            status, _h, body = client.request(
                "POST", "/v1/update", {"graph": graph_payload(dumbbell)}
            )
            assert status == 400 and "graph_id" in body["error"]

    def test_registry_capacity_413(self, dumbbell):
        with ServiceThread(
            engine_kwargs={"pool_size": 0},
            config=ServiceConfig(max_dynamic_graphs=1),
        ) as st, ServiceClient("127.0.0.1", st.port) as client:
            assert client.update("one", graph=dumbbell)[0] == 200
            status, _h, body = client.update("two", graph=dumbbell)
            assert status == 413 and "registry is full" in body["error"]

    def test_update_counter_in_stats(self, service, dumbbell):
        with ServiceClient("127.0.0.1", service.port) as client:
            before = client.stats()["service"].get("updates", 0)
            client.update("dyn-d", graph=dumbbell)
            client.update("dyn-d", inserts=[[0, 4, 1]])
            after = client.stats()["service"]["updates"]
            assert after == before + 2


# ---------------------------------------------------------------------------
# robustness: backpressure, deadlines, disconnects, drain
# ---------------------------------------------------------------------------


def _tight_service(tracer=None, **config_kwargs):
    defaults = dict(max_inflight=2, per_client_inflight=2,
                    allow_test_faults=True, drain_grace_s=3.0)
    defaults.update(config_kwargs)
    return ServiceThread(
        engine_kwargs={"pool_size": 1, "max_recycles": 16},
        config=ServiceConfig(**defaults),
        tracer=tracer,
    )


def _hang_payload(graph, timeout_ms: int = 20_000) -> dict:
    return {"graph": graph_payload(graph), "cache": False,
            "kwargs": {"_test_fault": HANG}, "timeout_ms": timeout_ms}


class TestBackpressure:
    def test_overload_sheds_429_with_retry_after(self, dumbbell):
        tracer = Tracer()
        with _tight_service(tracer) as st:
            hang = _hang_payload(dumbbell, timeout_ms=2_000)
            occupants = [ServiceClient("127.0.0.1", st.port) for _ in range(2)]
            occupiers = [
                threading.Thread(target=occupant.request,
                                 args=("POST", "/v1/solve", hang))
                for occupant in occupants
            ]
            for t in occupiers:
                t.start()
            deadline = time.monotonic() + 5.0
            while (st.service.admission.inflight < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            with ServiceClient("127.0.0.1", st.port) as client:
                status, headers, body = client.solve(dumbbell, cache=False)
            for t, occupant in zip(occupiers, occupants):
                t.join()
                occupant.close()
            assert status == 429
            assert headers.get("Retry-After") == "1"
            assert body["shed_reason"] == "global_inflight"
            assert body["queue_depth"] == 2
        sheds = [e for e in tracer.events() if e["kind"] == "request_shed"]
        assert sheds and sheds[0]["shed_reason"] == "global_inflight"

    def test_per_client_budget_isolates_clients(self, dumbbell):
        # one greedy API key saturates its own queue; another key passes
        with _tight_service(max_inflight=8, per_client_inflight=1) as st:
            hang = _hang_payload(dumbbell, timeout_ms=2_000)
            occupant = ServiceClient("127.0.0.1", st.port, api_key="greedy")
            greedy = threading.Thread(
                target=occupant.request, args=("POST", "/v1/solve", hang),
            )
            greedy.start()
            deadline = time.monotonic() + 5.0
            while (st.service.admission.inflight < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            with ServiceClient("127.0.0.1", st.port, api_key="greedy") as client:
                status_greedy, _h, body = client.solve(dumbbell, cache=False)
            with ServiceClient("127.0.0.1", st.port, api_key="polite") as client:
                status_polite, _h, _b = client.solve(dumbbell, cache=False)
            greedy.join()
            occupant.close()
            assert status_greedy == 429 and body["shed_reason"] == "client_queue"
            assert status_polite == 200

    def test_solve_many_weighs_item_count(self, dumbbell):
        # a 3-item solve_many cannot fit a 2-unit budget: shed up front,
        # before any graph is parsed or submitted
        with _tight_service() as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                status, headers, body = client.solve_many(
                    [{"graph": graph_payload(dumbbell)}] * 3
                )
            assert status == 429
            assert body["shed_reason"] == "global_inflight"
            assert "Retry-After" in headers


class TestDeadlines:
    def test_deadline_expiry_times_out_with_context(self, dumbbell):
        with _tight_service() as st:
            t0 = time.monotonic()
            with ServiceClient("127.0.0.1", st.port) as client:
                status, _headers, body = client.solve(
                    dumbbell, cache=False, timeout_ms=500,
                    kwargs={"_test_fault": HANG},
                )
            elapsed = time.monotonic() - t0
            assert status == 504
            assert body["kind"] == "timeout"
            assert body["timeout_ms"] == 500
            # the 504 body carries enough to find the request in a trace
            assert body["digest"] and body["algorithm"]
            # deadline propagated to the engine: the worker was recycled
            # within ~a dispatch cycle, not after the 60s hang
            assert elapsed < 10.0
            assert st.engine.stats()["pool"]["recycles"] >= 1

    def test_deadline_from_header(self, dumbbell):
        with _tight_service() as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                status, _headers, body = client.request(
                    "POST", "/v1/solve",
                    {"graph": graph_payload(dumbbell), "cache": False,
                     "kwargs": {"_test_fault": HANG}},
                    headers={"X-Timeout-Ms": "500"},
                )
            assert status == 504 and body["timeout_ms"] == 500

    def test_timeout_ms_clamped_to_config_max(self, dumbbell):
        with _tight_service(max_timeout_ms=1_000) as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                status, _headers, body = client.solve(
                    dumbbell, cache=False, timeout_ms=600_000,
                    kwargs={"_test_fault": HANG},
                )
            assert status == 504 and body["timeout_ms"] == 1_000

    def test_invalid_timeout_ms_is_400(self, dumbbell):
        with _tight_service() as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                status, _headers, _body = client.solve(
                    dumbbell, timeout_ms="soon"
                )
            assert status == 400

    def test_crash_after_the_engine_retry_is_500_retryable(self, dumbbell):
        # the worker exits on every attempt: the engine retries once on a
        # fresh worker, and the second crash reaches the client
        with _tight_service() as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                status, _headers, body = client.solve(
                    dumbbell, cache=False, timeout_ms=15_000,
                    kwargs={"_test_fault": {"test_fault": "exit",
                                            "exit_code": 3}},
                )
            assert status == 500
            assert body["kind"] == "retryable"
            assert st.engine.stats()["retries"] == 1

    @pytest.mark.parametrize("route", ["/v1/solve", "/v1/update"])
    def test_budget_spent_before_submit_names_the_request(self, route):
        # the 1 ms budget is gone while the large body is still decoding, so
        # no solve attempt starts: the 504 names the request and its graph,
        # not the phantom "worker -1" the retry loops used to blame
        graph = connected_gnm(2000, 8000, rng=0, weights=(1, 9))
        digest = graph_digest(graph)
        payload = {"graph": graph_payload(graph), "timeout_ms": 1}
        if route == "/v1/update":
            payload["graph_id"] = "spent"
        with _tight_service() as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                status, _headers, body = client.request("POST", route, payload)
            submitted = st.engine.stats()["submitted"]
        assert status == 504
        assert body["kind"] == "timeout" and body["timeout_ms"] == 1
        assert body["digest"] == digest and body["algorithm"] == "noi-viecut"
        message = body["error"]
        assert message.startswith(f"{route} request ")
        assert f"algorithm=noi-viecut, digest={digest[:12]}" in message
        assert "before a solve attempt could start" in message
        assert "worker" not in message
        assert submitted == 0  # the engine never saw it


class TestDisconnectAndDrain:
    def test_client_disconnect_cancels_and_releases(self, dumbbell):
        tracer = Tracer()
        with _tight_service(tracer) as st:
            payload = json.dumps(_hang_payload(dumbbell)).encode()
            sock = socket.create_connection(("127.0.0.1", st.port))
            sock.sendall(
                b"POST /v1/solve HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
            )
            deadline = time.monotonic() + 5.0
            while (st.service.admission.inflight < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            sock.close()  # walk away mid-solve
            deadline = time.monotonic() + 10.0
            with ServiceClient("127.0.0.1", st.port) as client:
                while time.monotonic() < deadline:
                    stats = client.stats()
                    if stats["service"]["disconnects"] >= 1:
                        break
                    time.sleep(0.02)
            assert stats["service"]["disconnects"] == 1
        kinds = [e["kind"] for e in tracer.events()]
        assert "client_disconnect" in kinds

    def test_drain_completes_inflight_and_rejects_new(self, dumbbell):
        tracer = Tracer()
        with _tight_service(tracer) as st:
            # a short genuine solve is inflight when the drain begins
            slow = {"graph": graph_payload(dumbbell), "cache": False,
                    "kwargs": {"_test_fault": {"test_fault": "hang",
                                               "sleep_seconds": 0.5}},
                    "timeout_ms": 20_000}
            holder: dict = {}

            def run_slow():
                with ServiceClient("127.0.0.1", st.port) as client:
                    holder["resp"] = client.request("POST", "/v1/solve", slow)

            t = threading.Thread(target=run_slow)
            t.start()
            deadline = time.monotonic() + 5.0
            while (st.service.admission.inflight < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            summary = st.drain(grace=10.0)
            t.join()
            # the inflight request finished exactly; no cancellation needed
            status, _headers, body = holder["resp"]
            assert status == 200 and body["value"] == 1
            assert summary["drained"] == 1 and summary["cancelled"] == 0
            # new connections are refused outright (listener closed)
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", st.port), timeout=1.0)
        events = tracer.events()
        kinds = [e["kind"] for e in events]
        assert kinds.count("drain_begin") == 1
        assert kinds.count("drain_end") == 1
        assert kinds.index("drain_begin") < kinds.index("drain_end")

    def test_drain_cancels_stragglers_after_grace(self, dumbbell):
        # the hang's deadline sits far above the grace and well inside the
        # client's socket timeout, so the straggler's answer always arrives
        t0 = time.monotonic()
        errors: list[Exception] = []

        def straggle() -> None:
            try:
                with ServiceClient("127.0.0.1", st.port) as client:
                    client.request("POST", "/v1/solve", hang)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        with _tight_service() as st:
            hang = _hang_payload(dumbbell, timeout_ms=3_000)
            t = threading.Thread(target=straggle)
            t.start()
            deadline = time.monotonic() + 5.0
            while (st.service.admission.inflight < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            summary = st.drain(grace=0.3)
            t.join(timeout=15.0)
            assert not t.is_alive()
            assert summary["cancelled"] == 1
        assert errors == []
        assert time.monotonic() - t0 < 15.0

    def test_sigterm_drain_after_clients_close_logs_no_traceback(self, dumbbell):
        # clients closing keep-alive connections just before SIGTERM used to
        # leave their handlers awaiting wait_closed() when the event loop
        # shut down; the loop cancelled them and logged a CancelledError
        # traceback on most runs
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for _ in range(5):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "--port", "0",
                 "--pool-size", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env,
            )
            try:
                port = int(proc.stdout.readline().rsplit(":", 1)[1])
                clients = [ServiceClient("127.0.0.1", port) for _ in range(3)]
                for client in clients:
                    assert client.solve(dumbbell)[0] == 200
                for client in clients:
                    client.close()
                proc.send_signal(signal.SIGTERM)
                _out, err = proc.communicate(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
            assert proc.returncode == 0, err
            assert "Traceback" not in err, err

    def test_drain_is_idempotent(self):
        with _tight_service() as st:
            first = st.drain(grace=0.1)
            second = st.drain(grace=0.1)
            assert first["cancelled"] == 0
            assert second == first  # replayed summary, not a second drain


# ---------------------------------------------------------------------------
# trace taxonomy
# ---------------------------------------------------------------------------


class TestServiceTracing:
    def test_full_lifecycle_trace_validates(self, dumbbell):
        tracer = Tracer()
        with _tight_service(tracer) as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                assert client.solve(dumbbell)[0] == 200
                assert client.solve(dumbbell, timeout_ms=400, cache=False,
                                    kwargs={"_test_fault": HANG})[0] == 504
            st.drain(grace=2.0)
        events = tracer.events()
        assert all(e["kind"] in EVENT_KINDS for e in events)
        by_kind = validate_trace_events(events)["by_kind"]
        for kind in ("service_start", "request_admitted", "request_done",
                     "drain_begin", "drain_end"):
            assert by_kind.get(kind, 0) >= 1, kind
        dones = [e for e in tracer.events() if e["kind"] == "request_done"]
        assert {e["status"] for e in dones} == {200, 504}

    def test_service_stop_emitted_on_close(self, dumbbell):
        tracer = Tracer()
        with _tight_service(tracer) as st, ServiceClient("127.0.0.1", st.port) as client:
            client.solve(dumbbell)
        kinds = [e["kind"] for e in tracer.events()]
        assert kinds.count("service_stop") == 1
        # service events and engine events interleave in one valid stream
        assert "engine_stop" in kinds
        validate_trace_events(tracer.events())


# ---------------------------------------------------------------------------
# concurrent load smoke (fire_concurrent is also the bench primitive)
# ---------------------------------------------------------------------------


class TestConcurrentLoad:
    def test_concurrent_updates_report_their_own_version(self, dumbbell):
        # 4 clients send 60 single-edge inserts each to one graph: every
        # batch bumps the version once, and each reply names the version,
        # digest and size its own batch produced
        pairs = [(u, v) for u in range(8) for v in range(8) if u != v]
        reqs = [{"path": "/v1/update",
                 "payload": {"graph_id": "race",
                             "inserts": [[*pairs[i % len(pairs)], 1]]}}
                for i in range(240)]
        with ServiceThread(
            engine_kwargs={"pool_size": 0},
            config=ServiceConfig(max_inflight=8, per_client_inflight=8),
        ) as st:
            with ServiceClient("127.0.0.1", st.port) as client:
                assert client.update("race", graph=dumbbell)[0] == 200
            records = fire_concurrent("127.0.0.1", st.port, reqs,
                                      concurrency=4)
        assert [r["status"] for r in records] == [200] * 240
        bodies = [r["body"] for r in records]
        assert sorted(b["version"] for b in bodies) == list(range(1, 241))
        # each insert adds weight, so every version is a distinct graph
        assert len({b["digest"] for b in bodies}) == 240

    def test_mixed_load_all_accounted(self, dumbbell, weighted_cycle):
        with ServiceThread(
            engine_kwargs={"pool_size": 2},
            config=ServiceConfig(max_inflight=8, per_client_inflight=8),
        ) as st:
            reqs = []
            for i in range(20):
                graph = dumbbell if i % 2 else weighted_cycle
                reqs.append({"path": "/v1/solve",
                             "payload": {"graph": graph_payload(graph)}})
            records = fire_concurrent("127.0.0.1", st.port, reqs,
                                      concurrency=4)
            assert len(records) == 20
            ok = [r for r in records if r["status"] == 200]
            shed = [r for r in records if r["status"] == 429]
            assert len(ok) + len(shed) == 20  # nothing lost or errored
            assert len(ok) >= 1
            values = {r["body"]["value"] for r in ok}
            assert values <= {1, 2}
            with ServiceClient("127.0.0.1", st.port) as client:
                stats = client.stats()
            assert stats["service"]["done_ok"] == len(ok)
            assert stats["service"]["shed"] == len(shed)
