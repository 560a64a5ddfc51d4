"""Tests for the service's one request pipeline and the engine boundary.

* **typed pooled errors** — a pooled solve raises what the inline solve
  raises (same type, same message) whenever the exception crosses the
  result pipe intact; otherwise the engine keeps its ``RuntimeError``
  naming the worker's repr, and an undecodable payload fails only its own
  request;
* **registration rollback** — a ``/v1/update`` registration that does not
  end in a 200 leaves the graph registry as it found it, while a
  concurrent registration of the same id still gets a 409;
* **untrusted inputs** — a ``/v1/batch`` item whose file cannot be read or
  parsed gets one fixed message (no file content, no OS error text), and
  ``include_side`` must be a JSON boolean on every solve route;
* **parse-step statuses** — a ``/v1/update`` parse error that is not a
  400 (unknown id, id taken, registry full) traces its own status on
  ``request_done``;
* **one retry** — the engine retries a crashed pooled solve once and the
  service adds none: with every engine default, a request whose worker
  exits on every attempt is a 500 ``retryable`` that leaves the pool in
  place, and an update whose cold solve crashes applies its edges once;
* **route table** — every route answers 405 to the other method.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time

import pytest

from repro.core.api import minimum_cut
from repro.engine import SolverEngine
from repro.engine.pool import _pooled_error, _portable_error
from repro.generators.gnm import connected_gnm
from repro.graph.io import write_metis
from repro.observability import Tracer
from repro.observability.schema import validate_trace_events
from repro.runtime.errors import WorkerTimeout
from repro.service import ServiceClient, ServiceConfig, graph_payload
from repro.service.server import ROUTES
from repro.service.smoke import _absent_edges
from repro.service.testing import ServiceThread

#: the test process; a forked pool worker inherits this value
PARENT_PID = os.getpid()

BAD_KWARGS = [
    ({"pq_kind": "bogus"}, ValueError),
    ({"nonsense": 1}, TypeError),
    ({"kernel": "compiled"}, ValueError),  # the name of a retired kernel tier
]


def _service(pool_size: int, tracer=None, **config):
    return ServiceThread(
        engine_kwargs={"pool_size": pool_size, "max_recycles": 16},
        config=ServiceConfig(**config),
        tracer=tracer,
    )


# ---------------------------------------------------------------------------
# typed pooled errors
# ---------------------------------------------------------------------------


def _rebuild_outside_parent(parent_pid: int, message: str):
    if os.getpid() == parent_pid:
        raise RuntimeError("refusing to unpickle in the engine's process")
    return ParentOnlyError(message)


class ParentOnlyError(ValueError):
    """Survives a pickle round trip in a pool worker, not in the engine."""

    def __reduce__(self):
        return _rebuild_outside_parent, (PARENT_PID, str(self))


def _forked_engine(monkeypatch, make_error) -> SolverEngine:
    """A one-worker engine whose forked worker's solver raises a fresh
    ``make_error()`` (a shared exception object would keep its traceback,
    and with it the worker's views of the shared-memory plane)."""
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("needs the fork start method")

    def failing_solve(*_args, **_kwargs):
        raise make_error()

    monkeypatch.setattr("repro.core.api.minimum_cut", failing_solve)
    engine = SolverEngine(pool_size=1, start_method="fork")
    monkeypatch.undo()  # the forked worker keeps the failing solver
    return engine


class TestPooledErrorTypes:
    @pytest.mark.parametrize("kwargs,error", BAD_KWARGS)
    def test_pooled_error_matches_inline(self, kwargs, error):
        g = connected_gnm(20, 40, rng=1)
        messages = []
        for pool_size in (0, 1):
            with SolverEngine(pool_size=pool_size) as engine:
                with pytest.raises(error) as info:
                    engine.solve(g, cache=False, **kwargs)
                assert type(info.value) is error
                messages.append(str(info.value))
                assert engine.stats()["failed"] == 1
        assert messages[0] == messages[1]

    def test_pooled_error_keeps_the_worker(self):
        g = connected_gnm(20, 40, rng=1)
        with SolverEngine(pool_size=1) as engine:
            with pytest.raises(ValueError):
                engine.solve(g, cache=False, pq_kind="bogus")
            assert engine.solve(g, cache=False).value == minimum_cut(g).value
            assert engine.stats()["pool"]["recycles"] == 0

    def test_portable_error_rejects_what_does_not_round_trip(self):
        assert _portable_error(ValueError("x")) is not None
        # WorkerTimeout's pickled form lacks its `deadline` argument
        assert _portable_error(WorkerTimeout(None, 1.0, message="m")) is None
        assert _portable_error(KeyboardInterrupt()) is None
        fallback = _pooled_error(7, (b"not a pickle", "ValueError('x')"))
        assert type(fallback) is RuntimeError
        assert str(fallback) == "pooled solve of request 7 failed: ValueError('x')"

    def test_worker_timeout_falls_back_to_runtime_error(self, monkeypatch):
        def make_error():
            return WorkerTimeout(None, 1.0, message="inner deadline")

        with _forked_engine(monkeypatch, make_error) as engine:
            with pytest.raises(RuntimeError) as info:
                engine.solve(connected_gnm(20, 40, rng=1), cache=False)
        assert type(info.value) is RuntimeError
        assert "pooled solve of request 0 failed: WorkerTimeout(" in str(info.value)

    def test_undecodable_error_fails_only_its_request(self, monkeypatch):
        g = connected_gnm(20, 40, rng=1)
        with _forked_engine(monkeypatch,
                            lambda: ParentOnlyError("boom")) as engine:
            for req_id in range(2):  # the dispatcher survives the first
                fut = engine.submit(g, cache=False)
                exc = fut.exception(timeout=60)
                assert type(exc) is RuntimeError
                assert str(exc) == (f"pooled solve of request {req_id} "
                                    "failed: ParentOnlyError('boom')")
            assert engine.stats()["failed"] == 2

    @pytest.mark.parametrize("pool_size", [0, 1])
    @pytest.mark.parametrize("kwargs,error", BAD_KWARGS)
    def test_service_answers_400_invalid(self, pool_size, kwargs, error,
                                         dumbbell):
        with _service(pool_size) as st, ServiceClient("127.0.0.1",
                                                     st.port) as client:
            status, _h, body = client.solve(dumbbell, cache=False,
                                            kwargs=kwargs)
            assert status == 400 and body["kind"] == "invalid", body
            status, _h, body = client.solve_many([
                {"graph": graph_payload(dumbbell)},
                {"graph": graph_payload(dumbbell), "kwargs": kwargs},
            ], cache=False)
            assert status == 200 and body["failed"] == 1
            good, bad = body["results"]
            assert good["value"] == 1
            assert bad["kind"] == "invalid", bad


# ---------------------------------------------------------------------------
# registration rollback
# ---------------------------------------------------------------------------


class TestRegistrationRollback:
    def test_failed_registration_frees_its_id(self, dumbbell):
        with _service(1) as st, ServiceClient("127.0.0.1", st.port) as client:
            status, _h, body = client.update("a", graph=dumbbell,
                                             algorithm="bogus")
            assert status == 400 and body["kind"] == "invalid"
            status, _h, body = client.update("a", graph=dumbbell)
            assert status == 200 and body["version"] == 0, body

    def test_failed_registration_frees_its_registry_slot(self, dumbbell):
        with _service(1, max_dynamic_graphs=1) as st, ServiceClient(
            "127.0.0.1", st.port
        ) as client:
            status, _h, _body = client.update("a", graph=dumbbell,
                                              algorithm="bogus")
            assert status == 400
            status, _h, body = client.update("b", graph=dumbbell)
            assert status == 200 and body["value"] == 1, body

    def test_timed_out_registration_frees_its_id(self, dumbbell):
        with _service(1, allow_test_faults=True) as st, ServiceClient(
            "127.0.0.1", st.port
        ) as client:
            status, _h, body = client.update(
                "a", graph=dumbbell, cache=False, timeout_ms=300,
                kwargs={"_test_fault": {"test_fault": "hang",
                                        "sleep_seconds": 60}},
            )
            assert status == 504 and body["kind"] == "timeout"
            status, _h, body = client.update("a", graph=dumbbell)
            assert status == 200 and body["version"] == 0, body

    def test_concurrent_registration_of_an_inflight_id_is_409(self, dumbbell):
        with _service(1, allow_test_faults=True) as st:
            first: dict = {}

            def register_slowly():
                with ServiceClient("127.0.0.1", st.port) as client:
                    first["resp"] = client.update(
                        "a", graph=dumbbell, cache=False,
                        kwargs={"_test_fault": {"test_fault": "hang",
                                                "sleep_seconds": 1.0}},
                    )

            t = threading.Thread(target=register_slowly)
            t.start()
            deadline = time.monotonic() + 10.0
            while (st.service.admission.inflight < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            with ServiceClient("127.0.0.1", st.port) as client:
                status, _h, body = client.update("a", graph=dumbbell)
            t.join()
            assert status == 409 and "already registered" in body["error"]
            status, _h, body = first["resp"]
            assert status == 200 and body["value"] == 1


# ---------------------------------------------------------------------------
# untrusted inputs
# ---------------------------------------------------------------------------


class TestBatchReadErrorsAreMasked:
    @pytest.mark.parametrize("fmt", ["metis", "edgelist"])
    def test_unreadable_items_share_one_message(self, fmt, tmp_path,
                                                dumbbell):
        marker = "MARKER-7f3a secret line"
        secret = tmp_path / "secret.txt"
        secret.write_text(f"{marker}\nmore secret text\n")
        good = tmp_path / "good.metis"
        write_metis(dumbbell, good)
        paths = [str(secret), str(tmp_path / "missing.graph"), str(tmp_path)]
        items = [{"path": p, "format": fmt} for p in paths]
        with _service(0) as st, ServiceClient("127.0.0.1", st.port) as client:
            status, _h, body = client.batch(
                [*items, {"path": str(good), "format": "metis"}]
            )
        assert status == 200 and body["failed"] == 3
        *bad, ok = body["results"]
        assert ok["value"] == 1
        masked = set()
        for path, entry in zip(paths, bad):
            assert marker not in entry["error"]
            assert "Errno" not in entry["error"]
            assert entry["kind"] == "invalid" and entry["path"] == path
            assert path in entry["error"] and fmt in entry["error"]
            masked.add(entry["error"].replace(repr(path), "<path>"))
        assert len(masked) == 1, masked


@pytest.mark.parametrize("value", ["no", 1, None])
class TestIncludeSideMustBeBoolean:
    def test_solve(self, value, dumbbell):
        with _service(0) as st, ServiceClient("127.0.0.1", st.port) as client:
            status, _h, body = client.solve(dumbbell, include_side=value)
        assert status == 400 and "include_side" in body["error"]

    def test_update(self, value, dumbbell):
        with _service(0) as st, ServiceClient("127.0.0.1", st.port) as client:
            assert client.update("a", graph=dumbbell)[0] == 200
            status, _h, body = client.update("a", include_side=value)
            assert status == 400 and "include_side" in body["error"]
            # a registering request with a bad flag registers nothing
            status, _h, body = client.update("b", graph=dumbbell,
                                             include_side=value)
            assert status == 400
            assert client.update("b", graph=dumbbell)[0] == 200

    def test_solve_many_item(self, value, dumbbell):
        with _service(0) as st, ServiceClient("127.0.0.1", st.port) as client:
            status, _h, body = client.solve_many([
                {"graph": graph_payload(dumbbell)},
                {"graph": graph_payload(dumbbell), "include_side": value},
            ])
        assert status == 400 and "include_side" in body["error"]


def test_items_do_not_inherit_include_side(dumbbell):
    with _service(0) as st, ServiceClient("127.0.0.1", st.port) as client:
        status, _h, body = client.solve_many(
            [{"graph": graph_payload(dumbbell)},
             {"graph": graph_payload(dumbbell), "include_side": True}],
            include_side=True,
        )
    assert status == 200
    plain, sided = body["results"]
    assert "side" not in plain
    assert sorted(sided["side"]) in ([0, 1, 2, 3], [4, 5, 6, 7])


# ---------------------------------------------------------------------------
# parse-step statuses
# ---------------------------------------------------------------------------


def test_update_parse_errors_trace_their_own_status(dumbbell):
    tracer = Tracer()
    with _service(0, tracer, max_dynamic_graphs=1) as st, ServiceClient(
        "127.0.0.1", st.port
    ) as client:
        status, _h, body = client.update("a", graph=dumbbell)
        assert status == 200, body
        answers = [
            client.update("nope")[0],  # unknown graph_id
            client.update("a", graph=dumbbell)[0],  # id taken
            client.update("b", graph=dumbbell)[0],  # registry full
        ]
        stats = client.stats()
    assert answers == [404, 409, 413]
    assert [e["status"] for e in tracer.events("request_done")] == [
        200, 404, 409, 413,
    ]
    assert stats["service"]["done_error"] == 3
    validate_trace_events(tracer.events())


# ---------------------------------------------------------------------------
# one retry
# ---------------------------------------------------------------------------

CRASH = {"_test_fault": {"test_fault": "exit", "exit_code": 3}}


@pytest.mark.parametrize("route", ["/v1/solve", "/v1/update"])
def test_crashing_request_is_retried_once_and_keeps_the_pool(route):
    # every engine default: one crashing request takes two of the three
    # worker replacements the engine allows, so the pool stays and serves
    # the next solve
    g = connected_gnm(20, 40, rng=1)
    with ServiceThread(config=ServiceConfig(allow_test_faults=True)) as st, \
            ServiceClient("127.0.0.1", st.port) as client:
        if route == "/v1/update":
            assert client.update("g", graph=g)[0] == 200
            # stoer-wagner is not warmable: the update takes the pooled
            # cold path
            status, _h, body = client.update(
                "g", inserts=_absent_edges(g, 2, weight=1),
                algorithm="stoer-wagner", cache=False, kwargs=CRASH,
            )
        else:
            status, _h, body = client.solve(g, cache=False, kwargs=CRASH)
        assert status == 500 and body["kind"] == "retryable", body
        engine = client.stats()["engine"]
        assert engine["retries"] == 1
        assert engine["pool_abandoned"] is False
        status, _h, body = client.solve(g, cache=False)
        assert status == 200 and body["value"] == minimum_cut(g).value
        assert client.stats()["engine"]["inline_solves"] == 0


def test_update_retry_applies_its_batch_once():
    g = connected_gnm(20, 40, rng=1)
    tracer = Tracer()
    with _service(1, tracer, allow_test_faults=True) as st:
        with ServiceClient("127.0.0.1", st.port) as client:
            status, _h, body = client.update("g", graph=g)
            assert status == 200 and body["m"] == 40
            # stoer-wagner is not warmable: the update takes the pooled
            # cold path, whose worker exits on every attempt
            status, _h, body = client.update(
                "g", inserts=_absent_edges(g, 2, weight=1),
                algorithm="stoer-wagner", cache=False, kwargs=CRASH,
            )
            assert status == 500 and body["kind"] == "retryable", body
            status, _h, body = client.update("g")
            assert status == 200
            assert body["version"] == 1 and body["m"] == 42, body
    validate_trace_events(tracer.events())


# ---------------------------------------------------------------------------
# route table
# ---------------------------------------------------------------------------


def test_every_route_rejects_the_other_method():
    with _service(0) as st, ServiceClient("127.0.0.1", st.port) as client:
        for path, route in ROUTES.items():
            other = "POST" if route.method == "GET" else "GET"
            status, _h, body = client.request(other, path)
            assert status == 405, (path, body)
            assert body["error"] == f"{other} not allowed on {path}"
        status, _h, body = client.request("GET", "/v1/nope")
        assert status == 404 and body["error"] == "no route /v1/nope"
