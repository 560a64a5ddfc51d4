"""Mincut-as-a-service: a hardened asyncio front end on :class:`SolverEngine`.

:class:`MinCutService` serves exact minimum cuts over HTTP/JSON.  Each
route is written once, in :data:`ROUTES` (path, method, handler).  The
solve routes ``/v1/solve``, ``/v1/update``, ``/v1/solve_many`` and
``/v1/batch`` share one request pipeline, :meth:`MinCutService._run_route`,
and supply only their parse step, blocking work and 200 body.  The
pipeline has the robustness a long-lived service boundary needs built in:

* **Admission control & load shedding** — every solve request passes a
  bounded global inflight budget and a per-client bounded queue
  (:mod:`~repro.service.admission`) *before* any graph bytes are parsed.
  Work that does not fit is shed at once with ``429`` + ``Retry-After``
  and a structured ``shed_reason``/``queue_depth`` body, so the queue
  never grows unboundedly.
* **Deadline propagation** — the client's ``timeout_ms`` (body field or
  ``X-Timeout-Ms`` header, defaulted and clamped by config) becomes an
  absolute deadline mapped onto the engine's per-request deadlines, so a
  blown budget cancels the *solve* (recycling the worker it occupied)
  as soon as the deadline passes, and the client gets a ``504`` whose
  body names the digest, algorithm, and elapsed/deadline.
* **Disconnect cancellation** — while a solve is in flight the connection
  is watched; a client that vanishes has its engine request cancelled
  (queued work immediately, running work via its deadline) instead of
  burning pool time for nobody.
* **One retry, in the engine** — the engine retries a crashed pooled
  solve once on a fresh worker, and a second crash is a ``500``
  ``retryable``.
* **Graceful drain** — :meth:`MinCutService.drain` (wired to SIGTERM by
  ``python -m repro.service``) walks a three-state machine
  ``RUNNING → DRAINING → STOPPED``: stop accepting (admission sheds with
  reason ``"draining"``, the listener closes), let inflight requests
  finish or deadline-out under a grace period, cancel stragglers, flush
  the trace sink, exit 0.

Every lifecycle step emits the service event kinds of the closed
observability taxonomy (``service_start/stop``,
``request_admitted/shed/done``, ``client_disconnect``,
``drain_begin/end``), so ``python -m repro.observability.validate``
covers service traces end to end.

Threading model: the asyncio event loop owns all service state (counters,
active-request set, drain state, the ``/v1/update`` graph registry).
Blocking work runs on worker threads via ``asyncio.to_thread`` — bounded
by the admission budget — and touches only the per-request
:class:`_RequestCtx` (lock-protected) plus the thread-safe
engine/admission objects and dynamic-graph handles.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from ..engine import (
    EngineClosed,
    EngineFuture,
    RequestCancelled,
    SolverEngine,
    UnkeyableRequest,
    graph_digest,
)
from ..graph.builder import from_edges
from ..graph.io import read_edge_list, read_metis
from ..graph.validate import GraphValidationError
from ..runtime.errors import RuntimeFault, WorkerCrashed, WorkerTimeout
from .admission import AdmissionController
from .http import (
    BufferedStream,
    HttpError,
    Request,
    read_request,
    write_response,
)

#: drain state machine (see module docstring)
RUNNING, DRAINING, STOPPED = "running", "draining", "stopped"

#: how long close() waits for connection handlers to unwind before
#: cancelling them
CLOSE_GRACE_S = 5.0


class ClientDisconnected(ConnectionError):
    """The client hung up while its request was in flight."""


@dataclass
class ServiceConfig:
    """Tunables of the service front end (all bounded-by-default)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from `service.port`
    max_inflight: int = 64  # global admitted solve units
    per_client_inflight: int = 16  # admitted units per API key / peer
    default_timeout_ms: int = 30_000  # applied when the client names none
    max_timeout_ms: int = 300_000  # client-supplied budgets are clamped here
    drain_grace_s: float = 10.0  # inflight grace before drain cancels
    max_body_bytes: int = 8 << 20
    max_batch_items: int = 256  # items per solve_many/batch request
    retry_after_s: int = 1  # advertised in 429/503 Retry-After headers
    keepalive_timeout_s: float = 30.0  # idle keep-alive connection lifetime
    allow_test_faults: bool = False  # accept `_test_fault` kwargs (CI smoke)
    max_dynamic_graphs: int = 64  # registered /v1/update graph handles


class _Route(NamedTuple):
    method: str
    handler: str  # name of the MinCutService method serving the route
    items: bool = False  # admission weighs the request by its item count


#: every route, its method and its handler, written once; ``_dispatch``
#: answers 404 and 405 from this table.  A GET handler answers on the
#: event loop.  A POST handler is the route's parse step: the route runner
#: calls it after admission and runs the :class:`_Job` it returns.
ROUTES = {
    "/v1/healthz": _Route("GET", "_healthz"),
    "/v1/stats": _Route("GET", "_stats_reply"),
    "/v1/solve": _Route("POST", "_solve_job"),
    "/v1/update": _Route("POST", "_update_job"),
    "/v1/solve_many": _Route("POST", "_solve_many_job", items=True),
    "/v1/batch": _Route("POST", "_batch_job", items=True),
}


class _Job(NamedTuple):
    """What a solve route's parse step hands the route runner."""

    work: Callable[[], object]  # the blocking part, run on a worker thread
    reply: Callable[[object], dict]  # the 200 body, from work's result
    undo: Callable[[], None] = lambda: None  # on every outcome but a 200


def graph_from_json(obj) -> "object":
    """Build a CSR graph from the wire format ``{"n": N, "edges": [[u,v,w?],..]}``."""
    if not isinstance(obj, dict):
        raise HttpError(400, "graph must be an object with 'n' and 'edges'")
    n = obj.get("n")
    edges = obj.get("edges")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise HttpError(400, f"graph 'n' must be an integer >= 2, got {n!r}")
    if not isinstance(edges, list) or not edges:
        raise HttpError(400, "graph 'edges' must be a non-empty list")
    us, vs, ws = [], [], []
    for i, edge in enumerate(edges):
        if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
            raise HttpError(400, f"edge {i} must be [u, v] or [u, v, w]")
        us.append(edge[0])
        vs.append(edge[1])
        ws.append(edge[2] if len(edge) == 3 else 1)
    try:
        return from_edges(n, us, vs, ws)
    except (ValueError, TypeError, OverflowError) as exc:
        raise HttpError(400, f"invalid graph: {exc}") from None


def classify_failure(exc: BaseException) -> tuple[str, int]:
    """Map one solve failure to ``(kind, http_status)`` via the runtime
    fault taxonomy.  ``retryable`` marks the transient pool-recycle class;
    everything classified ``invalid`` is deterministic and must never be
    retried."""
    if isinstance(exc, (WorkerTimeout, TimeoutError)):
        return "timeout", 504
    if isinstance(exc, WorkerCrashed):
        return "retryable", 500
    if isinstance(exc, RequestCancelled):
        return "cancelled", 503
    if isinstance(exc, EngineClosed):
        return "unavailable", 503
    if isinstance(exc, (GraphValidationError, UnkeyableRequest, ValueError,
                        TypeError, KeyError)):
        return "invalid", 400
    if isinstance(exc, RuntimeFault):
        return "fault", 500
    return "internal", 500


class _RequestCtx:
    """Loop-side handle for one admitted solve request.

    Holds every engine future the request has spawned so the disconnect
    watch and the drain state machine can cancel outstanding work from the
    event loop while the blocking solver thread keeps running.
    """

    def __init__(self, rid: int, client: str, route: str, weight: int,
                 deadline_abs: float) -> None:
        self.rid = rid
        self.client = client
        self.route = route
        self.weight = weight
        self.deadline_abs = deadline_abs
        self.t0 = time.monotonic()
        self._lock = threading.Lock()
        self._futures: list[EngineFuture] = []
        self.cancelled = False
        # digest/algorithm of the latest solve (for 504 bodies and logs)
        self.subject: dict = {}

    def register(self, fut: EngineFuture) -> None:
        with self._lock:
            self._futures.append(fut)
            self.subject = {"digest": fut.digest, "algorithm": fut.algorithm}
            if self.cancelled:
                fut.cancel()

    def cancel(self) -> None:
        with self._lock:
            self.cancelled = True
            futures = list(self._futures)
        for fut in futures:
            fut.cancel()

    @property
    def elapsed(self) -> float:
        return round(time.monotonic() - self.t0, 6)


class MinCutService:
    """The HTTP/JSON front end; see module docstring.

    The service borrows the engine — closing the service never closes the
    engine (``python -m repro.service`` owns and closes both).
    """

    def __init__(self, engine: SolverEngine, config: ServiceConfig | None = None,
                 tracer=None) -> None:
        self._engine = engine
        self.config = config or ServiceConfig()
        self._tracer = tracer
        self._admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            per_client_inflight=self.config.per_client_inflight,
        )
        self._server: asyncio.base_events.Server | None = None
        self._state = STOPPED
        self._active: set[_RequestCtx] = set()
        self._conns: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._next_rid = 0
        self._drain_done: asyncio.Event | None = None
        self._drain_summary: dict = {"drained": 0, "cancelled": 0,
                                     "seconds": 0.0}
        # loop-thread-only counters (read via /v1/stats in the same loop)
        self._counters = {
            "connections": 0, "requests": 0, "admitted": 0, "shed": 0,
            "done_ok": 0, "done_error": 0, "disconnects": 0,
            "drain_cancelled": 0, "updates": 0,
        }
        # /v1/update graph registry: created/looked-up on the event loop
        # thread only (no lock needed); solver threads share the handles,
        # whose own lock serialises concurrent updates per graph_id
        self._dynamic: dict[str, object] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start serving; idempotent against double starts."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self._state = RUNNING
        self._drain_done = asyncio.Event()
        self._emit(
            "service_start",
            host=self.config.host,
            port=self.port,
            max_inflight=self.config.max_inflight,
            per_client_inflight=self.config.per_client_inflight,
            drain_grace_s=self.config.drain_grace_s,
            pool_size=self._engine.stats()["pool"]["size"],
        )

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` ephemeral binds)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def state(self) -> str:
        return self._state

    @property
    def admission(self) -> AdmissionController:
        """The live admission controller (read-only observability hook)."""
        return self._admission

    async def drain(self, grace: float | None = None) -> dict:
        """Graceful drain: stop admitting, let inflight finish or
        deadline-out within ``grace`` seconds, cancel stragglers.

        Returns ``{"drained": .., "cancelled": .., "seconds": ..}``.
        Idempotent: concurrent calls await the first drain's completion.
        """
        if self._state == STOPPED and self._server is None:
            return {"drained": 0, "cancelled": 0, "seconds": 0.0}
        if self._state == DRAINING:
            await self._drain_done.wait()
            return dict(self._drain_summary)
        grace = self.config.drain_grace_s if grace is None else grace
        t0 = time.monotonic()
        self._state = DRAINING
        active_at_begin = len(self._active)
        inflight = self._admission.begin_drain()
        self._emit("drain_begin", inflight=inflight,
                   active_requests=active_at_begin, grace_s=grace)
        # stop accepting new connections; existing ones shed via admission
        self._server.close()
        await self._server.wait_closed()

        drained_in_grace = await self._wait_active_empty(grace)
        cancelled = 0
        if not drained_in_grace:
            for ctx in list(self._active):
                ctx.cancel()
                cancelled += 1
            self._counters["drain_cancelled"] += cancelled
            # queued futures resolve as they are cancelled and running
            # solves at their deadline, which the engine enforces as it
            # passes; give the handlers a short, bounded unwind window
            await self._wait_active_empty(5.0)
        seconds = round(time.monotonic() - t0, 6)
        summary = {
            "drained": active_at_begin - cancelled,
            "cancelled": cancelled,
            "seconds": seconds,
        }
        self._emit("drain_end", **summary)
        if self._tracer is not None:
            self._tracer.flush()
        self._drain_summary = dict(summary)
        self._drain_done.set()
        return summary

    async def _wait_active_empty(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while self._active:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.02)
        return True

    async def close(self) -> None:
        """Drain (if still running), close connections, emit the stop event."""
        if self._state == RUNNING or self._state == DRAINING:
            await self.drain()
        # close every transport: each handler then reads end-of-file and
        # unwinds on its own, so close() returns only after every handler
        # has finished (a handler still awaiting its socket when the event
        # loop shuts down would be cancelled there and logged)
        for writer in self._conns.values():
            writer.close()
        if self._conns:
            _done, stuck = await asyncio.wait(list(self._conns),
                                              timeout=CLOSE_GRACE_S)
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
        if self._state != STOPPED:
            self._state = STOPPED
            self._emit("service_stop", **self._counters)
            if self._tracer is not None:
                self._tracer.flush()
        self._server = None

    # -- connection handling -------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conns[task] = writer
        self._counters["connections"] += 1
        stream = BufferedStream(reader)
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else str(peer)
        try:
            await self._serve_connection(stream, writer, peer_host)
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                del self._conns[task]

    async def _serve_connection(self, stream: BufferedStream,
                                writer: asyncio.StreamWriter,
                                peer_host: str) -> None:
        while True:
            try:
                req = await asyncio.wait_for(
                    read_request(stream, self.config.max_body_bytes),
                    timeout=self.config.keepalive_timeout_s,
                )
            except (asyncio.TimeoutError, TimeoutError):
                return  # idle keep-alive connection: close quietly
            except HttpError as exc:
                await write_response(writer, exc.status,
                                     {"error": exc.detail}, keep_alive=False)
                return
            if req is None:
                return  # clean EOF between requests
            self._counters["requests"] += 1
            client = req.headers.get("x-api-key") or peer_host
            keep_alive = req.keep_alive and self._state == RUNNING
            try:
                status, payload, extra = await self._dispatch(req, stream, client)
            except ClientDisconnected:
                self._counters["disconnects"] += 1
                return
            except HttpError as exc:
                status, payload, extra = exc.status, {"error": exc.detail}, None
            try:
                await write_response(writer, status, payload,
                                     keep_alive=keep_alive, extra_headers=extra)
            except (ConnectionError, OSError):
                self._counters["disconnects"] += 1
                return
            if not keep_alive:
                return

    # -- routing -------------------------------------------------------------

    async def _dispatch(self, req: Request, stream: BufferedStream,
                        client: str) -> tuple[int, dict, dict | None]:
        route = ROUTES.get(req.path)
        if route is None:
            raise HttpError(404, f"no route {req.path}")
        if req.method != route.method:
            raise HttpError(405, f"{req.method} not allowed on {req.path}")
        if route.method == "GET":
            return getattr(self, route.handler)()
        return await self._run_route(req, stream, client, route)

    def _healthz(self) -> tuple[int, dict, None]:
        engine_stats = self._engine.stats()
        body = {
            "status": self._state,
            "inflight": self._admission.inflight,
            "engine_queue_depth": engine_stats["queue_depth"],
            "engine_inflight": engine_stats["inflight"],
        }
        # a draining server answers 503 so load balancers stop routing to it
        return (200 if self._state == RUNNING else 503), body, None

    def _stats_reply(self) -> tuple[int, dict, None]:
        return 200, self.stats(), None

    def stats(self) -> dict:
        """The ``/v1/stats`` document: service, admission, engine."""
        return {
            "state": self._state,
            "service": dict(self._counters),
            "admission": self._admission.stats(),
            "engine": self._engine.stats(),
        }

    # -- the route runner ----------------------------------------------------

    async def _run_route(self, req: Request, stream: BufferedStream,
                         client: str, route: _Route
                         ) -> tuple[int, dict, dict | None]:
        """One solve request's lifecycle, the same for every POST route.

        In order: a JSON-object body; a many/batch item count (400/413);
        the deadline; admission or a shed; the route's parse step (an
        :class:`HttpError` there settles the request with its status);
        the job's blocking work on a worker thread, under the disconnect
        watch; then a classified failure or the 200 body.
        """
        body = req.json()
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        weight = self._item_count(body) if route.items else 1
        deadline_abs, timeout_ms = self._deadline_from(req, body)
        ctx, shed = self._admit(req.path, client, weight, deadline_abs,
                                timeout_ms)
        if ctx is None:
            return shed
        try:
            job = getattr(self, route.handler)(body, ctx)
        except HttpError as exc:
            self._request_done(ctx, exc.status)
            raise
        task = asyncio.create_task(asyncio.to_thread(job.work))
        task.add_done_callback(_reap_task)
        try:
            result = await self._await_with_disconnect(task, stream, ctx)
        except ClientDisconnected:
            job.undo()
            self._on_disconnect(ctx, task)
            raise
        except Exception as exc:  # noqa: BLE001 - classified into HTTP statuses
            kind, status = classify_failure(exc)
            job.undo()
            self._request_done(ctx, status)
            return status, self._failure_body(exc, kind, ctx, timeout_ms), None
        payload = job.reply(result)
        self._request_done(ctx, 200)
        return 200, payload, None

    def _item_count(self, body: dict) -> int:
        """A many/batch request's admission weight: its item count."""
        items = body.get("items")
        if not isinstance(items, list) or not items:
            raise HttpError(400, "'items' must be a non-empty list")
        if len(items) > self.config.max_batch_items:
            raise HttpError(413, f"{len(items)} items exceed the "
                                 f"{self.config.max_batch_items}-item bound")
        return len(items)

    def _deadline_from(self, req: Request, body: dict) -> tuple[float, int]:
        """Resolve the request deadline: body ``timeout_ms`` wins over the
        ``X-Timeout-Ms`` header, both clamped to ``max_timeout_ms``."""
        raw = body.get("timeout_ms", req.headers.get("x-timeout-ms"))
        if raw is None:
            timeout_ms = self.config.default_timeout_ms
        else:
            try:
                timeout_ms = int(raw)
            except (TypeError, ValueError):
                raise HttpError(400, f"timeout_ms must be an integer, "
                                     f"got {raw!r}") from None
            if timeout_ms <= 0:
                raise HttpError(400, f"timeout_ms must be positive, got {timeout_ms}")
        timeout_ms = min(timeout_ms, self.config.max_timeout_ms)
        return time.monotonic() + timeout_ms / 1000.0, timeout_ms

    def _shed_response(self, route: str, client: str, shed_reason: str,
                       queue_depth: int) -> tuple[int, dict, dict]:
        self._counters["shed"] += 1
        self._emit("request_shed", route=route, client=client,
                   shed_reason=shed_reason, queue_depth=queue_depth,
                   retry_after_s=self.config.retry_after_s)
        status = 503 if shed_reason == "draining" else 429
        body = {
            "error": "request shed",
            "shed_reason": shed_reason,
            "queue_depth": queue_depth,
        }
        return status, body, {"Retry-After": str(self.config.retry_after_s)}

    def _admit(self, route: str, client: str, weight: int,
               deadline_abs: float, timeout_ms: int):
        """Admission decision + tracing; returns a ctx or a shed response."""
        decision = self._admission.try_admit(client, weight)
        if not decision.admitted:
            return None, self._shed_response(route, client,
                                             decision.shed_reason,
                                             decision.queue_depth)
        self._counters["admitted"] += 1
        rid, self._next_rid = self._next_rid, self._next_rid + 1
        ctx = _RequestCtx(rid, client, route, weight, deadline_abs)
        self._active.add(ctx)
        self._emit("request_admitted", rid=rid, route=route, client=client,
                   items=weight, timeout_ms=timeout_ms,
                   queue_depth=decision.queue_depth)
        return ctx, None

    # -- parse steps of the solve routes -------------------------------------

    def _parse_solve_fields(self, item: dict) -> dict:
        """The per-solve fields of every solve route: algorithm, engine
        kwargs, and the flags ``cache``, ``include_side`` and the output
        shape ``all_cuts``/``most_balanced``, each a JSON boolean."""
        algorithm = item.get("algorithm")
        if algorithm is not None and not isinstance(algorithm, str):
            raise HttpError(400, f"algorithm must be a string, got {algorithm!r}")
        kwargs = item.get("kwargs", {})
        if not isinstance(kwargs, dict):
            raise HttpError(400, "kwargs must be an object")
        kwargs = dict(kwargs)
        if not self.config.allow_test_faults:
            for key in kwargs:
                if key.startswith("_"):
                    raise HttpError(400, f"unknown solver kwarg {key!r}")
        spec = {"algorithm": algorithm, "kwargs": kwargs}
        for key, default in (("cache", True), ("all_cuts", False),
                             ("most_balanced", False), ("include_side", False)):
            flag = item.get(key, default)
            if not isinstance(flag, bool):
                raise HttpError(400, f"{key} must be a boolean, got {flag!r}")
            spec[key] = flag
        return spec

    def _solve_job(self, body: dict, ctx: _RequestCtx) -> _Job:
        """``POST /v1/solve``: one graph in the request body."""
        spec = self._parse_solve_fields(body)
        graph = graph_from_json(body.get("graph"))
        return _Job(lambda: self._solve_blocking(ctx, graph, spec),
                    lambda result: self._result_body(result, spec, ctx))

    def _edge_batch(self, body: dict, key: str, arity: int) -> list:
        """Validate the wire shape of an ``inserts``/``deletes`` list."""
        batch = body.get(key, [])
        if not isinstance(batch, list):
            raise HttpError(400, f"'{key}' must be a list")
        for i, row in enumerate(batch):
            if not isinstance(row, (list, tuple)) or not (
                2 <= len(row) <= arity
            ):
                want = "[u, v]" if arity == 2 else "[u, v] or [u, v, w]"
                raise HttpError(400, f"{key}[{i}] must be {want}")
        return batch

    def _update_job(self, body: dict, ctx: _RequestCtx) -> _Job:
        """``POST /v1/update``: apply an edge batch to a dynamic graph and
        return the (warm) re-solve.

        A request carrying ``graph`` registers a new ``graph_id`` (409 if
        taken, 413 when the registry is full); one without must name a
        known id (404).  The event loop thread owns the registry.  A
        registration holds its id while in flight, so a concurrent one gets
        the 409, and is undone unless the request ends in a 200.
        """
        from ..dynamic import DynamicGraph

        spec = self._parse_solve_fields(body)
        inserts = self._edge_batch(body, "inserts", 3)
        deletes = self._edge_batch(body, "deletes", 2)
        graph_id = body.get("graph_id")
        if not isinstance(graph_id, str) or not graph_id:
            raise HttpError(400, "'graph_id' must be a non-empty string")
        registers = "graph" in body
        if registers:
            if graph_id in self._dynamic:
                raise HttpError(
                    409, f"graph_id {graph_id!r} is already registered; "
                         "omit 'graph' to update it"
                )
            if len(self._dynamic) >= self.config.max_dynamic_graphs:
                raise HttpError(
                    413, f"dynamic graph registry is full "
                         f"({self.config.max_dynamic_graphs} graphs)"
                )
            self._dynamic[graph_id] = DynamicGraph(graph_from_json(body["graph"]))
        handle = self._dynamic.get(graph_id)
        if handle is None:
            raise HttpError(
                404, f"unknown graph_id {graph_id!r}; register it by "
                     "including 'graph' in the first request"
            )
        self._counters["updates"] += 1

        def reply(out) -> dict:
            result, snapshot = out
            return {**self._result_body(result, spec, ctx),
                    "graph_id": graph_id, **snapshot,
                    "warm": result.stats.get("warm")}

        def unregister() -> None:
            if registers:
                del self._dynamic[graph_id]

        return _Job(
            lambda: self._update_blocking(ctx, handle, inserts, deletes, spec),
            reply, unregister,
        )

    def _items_job(self, body: dict, ctx: _RequestCtx, *, batch: bool) -> _Job:
        """``POST /v1/solve_many`` (graphs inline) and ``POST /v1/batch``
        (a manifest of server-side files): one entry per item, failed items
        as error entries.  Request-level fields are the items' defaults,
        except ``include_side``, which each item sets for itself."""
        defaults = self._parse_solve_fields(body)
        specs = [self._parse_item(item, i, batch, defaults)
                 for i, item in enumerate(body["items"])]

        def reply(entries: list[dict]) -> dict:
            failed = sum(1 for e in entries if "error" in e)
            return {"results": entries, "items": len(entries),
                    "failed": failed}

        return _Job(lambda: self._solve_many_blocking(ctx, specs), reply)

    _solve_many_job = functools.partialmethod(_items_job, batch=False)
    _batch_job = functools.partialmethod(_items_job, batch=True)

    def _parse_item(self, item, index: int, batch: bool,
                    defaults: dict) -> dict:
        """One solve_many/batch item → a normalized spec for the collector."""
        if not isinstance(item, dict):
            raise HttpError(400, f"item {index} must be an object")
        kwargs = item.get("kwargs", {})
        spec = self._parse_solve_fields({
            **{key: item.get(key, defaults[key])
               for key in ("algorithm", "cache", "all_cuts", "most_balanced")},
            "kwargs": ({**defaults["kwargs"], **kwargs}
                       if isinstance(kwargs, dict) else kwargs),
            "include_side": item.get("include_side", False),
        })
        if batch:
            path = item.get("path")
            if not isinstance(path, str) or not path:
                raise HttpError(400, f"batch item {index} has no 'path'")
            spec["path"] = path
            spec["format"] = item.get("format", "metis")
            if spec["format"] not in ("metis", "edgelist"):
                raise HttpError(400, f"batch item {index} format must be "
                                     f"'metis' or 'edgelist'")
        else:
            spec["graph"] = graph_from_json(item.get("graph"))
        return spec

    # -- blocking work (worker threads) --------------------------------------

    def _attempt(self, ctx: _RequestCtx, algorithm: str | None, digest,
                 attempt):
        """Run ``attempt(remaining_s)`` once on a ``to_thread`` worker,
        unless the client went away or the deadline has passed (a spent
        budget raises :meth:`_budget_spent`, the one caller of
        ``digest()``).  A crashed pooled solve is retried by the engine,
        not here."""
        if ctx.cancelled:
            raise RequestCancelled("client went away")
        remaining = ctx.deadline_abs - time.monotonic()
        if remaining <= 0:
            raise self._budget_spent(ctx, digest(), algorithm)
        return attempt(remaining)

    def _budget_spent(self, ctx: _RequestCtx, digest: str,
                      algorithm: str | None) -> WorkerTimeout:
        """The deadline passed before the submit: no worker was involved,
        so the error names the request instead of a worker id."""
        algorithm = algorithm or self._engine.default_algorithm
        ctx.subject = {"digest": digest, "algorithm": algorithm}
        budget = ctx.deadline_abs - ctx.t0
        return WorkerTimeout(
            None,
            budget,
            message=(
                f"{ctx.route} request {ctx.rid} (algorithm={algorithm}, "
                f"digest={digest[:12]}) spent its {budget:.3g}s deadline "
                f"after {ctx.elapsed:.3f}s, before a solve attempt could start"
            ),
        )

    def _solve_blocking(self, ctx: _RequestCtx, graph, spec: dict):
        """Submit + await one engine solve, under :meth:`_attempt`."""

        def attempt(remaining: float):
            fut = self._engine.submit(
                graph, spec["algorithm"], deadline=remaining,
                cache=spec["cache"], all_cuts=spec["all_cuts"],
                most_balanced=spec["most_balanced"], **spec["kwargs"],
            )
            ctx.register(fut)
            # the engine enforces the real deadline; the +1s margin only
            # guards against a wedged dispatcher, mapping to 504 anyway
            return fut.result(timeout=remaining + 1.0)

        return self._attempt(ctx, spec["algorithm"],
                             lambda: graph_digest(graph), attempt)

    def _update_blocking(self, ctx: _RequestCtx, handle, inserts, deletes,
                         spec: dict):
        """Apply + re-solve one update, under :meth:`_attempt`.  Returns
        the result and the version, digest and size the batch produced,
        read under the handle's lock, before a concurrent batch moves it."""

        def attempt(remaining: float):
            with handle.lock:
                result = self._engine.update(
                    handle, inserts, deletes, algorithm=spec["algorithm"],
                    deadline=remaining, cache=spec["cache"],
                    all_cuts=spec["all_cuts"],
                    most_balanced=spec["most_balanced"], **spec["kwargs"],
                )
                return result, {"version": handle.version,
                                "digest": handle.digest,
                                "n": handle.graph.n, "m": handle.graph.m}

        return self._attempt(ctx, spec["algorithm"], lambda: handle.digest,
                             attempt)

    def _solve_many_blocking(self, ctx: _RequestCtx,
                             specs: list[dict]) -> list[dict]:
        """Collect a whole solve_many/batch request; per-item error entries."""
        entries = []
        for spec in specs:
            try:
                graph = spec.get("graph")
                if graph is None:  # batch item: read server-side
                    graph = _read_item(spec["path"], spec["format"])
                result = self._solve_blocking(ctx, graph, spec)
            except Exception as exc:  # noqa: BLE001 - per-item entries
                entry = {"error": str(exc), "kind": classify_failure(exc)[0]}
            else:
                entry = self._result_body(result, spec, ctx)
            if "path" in spec:
                entry["path"] = spec["path"]
            entries.append(entry)
            if entry.get("kind") == "cancelled":
                # the client is gone or the drain cancelled us: stop
                # burning pool time on the remaining items
                entries.extend(
                    {"error": "cancelled before solving", "kind": "cancelled"}
                    for _ in specs[len(entries):]
                )
                break
        return entries

    # -- await / disconnect / completion helpers -----------------------------

    async def _await_with_disconnect(self, solve_task: asyncio.Task,
                                     stream: BufferedStream,
                                     ctx: _RequestCtx):
        """Await the solve while watching the connection for EOF.

        Bytes that arrive mid-solve (a pipelined next request) are fed back
        into the stream buffer; EOF raises :class:`ClientDisconnected`.
        """
        while True:
            watch = asyncio.create_task(stream.read_underlying())
            try:
                done, _pending = await asyncio.wait(
                    {solve_task, watch}, return_when=asyncio.FIRST_COMPLETED
                )
            finally:
                if not watch.done():
                    watch.cancel()
                    await asyncio.gather(watch, return_exceptions=True)
            if solve_task in done:
                if watch.done() and not watch.cancelled():
                    exc = watch.exception()
                    if exc is None and watch.result():
                        stream.feed(watch.result())
                return solve_task.result()
            data = watch.result()
            if not data:
                raise ClientDisconnected(f"request {ctx.rid}: client hung up")
            stream.feed(data)

    def _on_disconnect(self, ctx: _RequestCtx, solve_task: asyncio.Task) -> None:
        """Cancel a vanished client's work; settle accounting when the
        blocking solver actually unwinds."""
        ctx.cancel()
        self._emit("client_disconnect", rid=ctx.rid, route=ctx.route,
                   client=ctx.client, seconds=ctx.elapsed)

        def settle(_task: asyncio.Task) -> None:
            self._settle(ctx)

        if solve_task.done():
            self._settle(ctx)
        else:
            solve_task.add_done_callback(settle)

    def _settle(self, ctx: _RequestCtx) -> None:
        """Release the admission units exactly once per request."""
        if ctx in self._active:
            self._active.discard(ctx)
            self._admission.release(ctx.client, ctx.weight)

    def _request_done(self, ctx: _RequestCtx, status: int) -> None:
        self._settle(ctx)
        self._counters["done_ok" if status < 400 else "done_error"] += 1
        self._emit("request_done", rid=ctx.rid, route=ctx.route,
                   status=status, seconds=ctx.elapsed)

    def _result_body(self, result, spec: dict, ctx: _RequestCtx) -> dict:
        body = {
            "value": int(result.value),
            "algorithm": result.algorithm,
            "n": int(result.n),
            "seconds": ctx.elapsed,
        }
        if spec["include_side"] and result.side is not None:
            body["side"] = [int(v) for v in result.smaller_side()]
        if result.cactus is not None:
            body["num_min_cuts"] = result.num_min_cuts()
            info = result.stats.get("most_balanced")
            if info is not None:
                body["most_balanced"] = {
                    **info,
                    "side": [int(v) for v in result.smaller_side()],
                    "in_cut": [int(v) for v in result.cactus.in_cut()],
                }
        return body

    def _failure_body(self, exc: BaseException, kind: str, ctx: _RequestCtx,
                      timeout_ms: int) -> dict:
        body = {"error": str(exc), "kind": kind, "elapsed_s": ctx.elapsed}
        if kind in ("timeout", "retryable", "fault"):
            body.update(ctx.subject)
        if kind == "timeout":
            body["timeout_ms"] = timeout_ms
        return body

    def _emit(self, kind: str, **fields) -> None:
        if self._tracer is not None:
            self._tracer.emit(kind, **fields)


def _read_item(path: str, fmt: str):
    """Read one batch item's graph file.  Whatever goes wrong, the error
    names only the path and format: a reader's message may quote the file
    (its offending line) or the OS error, and neither may reach a client."""
    reader = read_metis if fmt == "metis" else read_edge_list
    try:
        return reader(path)
    except Exception:  # noqa: BLE001 - masked on purpose, see docstring
        raise ValueError(f"cannot read a {fmt} graph from {path!r}") from None


def _reap_task(task: asyncio.Task) -> None:
    """Retrieve (and drop) a task's exception so nothing logs as unretrieved."""
    if not task.cancelled():
        task.exception()
