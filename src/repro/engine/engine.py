"""The persistent solver engine: pooled workers, batching, result cache.

:class:`SolverEngine` turns the one-shot :func:`repro.minimum_cut` call
into a long-lived service primitive::

    with SolverEngine(pool_size=4) as engine:
        fut = engine.submit(g1, algorithm="parcut", seed=0)   # async
        res = engine.solve(g2)                                # sync
        results = engine.solve_many([g1, g2, g3])             # batch
        res = fut.result(timeout=30)

What one engine amortises across solves (versus per-call
``parallel_mincut``):

* **process startup** — ``pool_size`` solve workers are spawned once and
  reused for whole solves (:mod:`~repro.engine.pool`);
* **plane setup** — each distinct graph is exported to shared memory once
  and leased per request (:mod:`~repro.engine.planes`);
* **repeated work** — an LRU cache keyed by canonical graph digest plus
  solve configuration returns repeated solves in O(1)
  (:mod:`~repro.engine.cache`, :mod:`~repro.engine.keys`).

Requests carry optional per-request **deadlines** (a blown deadline fails
that request with :class:`~repro.runtime.WorkerTimeout` and recycles the
worker it occupied) and support **cancellation** while still queued.
Failure handling follows the runtime's degradation philosophy: a crashed
worker is recycled and its request retried once on a fresh worker; an
engine whose pool exhausts its recycle budget abandons the pool and keeps
serving requests in-process (degraded, never wedged) — the
``processes → serial`` ladder, one level up.

Threading model: callers only touch the pending queue, the cache, and
futures (all lock-protected or thread-safe).  Worker assignment, result
collection, deadlines, and pool lifecycle belong to the single dispatcher
thread, so ``_inflight``/``_idle``/pool teardown need no further locking.
The dispatcher is event-driven: it blocks in one
:func:`multiprocessing.connection.wait` over a wake pipe (written by
:meth:`~SolverEngine.submit` and :meth:`~SolverEngine.close`), every
worker's result pipe and every worker's process sentinel, with the timeout
set to the earliest pending or in-flight deadline.  A request is assigned
as soon as it is submitted, a result completes its future as soon as it is
posted, a dead worker is recycled as soon as it exits, and a deadline
fires when it expires.

Observability: pass ``tracer=`` to record the engine-level event kinds
(``engine_start``/``engine_stop``, ``request_start``/``request_end``,
``cache_hit``, ``pool_recycle``) of the closed taxonomy in
:mod:`repro.observability.schema`.  Solver-internal events stay inside the
pooled workers; the engine trace is the request-level view.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any

from ..core.result import MinCutResult
from ..runtime.errors import WorkerCrashed, WorkerTimeout
from ..runtime.pool import WorkerPool
from .cache import ResultCache
from .keys import graph_digest, request_key
from .planes import PlaneRegistry
from .pool import _pool_worker_main, _pooled_error

#: kwargs that name live objects — impossible to ship to a pooled worker
#: process or to canonicalise into a cache key.  ``rng`` is fine as an
#: *integer* seed; a live Generator fails request keying instead.
_UNPOOLABLE_KWARGS = ("tracer", "fault_plan")

#: worker crashes tolerated (with respawn) before the pool is abandoned
#: and the engine degrades to in-process solving
DEFAULT_MAX_RECYCLES = 3

#: dispatch attempts per request (i.e. one retry after a worker crash;
#: blown deadlines never retry — the caller's budget is already spent)
_MAX_ATTEMPTS = 2


class EngineClosed(RuntimeError):
    """The engine was closed; no further requests are accepted."""


class RequestCancelled(RuntimeError):
    """The request was cancelled before it started solving."""


@dataclass
class _Request:
    req_id: int
    graph: Any
    digest: str
    key: str
    algorithm: str
    kwargs: dict
    options: dict
    cacheable: bool
    deadline: float | None  # absolute monotonic, None = no deadline
    future: "EngineFuture | None" = None
    attempts: int = 0
    leased: bool = False
    submitted_at: float = field(default_factory=time.monotonic)


class EngineFuture:
    """Completion handle for one submitted solve request."""

    def __init__(self, engine: "SolverEngine", request: _Request) -> None:
        self._engine = engine
        self._request = request
        self._event = threading.Event()
        self._result: MinCutResult | None = None
        self._exception: BaseException | None = None
        self._cancelled = False

    # -- engine side --------------------------------------------------------

    def _fulfill(self, result: MinCutResult) -> None:
        self._result = result
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._exception = exc
        self._event.set()

    def _mark_cancelled(self) -> None:
        self._cancelled = True
        self._event.set()

    # -- caller side --------------------------------------------------------

    @property
    def req_id(self) -> int:
        return self._request.req_id

    @property
    def digest(self) -> str:
        """Canonical graph digest of the underlying request."""
        return self._request.digest

    @property
    def algorithm(self) -> str:
        return self._request.algorithm

    def _timeout_message(self, timeout: float | None) -> str:
        """Request context for a blown ``result()``/``exception()`` wait —
        enough for a service 504 body or a log line to be actionable."""
        req = self._request
        now = time.monotonic()
        if req.deadline is None:
            deadline_part = "no deadline"
        else:
            deadline_part = f"deadline in {req.deadline - now:.3f}s"
        return (
            f"request {req.req_id} (algorithm={req.algorithm}, "
            f"digest={req.digest[:12]}) not done after {timeout}s wait; "
            f"{now - req.submitted_at:.3f}s since submit, {deadline_part}"
        )

    def cancel(self) -> bool:
        """Cancel if still queued.  Returns ``False`` once solving has
        begun — in-flight work is never interrupted (its result simply
        lands in the cache for free)."""
        return self._engine._cancel(self._request)

    def cancelled(self) -> bool:
        return self._cancelled

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> MinCutResult:
        """Block for the result; raises the request's failure, if any."""
        if not self._event.wait(timeout):
            raise TimeoutError(self._timeout_message(timeout))
        if self._cancelled:
            raise RequestCancelled(f"request {self._request.req_id} was cancelled")
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._event.wait(timeout):
            raise TimeoutError(self._timeout_message(timeout))
        return self._exception


class SolverEngine:
    """Persistent minimum-cut solver: see module docstring.

    Parameters
    ----------
    pool_size:
        Persistent solve workers.  ``0`` disables the pool outright — the
        engine then solves in-process on its dispatcher thread (batching
        and caching still apply; useful where process pools are
        unavailable).
    cache_size:
        LRU result-cache capacity (entries); ``0`` disables caching.
    plane_capacity:
        Distinct graphs kept resident in shared memory between solves.
    start_method:
        Multiprocessing start method for the pool (default: the platform
        default, overridable via ``REPRO_START_METHOD``).
    default_algorithm:
        Algorithm used when a request names none.
    max_recycles:
        Worker replacements tolerated before the pool is abandoned and
        the engine degrades to in-process solving.
    tracer:
        Optional :class:`repro.observability.Tracer` for the engine-level
        event kinds.
    """

    def __init__(
        self,
        *,
        pool_size: int = 2,
        cache_size: int = 128,
        plane_capacity: int = 8,
        start_method: str | None = None,
        default_algorithm: str = "noi-viecut",
        max_recycles: int = DEFAULT_MAX_RECYCLES,
        tracer=None,
    ) -> None:
        from ..core.api import ALGORITHMS, UnknownAlgorithmError

        if default_algorithm not in ALGORITHMS:
            raise UnknownAlgorithmError(default_algorithm)
        self.default_algorithm = default_algorithm
        self.max_recycles = max_recycles
        self._tracer = tracer
        self._cache = ResultCache(cache_size)
        self._planes = PlaneRegistry(capacity=plane_capacity)
        self._pool: WorkerPool | None = (
            WorkerPool(_pool_worker_main, pool_size, start_method)
            if pool_size > 0 else None
        )
        self._lock = threading.Lock()
        # self-pipe: submit/close write a byte, the dispatcher's wait wakes
        self._wake_recv, self._wake_send = os.pipe()
        os.set_blocking(self._wake_recv, False)
        os.set_blocking(self._wake_send, False)
        self._pending: deque[_Request] = deque()
        # no later than the earliest deadline in _pending (None: no queued
        # request has one); it may lag behind requests that left the queue
        self._queue_deadline: float | None = None
        # dispatcher-thread-only state (see module docstring):
        self._inflight: dict[int, _Request] = {}  # worker_id -> request
        self._idle: set[int] = set(range(pool_size)) if self._pool else set()
        self._req_ids = itertools.count()
        self._closing = False
        self._closed = False
        self._counters = {
            "submitted": 0, "completed": 0, "failed": 0, "cancelled": 0,
            "retries": 0, "inline_solves": 0, "pool_abandoned": False,
            "updates": 0, "updates_fast_path": 0, "updates_seeded": 0,
            "updates_cold": 0, "cache_invalidated": 0,
        }
        if tracer is not None:
            tracer.emit(
                "engine_start",
                pool_size=pool_size,
                cache_size=cache_size,
                plane_capacity=plane_capacity,
                start_method=self._pool.start_method if self._pool else None,
                default_algorithm=default_algorithm,
            )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="engine-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- public API ---------------------------------------------------------

    def submit(
        self,
        graph,
        algorithm: str | None = None,
        *,
        deadline: float | None = None,
        cache: bool = True,
        all_cuts: bool = False,
        most_balanced: bool = False,
        **kwargs,
    ) -> EngineFuture:
        """Enqueue one solve; returns an :class:`EngineFuture`.

        ``deadline`` is seconds from now for the whole request (queueing
        included); a blown deadline fails the future with
        :class:`~repro.runtime.WorkerTimeout`.  ``cache=False`` bypasses
        both lookup and store for this request.  ``all_cuts`` /
        ``most_balanced`` request the all-min-cuts cactus on the result
        (see :func:`repro.minimum_cut`); they shape the *output*, so they
        key a separate cache dimension — a value-only cached result is
        never served to a cactus request.  ``kwargs`` are forwarded
        to the solver and must be canonicalisable (JSON scalars and
        containers — seed with ``rng=<int>``, never a live Generator or
        tracer object).
        """
        algorithm, options = self._check_request(
            algorithm, all_cuts, most_balanced, kwargs, deadline
        )
        return self._submit(graph, graph_digest(graph), algorithm, options,
                            kwargs, deadline, cache)

    def _submit(self, graph, digest: str, algorithm: str, options: dict,
                kwargs: dict, deadline: float | None,
                cache: bool) -> EngineFuture:
        """:meth:`submit` past its request check, for a graph whose digest
        is known (:meth:`update` has its handle's)."""
        # pooled workers are daemonic and may not fork grandchildren; the
        # pool already provides cross-request process parallelism
        if self._pool is not None and kwargs.get("executor") == "processes":
            kwargs = dict(kwargs, executor="serial")
        key = request_key(digest, algorithm, kwargs, options)
        with self._lock:
            if self._closing or self._closed:
                raise EngineClosed("engine is closed")
            req = _Request(
                req_id=next(self._req_ids),
                graph=graph,
                digest=digest,
                key=key,
                algorithm=algorithm,
                kwargs=kwargs,
                options=options,
                cacheable=cache,
                deadline=None if deadline is None else time.monotonic() + deadline,
            )
            req.future = EngineFuture(self, req)
            self._counters["submitted"] += 1
            self._emit(
                "request_start", req_id=req.req_id, digest=digest,
                algorithm=algorithm, n=graph.n, m=graph.m, deadline_s=deadline,
            )
            cached = self._cache.get(key) if cache else None
            if cached is not None:
                self._emit("cache_hit", req_id=req.req_id, digest=digest)
                self._finish(req, result=cached, status="cached", locked=True)
                return req.future
            self._enqueue(req)
            self._signal()
        return req.future

    def solve(
        self,
        graph,
        algorithm: str | None = None,
        *,
        deadline: float | None = None,
        cache: bool = True,
        **kwargs,
    ) -> MinCutResult:
        """Synchronous :meth:`submit` + ``result()``."""
        return self.submit(
            graph, algorithm, deadline=deadline, cache=cache, **kwargs
        ).result()

    def update(
        self,
        dynamic,
        inserts=(),
        deletes=(),
        *,
        algorithm: str | None = None,
        deadline: float | None = None,
        cache: bool = True,
        all_cuts: bool = False,
        most_balanced: bool = False,
        **kwargs,
    ) -> MinCutResult:
        """Apply an edge-update batch to a :class:`~repro.dynamic.DynamicGraph`
        and re-solve it — warm when possible.

        The batch is applied first (incremental CSR merge, see
        :mod:`repro.dynamic.graph`); the superseded digest's cache entries
        are evicted by lineage (:meth:`ResultCache.invalidate_digest` —
        other graphs' entries survive).  Then the cheapest exact path wins:

        1. **cache** — an identical request on the post-update graph; a
           cached exact result with a side also seeds the warm state, as
           a cold solve does, unless the state already holds this graph;
        2. **fast path** — the carried λ̂ bounds meet across the batch and
           the re-priced old side (or a touched trivial cut) is *proven*
           minimum without solving (:mod:`repro.dynamic.warm`);
        3. **seeded solve** — NOI seeded with the certified post-update
           bound and side, on the certificate-contracted graph when the
           strict certificate survives the batch;
        4. **cold solve** — queued as :meth:`submit` queues it, on the
           handle's digest (non-warmable algorithm, no prior state, or a
           side-less previous result).

        Warm results are exact: the value always equals a cold re-solve's;
        the side is a certified minimum cut (when several minimum cuts
        exist it may legitimately differ from the cold solver's pick —
        ``all_cuts``/``most_balanced`` outputs are canonical either way,
        since the cactus is deterministic given the graph).  ``deadline``
        applies to the cold-fallback path; warm re-solves are run to
        completion on the calling thread (they are the cheap path).
        ``result.stats["warm"]`` records which path ran.
        """
        from ..core.api import EXACT_ALGORITHMS, attach_cactus, check_options
        from ..dynamic import make_warm_state, warm_solve

        algorithm, options = self._check_request(
            algorithm, all_cuts, most_balanced, kwargs, deadline
        )
        # canary keying: reject uncanonicalisable kwargs *before* mutating
        # the graph, so a bad request leaves the handle untouched; the warm
        # paths run none of a solver's entry checks, so those run here too,
        # on every kwarg but the engine's own fault hook
        request_key("0" * 32, algorithm, kwargs, options)
        check_options(algorithm, {k: v for k, v in kwargs.items() if k != "_test_fault"})
        with self._lock:
            if self._closing or self._closed:
                raise EngineClosed("engine is closed")

        with dynamic.lock:
            old_digest = dynamic.digest
            t0 = time.monotonic()
            delta = dynamic.apply(inserts, deletes)
            invalidated = 0
            if not delta.is_noop:
                invalidated = self._cache.invalidate_digest(old_digest)
            graph = dynamic.graph
            self._emit(
                "graph_update",
                old_digest=old_digest[:12], new_digest=delta.new_digest[:12],
                version=dynamic.version, n=graph.n, m=graph.m,
                num_inserted=delta.num_inserted, num_deleted=delta.num_deleted,
                inserted_weight=delta.inserted_weight,
                deleted_weight=delta.deleted_weight,
                cache_invalidated=invalidated,
                apply_seconds=round(time.monotonic() - t0, 6),
            )
            key = request_key(delta.new_digest, algorithm, kwargs, options)
            state = dynamic.warm
            if cache:
                cached = self._cache.get(key)
                if cached is not None:
                    self._emit("cache_hit", digest=delta.new_digest,
                               source="update")
                    # seed the warm state as a cold solve does; keep a state
                    # already on this digest (and the certificate it may
                    # have computed: every update-stream read lands here)
                    if ((state is None or state.digest != delta.new_digest)
                            and algorithm in EXACT_ALGORITHMS
                            and cached.side is not None):
                        dynamic.warm = make_warm_state(graph, delta.new_digest, cached)
                    with self._lock:
                        self._counters["updates"] += 1
                        self._counters["cache_invalidated"] += invalidated
                    return cached

            out = None
            if state is not None and state.digest == old_digest:
                out = warm_solve(
                    graph, state, delta, algorithm=algorithm, kwargs=kwargs
                )
            if out is not None:
                result, info = out
                if options["all_cuts"]:
                    attach_cactus(graph, result, most_balanced=most_balanced)
                if info["mode"] == "fast-path":
                    counter = "updates_fast_path"
                    state.advance(delta, result)
                else:
                    counter = "updates_seeded"
                    dynamic.warm = make_warm_state(graph, delta.new_digest, result)
                if cache:
                    self._cache.put(key, result)
            else:
                result = self._submit(
                    graph, delta.new_digest, algorithm, options, kwargs,
                    deadline, cache,
                ).result()
                info = {
                    "mode": "cold", "seed_value": None, "lower_bound": None,
                    "previous_value": None if state is None else state.value,
                    "inserted_weight": delta.inserted_weight,
                    "deleted_weight": delta.deleted_weight,
                    "contracted_n": None,
                }
                counter = "updates_cold"
                if algorithm in EXACT_ALGORITHMS and result.side is not None:
                    dynamic.warm = make_warm_state(graph, delta.new_digest, result)
                else:
                    dynamic.warm = None
            result.stats.setdefault("warm", info)
            seconds = round(time.monotonic() - t0, 6)
            with self._lock:
                self._counters["updates"] += 1
                self._counters[counter] += 1
                self._counters["cache_invalidated"] += invalidated
            self._emit(
                "warm_solve",
                mode=info["mode"], value=int(result.value),
                seed_value=info.get("seed_value"),
                lower_bound=info.get("lower_bound"),
                contracted_n=info.get("contracted_n"),
                digest=delta.new_digest[:12], algorithm=algorithm,
                seconds=seconds,
            )
            return result

    def solve_many(
        self,
        items,
        *,
        deadline: float | None = None,
        return_exceptions: bool = False,
        **common_kwargs,
    ) -> list:
        """Solve a batch concurrently; results in submission order.

        ``items`` are graphs, ``(graph, algorithm)`` pairs, or dicts
        ``{"graph": g, "algorithm": ..., "deadline": ..., **solver_kwargs}``
        (per-item entries override the call-level defaults).  With
        ``return_exceptions=True`` failed items come back as exception
        objects in-place instead of raising on the first failure — the
        CLI batch mode uses this for per-item exit status.
        """
        futures = []
        for item in items:
            kwargs = dict(common_kwargs)
            algorithm = None
            item_deadline = deadline
            cache = True
            if isinstance(item, dict):
                item = dict(item)
                graph = item.pop("graph")
                algorithm = item.pop("algorithm", None)
                item_deadline = item.pop("deadline", deadline)
                cache = item.pop("cache", True)
                kwargs.update(item)
            elif isinstance(item, tuple):
                graph, algorithm = item
            else:
                graph = item
            futures.append(
                self.submit(graph, algorithm, deadline=item_deadline,
                            cache=cache, **kwargs)
            )
        results = []
        for fut in futures:
            if return_exceptions:
                try:
                    results.append(fut.result())
                except Exception as exc:  # noqa: BLE001 - collected per item
                    results.append(exc)
            else:
                results.append(fut.result())
        return results

    def stats(self) -> dict:
        """Snapshot of request counters, cache, planes, and pool health.

        ``queue_depth`` (requests accepted but not yet dispatched) and
        ``inflight`` (requests currently occupying a worker) are the two
        numbers admission control upstream needs: their sum is the
        engine's total outstanding work.
        """
        with self._lock:
            counters = dict(self._counters)
            pending = len(self._pending)
        pool = self._pool
        return {
            **counters,
            "pending": pending,
            "queue_depth": pending,
            "inflight": len(self._inflight),
            "cache": self._cache.stats(),
            "planes": self._planes.stats(),
            "pool": {
                "size": pool.size if pool else 0,
                "start_method": pool.start_method if pool else None,
                "recycles": pool.recycles if pool else 0,
            },
        }

    def close(self, *, drain: bool = True) -> None:
        """Stop the engine.  ``drain=True`` finishes queued work first;
        ``drain=False`` cancels everything still pending."""
        with self._lock:
            if self._closed:
                return
            already_closing = self._closing
            self._closing = True
            if not drain:
                while self._pending:
                    req = self._pending.popleft()
                    self._counters["cancelled"] += 1
                    self._emit("request_end", req_id=req.req_id,
                               status="cancelled", seconds=self._elapsed(req))
                    req.future._mark_cancelled()
            self._signal()
        if already_closing:
            return
        self._dispatcher.join(timeout=120.0)
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if not self._dispatcher.is_alive():
            os.close(self._wake_recv)
            os.close(self._wake_send)
        self._planes.close()
        with self._lock:
            self._closed = True
            self._emit("engine_stop", cache_hits=self._cache.hits,
                       cache_misses=self._cache.misses, **self._counters)

    def __enter__(self) -> "SolverEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _check_request(self, algorithm, all_cuts, most_balanced, kwargs,
                       deadline) -> tuple[str, dict]:
        """The request check :meth:`submit` and :meth:`update` share.

        Resolves the algorithm (default when ``None``), rejects cactus
        options on an inexact algorithm, live-object and private (leading
        ``_``, but the engine's ``_test_fault``) kwargs and a non-positive
        deadline, and returns the algorithm with the output options
        (``all_cuts`` implied by ``most_balanced``).
        """
        from ..core.api import ALGORITHMS, EXACT_ALGORITHMS, UnknownAlgorithmError

        algorithm = algorithm or self.default_algorithm
        if algorithm not in ALGORITHMS:
            raise UnknownAlgorithmError(algorithm)
        all_cuts = bool(all_cuts or most_balanced)
        if all_cuts and algorithm not in EXACT_ALGORITHMS:
            raise ValueError(
                f"all_cuts/most_balanced require an exact algorithm, got {algorithm!r}"
            )
        for bad in _UNPOOLABLE_KWARGS:
            if bad in kwargs:
                raise ValueError(
                    f"{bad!r} cannot cross the engine boundary; seed with an "
                    "integer and trace at the engine level instead"
                )
        for key in kwargs:
            if key.startswith("_") and key != "_test_fault":
                raise TypeError(f"{algorithm} got an unexpected keyword argument {key!r}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        return algorithm, {"all_cuts": all_cuts,
                           "most_balanced": bool(most_balanced)}

    def _emit(self, kind: str, **fields) -> None:
        if self._tracer is not None:
            self._tracer.emit(kind, **fields)

    def _enqueue(self, req: _Request, *, front: bool = False) -> None:
        """Queue a request; the deadline bound stays at or before its
        deadline (caller holds the lock)."""
        if front:
            self._pending.appendleft(req)
        else:
            self._pending.append(req)
        if req.deadline is not None and (
            self._queue_deadline is None or req.deadline < self._queue_deadline
        ):
            self._queue_deadline = req.deadline

    def _signal(self) -> None:
        """Wake the dispatcher (caller holds the lock, engine not closed)."""
        try:
            os.write(self._wake_send, b"\0")
        except BlockingIOError:
            pass  # pipe full: the dispatcher has wake-ups queued already

    @staticmethod
    def _elapsed(req: _Request) -> float:
        return round(time.monotonic() - req.submitted_at, 6)

    def _cancel(self, req: _Request) -> bool:
        with self._lock:
            if req.future.done():
                return False
            try:
                self._pending.remove(req)
            except ValueError:
                return False  # already dispatched (or finishing right now)
            self._counters["cancelled"] += 1
            self._emit("request_end", req_id=req.req_id, status="cancelled",
                       seconds=self._elapsed(req))
            req.future._mark_cancelled()
            return True

    def _finish(self, req: _Request, *, result=None, exc=None, status="ok",
                locked=False) -> None:
        """Resolve one request: plane release, cache store, trace, future."""
        if req.leased:
            self._planes.release(req.digest)
            req.leased = False
        if result is not None and req.cacheable and status == "ok":
            self._cache.put(req.key, result)

        def record() -> None:
            self._counters["completed" if exc is None else "failed"] += 1
            self._emit(
                "request_end", req_id=req.req_id, status=status,
                seconds=self._elapsed(req),
                value=None if result is None else int(result.value),
            )

        if locked:
            record()
        else:
            with self._lock:
                record()
        if exc is not None:
            req.future._fail(exc)
        else:
            req.future._fulfill(result)

    # -- dispatcher thread ---------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Assign, then block until there is something to do."""
        while True:
            inline: list[_Request] = []
            with self._lock:
                if self._closing and not self._pending and not self._inflight:
                    return
                next_deadline = self._assign(inline)
            for req in inline:
                self._solve_inline(req)
            if not inline:
                self._wait(next_deadline)

    def _assign(self, inline: list) -> float | None:
        """Move pending requests to idle workers (caller holds the lock).

        Returns the earliest deadline queued or in flight: the dispatcher's
        wait timeout.
        """
        now = time.monotonic()
        if self._queue_deadline is not None and now > self._queue_deadline:
            self._expire_queued(now)
        while self._pending:
            req = self._pending.popleft()
            if req.cacheable:
                # a duplicate completed while this one queued: serve it now.
                # peek(), not get(): the submit-time lookup already counted
                # this request once, and double-counting a miss per queued
                # request skews the stats() / /v1/stats hit ratios.
                cached = self._cache.peek(req.key)
                if cached is not None:
                    self._emit("cache_hit", req_id=req.req_id, digest=req.digest)
                    self._finish(req, result=cached, status="cached", locked=True)
                    continue
            if self._pool is None:
                inline.append(req)
                continue
            if not self._idle:
                self._pending.appendleft(req)
                break
            worker_id = self._idle.pop()
            try:
                plane = self._planes.lease(req.digest, req.graph)
                req.leased = True
            except Exception as exc:  # noqa: BLE001 - lease failure fails the request
                self._idle.add(worker_id)
                self._finish(req, exc=exc, status="error", locked=True)
                continue
            req.attempts += 1
            self._inflight[worker_id] = req
            kwargs = dict(req.kwargs)
            fault = kwargs.pop("_test_fault", None)
            task = {
                "req_id": req.req_id,
                "plane": plane.name,
                "algorithm": req.algorithm,
                "kwargs": kwargs,
                "options": req.options,
            }
            if fault:
                task.update(fault)
            try:
                self._pool.submit(worker_id, task)
            except OSError:
                pass  # the worker is dead: its sentinel reports the crash
        deadlines = [
            req.deadline for req in self._inflight.values()
            if req.deadline is not None
        ]
        if self._queue_deadline is not None:
            deadlines.append(self._queue_deadline)
        return min(deadlines, default=None)

    def _expire_queued(self, now: float) -> None:
        """Fail every queued request past its deadline, wherever it waits,
        and recompute the deadline bound (caller holds the lock)."""
        queued, self._pending = self._pending, deque()
        self._queue_deadline = None
        for req in queued:
            if req.deadline is not None and now > req.deadline:
                self._finish(req, exc=self._queue_expired(req, now),
                             status="timeout", locked=True)
            else:
                self._enqueue(req)

    def _wait(self, next_deadline: float | None) -> None:
        """Block until a submit/close wakes the dispatcher, a worker posts
        a result or exits, or ``next_deadline`` passes; then handle it."""
        results, sentinels = (
            self._pool.waitables() if self._pool is not None else ([], [])
        )
        timeout = (None if next_deadline is None
                   else max(0.0, next_deadline - time.monotonic()))
        ready = set(connection.wait([self._wake_recv, *results, *sentinels],
                                    timeout))
        if self._wake_recv in ready:
            os.read(self._wake_recv, 1 << 16)  # a pipe's worth: every wake-up
        if self._pool is None:
            return
        posted = {wid for wid, conn in enumerate(results) if conn in ready}
        exited = {wid for wid, fd in enumerate(sentinels) if fd in ready}
        # read exited workers' pipes too: a worker may post its result and
        # then die, and that result still completes its request
        dead = self._collect(posted | exited) | exited
        dead -= self._enforce_deadlines()
        self._supervise_workers(dead)

    @staticmethod
    def _queue_expired(req: _Request, now: float) -> WorkerTimeout:
        """Deadline blown while still queued: no worker was ever involved,
        so the message carries request context instead of a worker id."""
        elapsed = now - req.submitted_at
        budget = req.deadline - req.submitted_at
        return WorkerTimeout(
            None,
            budget,
            message=(
                f"request {req.req_id} (algorithm={req.algorithm}, "
                f"digest={req.digest[:12]}) expired in queue after "
                f"{elapsed:.3f}s (deadline {budget:.3g}s), never assigned "
                "to a worker"
            ),
        )

    def _solve_inline(self, req: _Request) -> None:
        """Degraded path: run the solve on the dispatcher thread."""
        from ..core.api import minimum_cut

        with self._lock:
            self._counters["inline_solves"] += 1
        try:
            kwargs = dict(req.kwargs)
            kwargs.pop("_test_fault", None)
            result = minimum_cut(
                req.graph, algorithm=req.algorithm, **req.options, **kwargs
            )
        except Exception as exc:  # noqa: BLE001 - surfaced through the future
            self._finish(req, exc=exc, status="error")
        else:
            self._finish(req, result=result)

    def _collect(self, worker_ids) -> set[int]:
        """Complete the requests whose results were posted.

        Returns the workers whose result pipe broke: a worker that died
        partway through sending reads as end-of-file or a short message,
        and is supervised as a crash like any other death.
        """
        broken: set[int] = set()
        for worker_id in worker_ids:
            try:
                msg = self._pool.receive(worker_id)
            except (EOFError, OSError):
                broken.add(worker_id)
                continue
            if msg is None:
                continue
            req_id, status, payload = msg
            req = self._inflight.get(worker_id)
            if req is None or req.req_id != req_id:
                continue  # stale: the request it answers is no longer here
            del self._inflight[worker_id]
            self._idle.add(worker_id)
            if status == "ok":
                value, side, n, algorithm, stats, cactus = payload
                self._finish(
                    req,
                    result=MinCutResult(value, side, n, algorithm, stats,
                                        cactus=cactus),
                )
            else:
                self._finish(req, exc=_pooled_error(req_id, payload),
                             status="error")
        return broken

    def _enforce_deadlines(self) -> set[int]:
        """Fail in-flight requests past their deadline and recycle their
        workers; returns the recycled worker ids."""
        now = time.monotonic()
        expired = [
            (wid, req) for wid, req in self._inflight.items()
            if req.deadline is not None and now > req.deadline
        ]
        recycled: set[int] = set()
        for worker_id, req in expired:
            if self._inflight.pop(worker_id, None) is None:
                # a previous recycle abandoned the pool and requeued this
                # request; _assign's deadline check will time it out
                continue
            self._recycle_worker(worker_id, reason="deadline")
            recycled.add(worker_id)
            self._finish(
                req,
                exc=WorkerTimeout(worker_id, req.deadline - req.submitted_at),
                status="timeout",
            )
        return recycled

    def _supervise_workers(self, dead: set[int]) -> None:
        """Respawn dead workers; retry (once) or fail their requests."""
        for worker_id in sorted(dead):
            if self._pool is None:
                break  # abandoned mid-loop by a previous recycle
            code = self._pool.reap(worker_id)
            req = self._inflight.pop(worker_id, None)
            self._idle.discard(worker_id)
            self._recycle_worker(worker_id, reason=f"crashed exit={code}")
            if req is None:
                continue
            if req.leased:
                self._planes.release(req.digest)
                req.leased = False
            if self._pool is None or req.attempts < _MAX_ATTEMPTS:
                # retry on a fresh worker, or inline if the pool is gone
                with self._lock:
                    self._counters["retries"] += 1
                    self._enqueue(req, front=True)
            else:
                self._finish(
                    req,
                    exc=WorkerCrashed(worker_id, code, "pooled solve worker died"),
                    status="crashed",
                )

    def _recycle_worker(self, worker_id: int, *, reason: str) -> None:
        if self._pool is None:
            return
        if self._pool.recycles >= self.max_recycles:
            self._abandon_pool(f"recycle budget exhausted ({reason})")
            return
        self._emit("pool_recycle", action="respawn", worker_id=worker_id,
                   reason=reason)
        self._pool.recycle(worker_id)
        self._idle.add(worker_id)

    def _abandon_pool(self, reason: str) -> None:
        """Degrade: drop the pool, requeue its in-flight work for inline."""
        pool, self._pool = self._pool, None
        self._idle.clear()
        self._emit("pool_recycle", action="abandon", reason=reason)
        requeue = list(self._inflight.values())
        self._inflight.clear()
        with self._lock:
            self._counters["pool_abandoned"] = True
            for req in reversed(requeue):
                if req.leased:
                    self._planes.release(req.digest)
                    req.leased = False
                self._enqueue(req, front=True)
        # shut the old pool down off-thread: terminate() of a wedged worker
        # can block, and the dispatcher must keep serving inline
        threading.Thread(target=pool.shutdown, daemon=True).start()
