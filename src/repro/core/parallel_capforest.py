"""Parallel CAPFOREST (Algorithm 1 of the paper).

``p`` workers each pick a random start vertex and grow a scan region.  A
shared visited table ``T`` ensures every vertex is *scanned* by exactly one
worker: when a worker pops a vertex another worker already claimed, it
blacklists it locally (its certificates then ignore that vertex, which
Lemma 3.2(3) shows keeps every mark safe) and moves on.  ``T`` is written
without locks — the paper explicitly accepts the benign race where two
workers claim the same vertex nearly simultaneously (a vertex scanned twice
costs time, never correctness).

Each worker maintains its own ``r`` values, priority queue, and scan cut
``α`` (the capacity of the cut between its scanned region and the rest of
the graph — a real cut of G, so it may lower ``λ̂``).  Contractible edges
are recorded as unions; the serial executor applies them to one
union–find, the process executor replays per-worker pair rows afterwards —
equivalent because unions commute (Lemma 3.2(1)).

A worker is the sequential pass's scan core
(:func:`~repro.core.capforest._scan`) run with ``T``; :func:`_region_worker`
builds its queue and storage.  Where a worker may drain — the
``processes`` executor, the BQueue, and ``λ̂ ≤ MAX_BUCKET_BOUND`` — its
state lives in the arrays of a :class:`~repro.core.capforest.ClampDrain`:
whenever its top bucket sits at the priority clamp with at least
``MIN_BATCH`` members, it pops the whole bucket, claims the members in
``T`` one at a time, and relaxes the claimed members' arcs as one batch of
array passes (Lemma 3.1 keeps a drain equal to popping its members one by
one), and a pop with at least ``POP_VECTOR_MIN_DEGREE`` arcs relaxes them
as array passes.  Every other pop runs the per-arc step; a worker that may
not drain keeps its state in lists.

Executors
---------
``serial``
    Runs the ``p`` workers round-robin, one vertex pop per turn, in one
    thread, on list-backed state and without drains.  Deterministic given
    the seed; the reference semantics used by most tests, and the work
    counters it produces drive the *modeled* speedups of the Figure 5
    experiment.
``processes``
    Process workers over a zero-copy shared-memory plane
    (:mod:`repro.graph.shm`): the CSR graph is exported once per pass into
    a named segment that every worker maps read-only style (no per-worker
    graph copy, under ``fork`` *and* ``spawn``), ``T`` is a shared byte
    plane, ``λ̂`` an aligned int64 slot of the pass's pair plane, and
    marked pairs come back through that preallocated shared int64 buffer —
    each worker buffers its marks as arrays and, when its task ends,
    deduplicates them once into one ``(v, root)`` pair per non-root
    vertex, so its row never exceeds ``n - 1`` pairs.  The workers
    themselves are one long-lived group per process (:class:`repro.runtime.WorkerGroup`), as
    Algorithm 2 runs every round on one team: the group starts on the
    first pass, grows when a pass needs more workers, is replaced when a
    pass asks for another start method, and closes at interpreter exit
    (or when idle); every pass — each ParCut round, each solve, each
    parallel Matula pass — sends one task down each worker's own pipe.
    Passes from different threads take turns on the group.  The start
    method defaults to ``fork`` where the platform offers it and falls
    back to ``spawn`` otherwise (overridable via ``start_method=``); the
    method used is surfaced on the result.  True parallelism for
    wall-clock scaling experiments.

Both executors run under the supervised execution runtime
(:mod:`~repro.runtime`): the process executor collects results through a
bounded supervisor (crashed, wedged, or silent workers become structured
events instead of a hung coordinator), and a deterministic
:class:`~repro.runtime.FaultPlan` can be injected on either executor for
testing.  Losing a worker only drops its contraction marks, which Lemma
3.2(1) shows is always safe — the survivors' merged result stays exact.
Shared-memory segments are owned by the coordinator and unlinked in a
``finally`` block, so even a round whose workers were all killed leaves
nothing behind in ``/dev/shm``; every worker a pass cannot vouch for is
restarted before the next pass, so no state outlives a pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datastructures.pq import PQStats, make_pq
from ..datastructures.union_find import UnionFind
from ..graph.csr import Graph
from ..runtime.errors import ExecutorUnavailable
from ..runtime.faults import FaultClock, FaultPlan
from ..runtime.pool import WorkerGroup, default_start_method, next_task
from ..runtime.supervisor import supervise_processes, worker_event
from .capforest import (
    MAX_BUCKET_BOUND,
    ClampDrain,
    ScanRecord,
    _FrozenBound,
    _MarkBuffer,
    _scan,
    _SharedBound,
    _SlotBound,
)

EXECUTORS = ("serial", "processes")


@dataclass(kw_only=True)
class WorkerReport(ScanRecord):
    """Per-worker work counters (the raw material for modeled speedups):
    the region's :class:`~repro.core.capforest.ScanRecord`, its worker and
    start vertex, and the scanned prefix realising ``best_alpha``."""

    worker_id: int
    start_vertex: int
    best_prefix: list[int] = field(default_factory=list)

    @property
    def work(self) -> int:
        """Abstract work units: one per scanned edge plus one per pop."""
        return self.edges_scanned + self.vertices_scanned + self.blacklisted


@dataclass
class ParallelCapforestResult:
    """Outcome of one parallel CAPFOREST pass."""

    uf: UnionFind
    n_marked: int
    lambda_hat: int
    workers: list[WorkerReport]
    #: side mask of the best scan cut found by any worker (None if no worker
    #: improved the input bound)
    best_side: np.ndarray | None
    #: structured worker-failure events recorded by the supervisor (empty
    #: when every worker completed cleanly); see :func:`repro.runtime.worker_event`
    events: list[dict] = field(default_factory=list)
    #: multiprocessing start method actually used ("fork"/"spawn"/...);
    #: None for the in-process executors
    start_method: str | None = None

    @property
    def total_work(self) -> int:
        return sum(w.work for w in self.workers)

    @property
    def makespan_work(self) -> int:
        """Work of the busiest worker — the modeled parallel critical path."""
        return max((w.work for w in self.workers), default=0)


def _region_worker(graph, T, lam_box, marks, start, pq_kind, bound, report, drains):
    """Generator scanning one region: the scan core run with ``T``.

    ``T`` is any byte-indexable shared visited table, ``lam_box`` a λ̂ box
    and ``marks`` a mark sink, as :func:`~repro.core.capforest._scan`
    takes them; ``report`` is the worker's record.  With ``drains`` the
    state lives in a :class:`~repro.core.capforest.ClampDrain`'s arrays
    over an array-keyed BQueue, which drains at-the-clamp buckets; without
    it, in lists over ``pq_kind`` (the heap above ``MAX_BUCKET_BOUND``).
    Yields the pops of each step.  Records the exact scan prefix realising
    the worker's best α so the coordinator can output a cut *side*, not
    just its value.
    """
    n = graph.n
    if drains:
        pq = make_pq("bqueue", n, bound=bound, array_keys=True)
        drainer = ClampDrain(graph, pq, bound)
    else:
        pq = make_pq(pq_kind if bound <= MAX_BUCKET_BOUND else "heap", n, bound=bound)
        drainer = None
    report.pq_stats = pq.stats
    order: list[int] = []
    yield from _scan(graph, pq, drainer, start, lam_box, marks, report, order, T)
    report.best_prefix = order[: report.best_len]


def check_executor(executor: str, workers: int) -> None:
    """Validate a parallel pass's executor and worker count.

    ``executor`` must be one of :data:`EXECUTORS` and ``workers`` at
    least 1.  ParCut calls this on entry, before VieCut runs, so a bad
    option fails on every graph, the tiny ones included.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def parallel_capforest(
    graph: Graph,
    lambda_hat: int,
    *,
    workers: int = 4,
    pq_kind: str = "bqueue",
    executor: str = "serial",
    rng: np.random.Generator | int | None = None,
    fixed_bound: bool = False,
    start_method: str | None = None,
    timeout: float | None = None,
    fault_plan: FaultPlan | None = None,
    tracer=None,
) -> ParallelCapforestResult:
    """One parallel CAPFOREST pass over ``graph`` with bound ``λ̂``.

    Returns the merged union–find of contractible-edge marks, the improved
    bound, the best scan-cut side, and per-worker work reports.  May mark
    nothing (early termination, §3.2) — callers fall back to sequential
    CAPFOREST, as Algorithm 2 does.

    ``fixed_bound=True`` freezes the shared marking threshold at the input
    value (workers still report their scan cuts) — the configuration the
    parallel Matula approximation needs, where ``λ̂`` is deliberately below
    the true minimum cut and must not be "tightened" by real cuts.

    ``start_method`` pins the multiprocessing start method for the
    ``processes`` executor (default: ``fork`` where available, else
    ``spawn``); the method used is reported in ``result.start_method``.

    ``timeout`` bounds the whole pass for the process executor (a finite
    backstop applies even when ``None`` — see
    :data:`repro.runtime.DEFAULT_TIMEOUT`); ``fault_plan`` injects
    deterministic worker failures for testing.  Lost workers' marks are
    dropped (safe, Lemma 3.2(1)) and recorded in ``result.events``; if no
    worker survives, :class:`~repro.runtime.ExecutorUnavailable` is raised
    so callers can degrade to a simpler executor.

    ``tracer`` (optional :class:`repro.observability.Tracer`) receives one
    ``parallel_pass`` summary, one ``worker_report`` per surviving worker,
    and a ``worker_event`` per lost worker — all emitted at pass
    granularity on the coordinator, never inside the scan loops.
    """
    if lambda_hat < 0:
        raise ValueError(f"lambda_hat must be non-negative, got {lambda_hat}")
    check_executor(executor, workers)
    n = graph.n
    if n == 0:
        return ParallelCapforestResult(UnionFind(0), 0, lambda_hat, [], None)
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)

    p = min(workers, n)
    starts = rng.choice(n, size=p, replace=False).tolist()

    # process workers drain at-the-clamp buckets wherever the BQueue runs;
    # the serial executor keeps one pop per turn (its counters model Figure 5)
    drains = executor == "processes" and pq_kind == "bqueue" and lambda_hat <= MAX_BUCKET_BOUND
    if executor == "processes":
        res = _run_processes(graph, lambda_hat, starts, pq_kind, fixed_bound, start_method,
                             timeout=timeout, fault_plan=fault_plan, drains=drains)
    else:
        res = _run_serial(graph, lambda_hat, starts, pq_kind, fixed_bound, fault_plan)
    _emit_pass_trace(tracer, res, executor, pq_kind, lambda_hat,
                     "vector" if drains else "scalar")
    return res


def _run_serial(
    graph: Graph, lambda_hat, starts, pq_kind, fixed_bound, fault_plan: FaultPlan | None
) -> ParallelCapforestResult:
    """Round-robin executor: one pop per worker per turn, on one thread."""
    n = graph.n
    T = bytearray(n)
    lam_box = _FrozenBound(lambda_hat) if fixed_bound else _SharedBound(lambda_hat)
    uf = UnionFind(n)
    reports = [WorkerReport(worker_id=i, start_vertex=s) for i, s in enumerate(starts)]
    live = [
        (rep.worker_id, _region_worker(
            graph, T, lam_box, uf, rep.start_vertex, pq_kind, lambda_hat, rep, drains=False
        ))
        for rep in reports
    ]
    clocks = {i: FaultClock(fault_plan.for_worker(i, "serial") if fault_plan else None)
              for i, _ in live}
    events: list[dict] = []
    while live:
        nxt = []
        for i, gen in live:
            fault = clocks[i].tick()
            if fault is not None and fault.kind == "crash":
                # abandon this worker's scan; marks so far stay (safe)
                events.append(worker_event(i, "crashed", detail="injected"))
                continue
            try:
                next(gen)
                nxt.append((i, gen))
            except StopIteration:
                clock = clocks[i]
                if clock.fault is not None and clock.fault.kind == "crash" and not clock.fired:
                    # scan ended before the pop trigger: fire anyway
                    # (the completed scan's marks stay — still safe)
                    events.append(worker_event(i, "crashed", detail="injected"))
        live = nxt

    if events and len(events) == len(reports):
        raise ExecutorUnavailable("serial", "every worker crashed", events)
    res = _finalize(uf, lambda_hat, lam_box.value, reports, n)
    res.events = events
    return res


def _emit_pass_trace(tracer, res, executor, pq_kind, lambda_in, kernel) -> None:
    """Emit the pass summary, per-worker reports, and worker-loss events.

    ``kernel`` names what the workers ran: ``"vector"`` when they could
    drain at-the-clamp buckets, ``"scalar"`` when they popped one vertex
    at a time.  Runs on the coordinator after the pass completes — pass
    granularity, so a disabled tracer costs exactly one ``None`` check per
    pass.
    """
    if tracer is None:
        return
    for ev in res.events:
        payload = dict(ev)
        payload["event"] = payload.pop("kind")
        tracer.emit("worker_event", executor=executor, **payload)
    for rep in res.workers:
        tracer.emit(
            "worker_report",
            executor=executor,
            worker_id=rep.worker_id,
            start_vertex=int(rep.start_vertex),
            vertices_scanned=rep.vertices_scanned,
            edges_scanned=rep.edges_scanned,
            blacklisted=rep.blacklisted,
            drained=rep.drained,
            work=rep.work,
            best_alpha=None if rep.best_alpha is None else int(rep.best_alpha),
        )
    tracer.emit(
        "parallel_pass",
        executor=executor,
        pq_kind=pq_kind,
        kernel=kernel,
        workers=len(res.workers),
        drained=sum(rep.drained for rep in res.workers),
        lambda_in=int(lambda_in),
        lambda_out=int(res.lambda_hat),
        marked=res.n_marked,
        total_work=res.total_work,
        makespan_work=res.makespan_work,
        start_method=res.start_method,
    )


def _finalize(
    uf: UnionFind, lam_in: int, lam_out: int, reports: list[WorkerReport], n: int
) -> ParallelCapforestResult:
    n_marked = n - uf.count
    best_side = None
    if lam_out < lam_in:
        winner = min(
            (r for r in reports if r.best_alpha is not None),
            key=lambda r: r.best_alpha,
            default=None,
        )
        if winner is not None and winner.best_alpha == lam_out and winner.best_prefix:
            best_side = np.zeros(n, dtype=bool)
            best_side[winner.best_prefix] = True
    return ParallelCapforestResult(uf, n_marked, min(lam_in, lam_out), reports, best_side)


# ---------------------------------------------------------------------------
# process executor
# ---------------------------------------------------------------------------


def _run_processes(
    graph: Graph, lambda_hat, starts, pq_kind, fixed_bound=False,
    start_method: str | None = None,
    *, timeout: float | None = None, fault_plan: FaultPlan | None = None, drains: bool,
) -> ParallelCapforestResult:
    """Process executor over the shared-memory plane, supervised.

    Runs on the process-wide group of round workers (:data:`_ROUND_WORKERS`),
    leased for the pass: workers ``0..p-1`` each get one task on their own
    task pipe and post one report on their own result pipe.  The CSR graph,
    the visited table ``T``, ``λ̂`` and the marked-pair return buffer live
    in named shared-memory segments (:mod:`repro.graph.shm`) created here
    for this pass and attached by name in each worker — so the executor is
    start-method agnostic (``fork`` and ``spawn`` share the same zero-copy
    path) and workers return at most ``n - 1`` locally-deduplicated pairs
    through preallocated memory instead of pickling tuples.  With
    ``drains`` the workers drain at-the-clamp BQueue buckets
    (:func:`_region_worker`).

    Reports are collected through :func:`repro.runtime.supervise_processes`,
    so a crashed, wedged, silent, or corrupt worker becomes a structured
    event and the survivors' marks are merged (safe by Lemma 3.2(1)).  Pair
    rows are range-checked before merging: a worker publishing out-of-range
    vertices is recorded as *corrupt* and discarded.  With zero survivors,
    :class:`~repro.runtime.ExecutorUnavailable` is raised for the caller's
    degradation ladder.  The coordinator owns the segments: the ``finally``
    block unlinks them even when every worker was killed, so no run can
    leak ``/dev/shm`` entries, and then restarts every worker the pass
    cannot vouch for, so the next pass starts from clean workers.
    """
    from ..graph.shm import SharedBytes, SharedGraph, SharedPairsBuffer

    method = start_method or default_start_method()
    n = graph.n
    p = len(starts)
    with _ROUND_WORKERS.lease(p, method) as pool:
        # workers start (above) before this pass's segments exist, so a
        # forked worker never inherits a mapping it would keep alive
        segments: list = []
        clean: set[int] = set()  # workers whose report and pair row were merged
        try:
            shared_graph = SharedGraph.export(graph)
            segments.append(shared_graph)
            pair_buf = SharedPairsBuffer.create(p, n)
            segments.append(pair_buf)
            visited = SharedBytes.create(n)
            segments.append(visited)
            pair_buf.bound[0] = lambda_hat
            for i, s in enumerate(starts):
                task = (
                    shared_graph.name, pair_buf.name, visited.name, p, n, i, s,
                    pq_kind, lambda_hat, fixed_bound, drains,
                    fault_plan.for_worker(i, "processes") if fault_plan else None,
                )
                try:
                    pool.submit(i, task)
                except OSError:
                    pass  # died since the lease began: its sentinel reports it
            procs, conns = pool.workers(p)
            outcome = supervise_processes(procs, conns, timeout=timeout)
            if outcome.all_lost:
                raise ExecutorUnavailable(
                    "processes", "no worker reported a result", outcome.events
                )

            uf = UnionFind(n)
            reports: list[WorkerReport] = []
            lam_out = lambda_hat
            for worker_id in sorted(outcome.results):
                rep_dict = outcome.results[worker_id]
                pairs = pair_buf.read_pairs(worker_id)
                if len(pairs) and (pairs.min() < 0 or int(pairs.max()) >= n):
                    outcome.events.append(worker_event(
                        worker_id, "corrupt",
                        detail=f"worker {worker_id}: shared pair row out of range for n={n}",
                    ))
                    continue
                clean.add(worker_id)
                if len(pairs):
                    uf.union_pairs(pairs[:, 0], pairs[:, 1])
                rep = WorkerReport(**{**rep_dict, "pq_stats": PQStats(**rep_dict["pq_stats"])})
                reports.append(rep)
                # λ̂ comes from the reports, never from the shared slot
                if not fixed_bound and rep.best_alpha is not None and rep.best_alpha < lam_out:
                    lam_out = rep.best_alpha
            if not reports:
                raise ExecutorUnavailable("processes", "no worker survived validation",
                                          outcome.events)
            res = _finalize(uf, lambda_hat, lam_out, reports, n)
            res.events = outcome.events
            res.start_method = method
            return res
        finally:
            for seg in segments:
                seg.unlink()
            for worker_id in range(p):
                if worker_id not in clean:
                    pool.recycle(worker_id)


def _round_worker_main(tasks, results) -> None:  # pragma: no cover - subprocess
    """One round worker: run a scan task per message until ``None``.

    Each task posts exactly one report on ``results``, except under an
    injected ``drop_result`` fault, where the worker exits cleanly without
    one.  Any exception ends the process with a nonzero exit code, which
    the coordinator records as a crash and repairs by restarting the worker.
    The worker also exits once the coordinator has, however it ended
    (:func:`~repro.runtime.pool.next_task`).
    """
    while True:
        task = next_task(tasks)
        if task is None:
            return
        report = _round_task(*task)
        if report is None:
            return
        results.send(report)


def _round_task(
    graph_name, pairs_name, visited_name, p, n, worker_id, start, pq_kind, bound,
    fixed_bound, drains, fault,
):  # pragma: no cover - exercised via subprocesses
    """Scan one region of one pass; returns the report payload (``None``
    when an injected fault drops it)."""
    import os
    import time as _time

    from ..graph.shm import SharedBytes, SharedGraph, SharedPairsBuffer

    shared_graph = SharedGraph.attach(graph_name)
    pair_buf = SharedPairsBuffer.attach(pairs_name, p, n)
    visited = SharedBytes.attach(visited_name, n)
    try:
        g = shared_graph.graph()  # arrays are views into the segment: zero-copy
        marks = _MarkBuffer()
        report = WorkerReport(worker_id=worker_id, start_vertex=start)
        lam_box = _FrozenBound(bound) if fixed_bound else _SlotBound(pair_buf.bound)
        gen = _region_worker(
            g, visited.buf, lam_box, marks, start, pq_kind, bound, report, drains=drains
        )
        clock = FaultClock(fault)
        for pops in gen:
            f = clock.tick(pops)
            if f is None:
                continue
            if f.kind == "crash":
                os._exit(f.exit_code)  # hard kill: no result, nonzero exit
            if f.kind in ("hang", "delay"):
                _time.sleep(f.sleep_seconds)
        if fault is not None and not clock.fired:
            # a worker that finished before its pop trigger (another worker
            # claimed its region first) still fails as scripted — injected
            # faults must be deterministic, not scheduling-dependent
            if fault.kind == "crash":
                os._exit(fault.exit_code)
            if fault.kind in ("hang", "delay"):
                _time.sleep(fault.sleep_seconds)
        if fault is not None and fault.kind == "drop_result":
            return None  # clean exit, result silently lost
        pairs = marks.published(n)
        if fault is not None and fault.kind == "corrupt_pairs":
            pairs = [(n + 1, n + 2)]  # out of range: coordinator must reject the row
        pair_buf.write_pairs(worker_id, pairs)
        # pairs travel through the shared buffer, not the pipe; the report
        # dict is shallow (dataclasses.asdict would copy the prefix item by item)
        return worker_id, {**vars(report), "pq_stats": report.pq_stats.as_dict()}
    finally:
        # drop every view into the segments before closing them, otherwise
        # SharedMemory refuses to unmap ("cannot close exported pointers")
        gen = g = lam_box = None
        for seg in (shared_graph, pair_buf, visited):
            try:
                seg.close()
            except BufferError:  # pragma: no cover - view leak backstop
                pass


#: the process-wide round workers every ``processes`` pass runs on
_ROUND_WORKERS = WorkerGroup(_round_worker_main)
