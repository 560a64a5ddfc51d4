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
are recorded as unions; depending on the executor these go to a shared
lock-striped union–find (threads), a plain union–find (serial), or
per-worker merge buffers replayed afterwards (processes) — all equivalent
because unions commute (Lemma 3.2(1)).

Workers run the ``scalar`` relaxation kernel (one Python iteration per
arc — the reference), the ``vector`` kernel (each popped vertex's whole
arc slice relaxed with numpy array expressions), or the ``compiled``
kernel (the arc loop and the flat-array queue jitted by numba — see
:mod:`repro.kernels`; resolves to ``vector`` when numba is unavailable).
The vector and compiled workers stay *per-pop* — they never batch across
pops the way the sequential vector kernel does — so the pop/claim
interleaving, and with it the round-robin semantics of the serial
executor, is identical between kernels.

Executors
---------
``serial``
    Runs the ``p`` workers round-robin, one vertex pop per turn, in one
    thread.  Deterministic given the seed; the reference semantics used by
    most tests, and the work counters it produces drive the *modeled*
    speedups of the Figure 5 experiment.
``threads``
    Real ``threading`` workers sharing ``T`` (a ``bytearray``; single-byte
    writes are atomic under the GIL).  Faithful structure, but CPython's
    GIL serializes the scan loops, so wall-clock scaling is limited — this
    is the documented Python-vs-C++ substitution (DESIGN.md §2).
``processes``
    Process workers over a zero-copy shared-memory plane
    (:mod:`repro.graph.shm`): the CSR graph is exported once per pass into
    a named segment that every worker maps read-only style (no per-worker
    graph copy, under ``fork`` *and* ``spawn``), ``T`` is a shared byte
    plane, ``λ̂`` an aligned int64 slot of the pass's pair plane, and
    marked pairs come back through that preallocated shared int64 buffer —
    each worker deduplicates its marks through a local union–find, so its
    row never exceeds ``n - 1`` pairs.  The workers themselves are one
    long-lived group per process (:class:`repro.runtime.WorkerGroup`), as
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

All three executors run under the supervised execution runtime
(:mod:`~repro.runtime`): the process executor collects results through a
bounded supervisor (crashed, wedged, or silent workers become structured
events instead of a hung coordinator), thread workers have their uncaught
exceptions captured, and a deterministic :class:`~repro.runtime.FaultPlan`
can be injected on any executor for testing.  Losing a worker only drops
its contraction marks, which Lemma 3.2(1) shows is always safe — the
survivors' merged result stays exact.  Shared-memory segments are owned by
the coordinator and unlinked in a ``finally`` block, so even a round whose
workers were all killed leaves nothing behind in ``/dev/shm``; every
worker a pass cannot vouch for is restarted before the next pass, so no
state outlives a pass.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..datastructures.pq import PQStats, make_pq
from ..datastructures.union_find import UnionFind
from ..graph.csr import Graph
from ..runtime.errors import ExecutorUnavailable, NoProgressError, WorkerCrashed
from ..runtime.faults import FaultClock, FaultPlan
from ..runtime.pool import WorkerGroup, default_start_method
from ..runtime.supervisor import supervise_processes, worker_event
from .capforest import MAX_BUCKET_BOUND, resolve_kernel

EXECUTORS = ("serial", "threads", "processes")


@dataclass
class WorkerReport:
    """Per-worker work counters (the raw material for modeled speedups)."""

    worker_id: int
    start_vertex: int
    vertices_scanned: int = 0
    edges_scanned: int = 0
    blacklisted: int = 0
    pq_stats: PQStats = field(default_factory=PQStats)
    best_alpha: int | None = None
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


class _SharedBound:
    """Monotonically decreasing shared λ̂ with a lock only on updates."""

    __slots__ = ("value", "_lock")

    def __init__(self, value: int) -> None:
        self.value = value
        self._lock = threading.Lock()

    def minimize(self, candidate: int) -> None:
        if candidate < self.value:
            with self._lock:
                if candidate < self.value:
                    self.value = candidate


class _FrozenBound:
    """A λ̂ box that never tightens — for fixed-threshold scans (Matula).

    Workers still *report* their scan cuts through their ``best_alpha``
    fields; only the shared marking threshold stays put.
    """

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def minimize(self, candidate: int) -> None:  # noqa: ARG002 - by design
        return


def _make_worker(graph_arrays, worker_id, start, pq_kind, bound, T, lam_box, union, kernel):
    """Build (generator, report) for one worker over prepared graph arrays."""
    xadj, adjncy, adjwgt, wdeg, n = graph_arrays
    report = WorkerReport(worker_id=worker_id, start_vertex=start)
    region = _REGION_WORKERS.get(kernel, _region_worker_with_prefix)
    gen = region(
        xadj, adjncy, adjwgt, wdeg, n, T, lam_box, union, start, pq_kind, bound, report
    )
    return gen, report


def _region_worker_with_prefix(
    xadj, adjncy, adjwgt, wdeg, n, T, lam_box, union, start, pq_kind, bound, report
):
    """Generator scanning one region; yields after every pop (round-robin).

    ``T`` is any byte-indexable shared visited table; ``lam_box`` exposes
    ``.value`` and ``.minimize``; ``union`` is a callable ``(u, v)``.
    Records the exact scan prefix realising the worker's best α so the
    coordinator can output a cut *side*, not just its value.
    """
    pq = make_pq(pq_kind if bound <= MAX_BUCKET_BOUND else "heap", n, bound=bound)
    report.pq_stats = pq.stats
    blacklist = bytearray(n)
    local_visited = bytearray(n)
    r = [0] * n
    alpha = 0
    scan_order: list[int] = []
    best_len = 0
    insert = pq.insert_or_raise
    pop = pq.pop_max

    insert(start, 0)
    pops = 0
    while len(pq):
        x, _ = pop()
        pops += 1
        if pops > n:
            # each vertex enters this worker's queue at most once, so a
            # scan that pops more than n times is running on corrupt state
            raise NoProgressError(
                f"worker {report.worker_id} popped {pops} vertices from a {n}-vertex graph"
            )
        if T[x]:
            blacklist[x] = 1
            report.blacklisted += 1
            yield
            continue
        T[x] = 1
        local_visited[x] = 1
        alpha += wdeg[x] - 2 * r[x]
        scan_order.append(x)
        report.vertices_scanned += 1
        if report.vertices_scanned < n and (report.best_alpha is None or alpha < report.best_alpha):
            report.best_alpha = alpha
            best_len = len(scan_order)
            lam_box.minimize(alpha)
        lam = lam_box.value
        lo, hi = xadj[x], xadj[x + 1]
        nbrs = adjncy[lo:hi].tolist()
        wgts = adjwgt[lo:hi].tolist()
        for y, w in zip(nbrs, wgts):
            if blacklist[y] or local_visited[y]:
                continue
            report.edges_scanned += 1
            ry = r[y]
            q = ry + w
            if ry < lam <= q:
                union(x, y)
            r[y] = q
            insert(y, q)
        yield
    report.best_prefix = scan_order[:best_len]


def _region_worker_vector(
    xadj, adjncy, adjwgt, wdeg, n, T, lam_box, union, start, pq_kind, bound, report
):
    """Vector-kernel twin of :func:`_region_worker_with_prefix`.

    Relaxes each popped vertex's arc slice with array expressions — the
    dead-neighbour filter, ``q = r + w``, the mark test, and the queue
    updates (:meth:`increase_many`, which preserves per-event
    classification, statistics, and FIFO order) are all vectorized.
    Deliberately per-pop: yielding after every pop and claiming ``T``
    one vertex at a time keeps the interleaving identical to the scalar
    worker, so the serial executor produces bit-identical results under
    either kernel.  Graphs are simple by invariant (``validate.py``), so
    an arc slice never names a neighbour twice and ``r`` reads within one
    slice cannot go stale.
    """
    pq = make_pq(
        pq_kind if bound <= MAX_BUCKET_BOUND else "heap", n, bound=bound,
        array_keys=True,
    )
    report.pq_stats = pq.stats
    dead = np.zeros(n, dtype=bool)  # blacklisted-or-locally-visited, merged
    r = np.zeros(n, dtype=np.int64)
    alpha = 0
    scan_order: list[int] = []
    best_len = 0

    pq.insert_or_raise(start, 0)
    pops = 0
    while len(pq):
        x, _ = pq.pop_max()
        pops += 1
        if pops > n:
            raise NoProgressError(
                f"worker {report.worker_id} popped {pops} vertices from a {n}-vertex graph"
            )
        if T[x]:
            dead[x] = True
            report.blacklisted += 1
            yield
            continue
        T[x] = 1
        dead[x] = True
        alpha += wdeg[x] - 2 * int(r[x])
        scan_order.append(x)
        report.vertices_scanned += 1
        if report.vertices_scanned < n and (report.best_alpha is None or alpha < report.best_alpha):
            report.best_alpha = alpha
            best_len = len(scan_order)
            lam_box.minimize(alpha)
        lam = lam_box.value
        lo, hi = xadj[x], xadj[x + 1]
        ys = adjncy[lo:hi]
        keep = np.flatnonzero(~dead[ys])
        m = len(keep)
        report.edges_scanned += m
        if m:
            ys = ys[keep]
            ry = r[ys]
            q = ry + adjwgt[lo:hi][keep]
            marks = np.flatnonzero((ry < lam) & (lam <= q))
            if len(marks):
                # scalar union calls, in arc order, so a shared union–find
                # sees the same sequence the scalar worker would produce
                for y in ys[marks].tolist():
                    union(x, y)
            r[ys] = q
            pq.increase_many(ys, q)
        yield
    report.best_prefix = scan_order[:best_len]


def _region_worker_compiled(
    xadj, adjncy, adjwgt, wdeg, n, T, lam_box, union, start, pq_kind, bound, report
):
    """Compiled-kernel twin of :func:`_region_worker_with_prefix`.

    The queue lives in flat arrays (:mod:`repro.kernels.flat_pq`) and each
    popped vertex's arc loop runs through one jitted
    :func:`~repro.kernels.capforest_kernel.region_relax` call.  The pop /
    ``T``-claim / yield interleaving stays in Python, one vertex per turn,
    so the serial executor's round-robin — and with it every observable
    output — is bit-identical to the scalar worker.  Marked heads come
    back through ``mark_buf`` and are replayed through ``union`` in arc
    order, exactly the scalar worker's union sequence.
    """
    from ..kernels.capforest_kernel import region_relax
    from ..kernels.flat_pq import (
        PQ_CODES,
        SC_POPS,
        SC_PUSHES,
        SC_SIZE,
        SC_SKIPPED,
        SC_UPDATES,
        alloc_pq,
        pq_insert,
        pq_pop,
    )

    code = PQ_CODES[pq_kind if bound <= MAX_BUCKET_BOUND else "heap"]
    key, evn, enext, eprev, bhead, btail, pos, heap, sc = alloc_pq(
        code, n, bound, n + len(adjncy) + 1
    )
    dead = np.zeros(n, dtype=np.uint8)  # blacklisted-or-locally-visited, merged
    r = np.zeros(n, dtype=np.int64)
    max_deg = int(np.max(xadj[1:] - xadj[:-1])) if n > 0 else 0
    mark_buf = np.empty(max(max_deg, 1), dtype=np.int64)
    alpha = 0
    scan_order: list[int] = []
    best_len = 0
    stats = report.pq_stats

    def sync_stats() -> None:
        # the scalar worker exposes its queue's live stats object; here the
        # counters live in the flat state block and are copied out at every
        # yield point so partially-consumed generators stay observable
        stats.pushes = int(sc[SC_PUSHES])
        stats.updates = int(sc[SC_UPDATES])
        stats.skipped_updates = int(sc[SC_SKIPPED])
        stats.pops = int(sc[SC_POPS])

    pq_insert(code, bound, start, 0, key, evn, enext, eprev, bhead, btail, pos, heap, sc)
    pops = 0
    while sc[SC_SIZE]:
        x = int(pq_pop(code, key, evn, enext, eprev, bhead, btail, pos, heap, sc))
        pops += 1
        if pops > n:
            raise NoProgressError(
                f"worker {report.worker_id} popped {pops} vertices from a {n}-vertex graph"
            )
        if T[x]:
            dead[x] = 1
            report.blacklisted += 1
            sync_stats()
            yield
            continue
        T[x] = 1
        dead[x] = 1
        alpha += int(wdeg[x]) - 2 * int(r[x])
        scan_order.append(x)
        report.vertices_scanned += 1
        if report.vertices_scanned < n and (report.best_alpha is None or alpha < report.best_alpha):
            report.best_alpha = alpha
            best_len = len(scan_order)
            lam_box.minimize(alpha)
        lam = lam_box.value
        edges, cnt = region_relax(
            x, lam, xadj, adjncy, adjwgt, dead, r, mark_buf,
            code, bound, key, evn, enext, eprev, bhead, btail, pos, heap, sc,
        )
        report.edges_scanned += int(edges)
        for j in range(int(cnt)):
            union(x, int(mark_buf[j]))
        sync_stats()
        yield
    sync_stats()
    report.best_prefix = scan_order[:best_len]


_REGION_WORKERS = {
    "scalar": _region_worker_with_prefix,
    "vector": _region_worker_vector,
    "compiled": _region_worker_compiled,
}


def parallel_capforest(
    graph: Graph,
    lambda_hat: int,
    *,
    workers: int = 4,
    pq_kind: str = "bqueue",
    executor: str = "serial",
    kernel: str = "scalar",
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

    ``kernel`` selects the per-worker relaxation kernel (``"scalar"``,
    ``"vector"``, or ``"compiled"`` — registry
    :data:`repro.kernels.KERNELS`); all produce identical results on every
    executor.  A ``"compiled"`` request resolves through
    :func:`repro.kernels.resolve_kernel` (falling back to ``"vector"``
    with a ``kernel_fallback`` trace note when numba is unavailable).

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
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    kernel, _ = resolve_kernel(kernel, tracer=tracer)
    n = graph.n
    if n == 0:
        return ParallelCapforestResult(UnionFind(0), 0, lambda_hat, [], None)
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)

    p = min(workers, n)
    starts = rng.choice(n, size=p, replace=False).tolist()

    if executor == "processes":
        res = _run_processes(graph, lambda_hat, starts, pq_kind, fixed_bound, kernel,
                             start_method, timeout=timeout, fault_plan=fault_plan)
        _emit_pass_trace(tracer, res, "processes", pq_kind, kernel, lambda_hat)
        return res

    if kernel == "compiled":
        # the jitted region step wants numpy int64 views, not Python lists
        graph_arrays = (
            graph.xadj,
            graph.adjncy,
            graph.adjwgt,
            graph.weighted_degrees(),
            n,
        )
    else:
        graph_arrays = (
            graph.xadj.tolist(),
            graph.adjncy,
            graph.adjwgt,
            graph.weighted_degrees().tolist(),
            n,
        )
    T = bytearray(n)
    lam_box = _FrozenBound(lambda_hat) if fixed_bound else _SharedBound(lambda_hat)
    if executor == "serial":
        uf = UnionFind(n)
        union = uf.union
    else:
        from ..datastructures.concurrent_union_find import LockStripedUnionFind

        striped = LockStripedUnionFind(n)
        union = striped.union

    gens_reports = [
        _make_worker(graph_arrays, i, s, pq_kind, lambda_hat, T, lam_box, union, kernel)
        for i, s in enumerate(starts)
    ]
    reports = [rep for _, rep in gens_reports]
    events: list[dict] = []

    if executor == "serial":
        live = [(i, gen) for i, (gen, _) in enumerate(gens_reports)]
        clocks = {i: FaultClock(fault_plan.for_worker(i, "serial") if fault_plan else None)
                  for i, _ in live}
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
    else:
        threads = [
            threading.Thread(
                target=_drain,
                args=(gen, i, fault_plan, events),
                daemon=True,
            )
            for i, (gen, _) in enumerate(gens_reports)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        uf = striped.to_sequential()
        if len(events) == len(threads) and threads:
            raise ExecutorUnavailable("threads", "every thread worker crashed", events)

    if executor == "serial" and events and len(events) == len(gens_reports):
        raise ExecutorUnavailable("serial", "every worker crashed", events)
    res = _finalize(uf, lambda_hat, lam_box.value, reports, n)
    res.events = events
    _emit_pass_trace(tracer, res, executor, pq_kind, kernel, lambda_hat)
    return res


def _emit_pass_trace(tracer, res, executor, pq_kind, kernel, lambda_in) -> None:
    """Emit the pass summary, per-worker reports, and worker-loss events.

    Runs on the coordinator after the pass completes — pass granularity,
    so a disabled tracer costs exactly one ``None`` check per pass.
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
            work=rep.work,
            best_alpha=None if rep.best_alpha is None else int(rep.best_alpha),
        )
    tracer.emit(
        "parallel_pass",
        executor=executor,
        pq_kind=pq_kind,
        kernel=kernel,
        workers=len(res.workers),
        lambda_in=int(lambda_in),
        lambda_out=int(res.lambda_hat),
        marked=res.n_marked,
        total_work=res.total_work,
        makespan_work=res.makespan_work,
        start_method=res.start_method,
    )


def _drain(gen, worker_id: int, fault_plan: FaultPlan | None, events: list) -> None:
    """Exhaust one thread worker, capturing crashes as structured events.

    Appends to ``events`` instead of raising: a dead thread's marks are
    already in the shared union–find and remain safe (Lemma 3.2(1)), so
    the coordinator keeps the survivors and records the loss.  ``events``
    appends are atomic under the GIL.
    """
    clock = FaultClock(fault_plan.for_worker(worker_id, "threads") if fault_plan else None)
    try:
        for _ in gen:
            fault = clock.tick()
            if fault is not None and fault.kind == "crash":
                raise WorkerCrashed(worker_id, detail="injected")
        if clock.fault is not None and clock.fault.kind == "crash" and not clock.fired:
            # fire even if the scan ended before the pop trigger (see
            # _process_worker) so injected faults stay deterministic
            raise WorkerCrashed(worker_id, detail="injected")
    except Exception as exc:  # noqa: BLE001 - any worker death must be observable
        events.append(worker_event(worker_id, "crashed", detail=str(exc)))


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
    graph: Graph, lambda_hat, starts, pq_kind, fixed_bound=False, kernel="scalar",
    start_method: str | None = None,
    *, timeout: float | None = None, fault_plan: FaultPlan | None = None,
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
    through preallocated memory instead of pickling tuples.

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
                    pq_kind, lambda_hat, fixed_bound, kernel,
                    fault_plan.for_worker(i, "processes") if fault_plan else None,
                )
                try:
                    pool.submit(i, task)
                except OSError:
                    pass  # died since the lease began: its sentinel reports it
            procs, conns = pool.workers(p)
            outcome = supervise_processes(procs, conns, n=n, timeout=timeout)
            if outcome.all_lost:
                raise ExecutorUnavailable(
                    "processes", "no worker reported a result", outcome.events
                )

            uf = UnionFind(n)
            reports: list[WorkerReport] = []
            lam_out = lambda_hat
            for worker_id in sorted(outcome.results):
                _, _, rep_dict = outcome.results[worker_id]
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
                rep = WorkerReport(
                    worker_id=worker_id,
                    start_vertex=rep_dict["start_vertex"],
                    vertices_scanned=rep_dict["vertices_scanned"],
                    edges_scanned=rep_dict["edges_scanned"],
                    blacklisted=rep_dict["blacklisted"],
                    pq_stats=PQStats(**rep_dict["pq_stats"]),
                    best_alpha=rep_dict["best_alpha"],
                    best_prefix=rep_dict["best_prefix"],
                )
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


class _SlotBound:
    """λ̂ box over the pass's shared int64 slot, kept as a monotone minimum.

    Updated without a lock: two workers may both read the old value and
    store their candidates in either order, so a smaller candidate can be
    overwritten by a larger one.  That lost update is safe — every value
    stored is the capacity of a real cut, so the slot always holds a valid
    marking bound — and the coordinator takes the pass's ``λ̂`` from the
    worker reports, not from the slot.
    """

    __slots__ = ("_slot",)

    def __init__(self, slot) -> None:
        self._slot = slot

    @property
    def value(self) -> int:
        return self._slot[0]

    def minimize(self, candidate: int) -> None:
        if candidate < self._slot[0]:
            self._slot[0] = candidate


def _round_worker_main(tasks, results) -> None:  # pragma: no cover - subprocess
    """One round worker: run a scan task per message until ``None``.

    Each task posts exactly one report on ``results``, except under an
    injected ``drop_result`` fault, where the worker exits cleanly without
    one.  Any exception ends the process with a nonzero exit code, which
    the coordinator records as a crash and repairs by restarting the worker.
    The worker also exits once the coordinator has, however it ended: its
    task pipe alone would not tell, because under ``fork`` the worker holds
    a copy of the pipe's sending end.
    """
    import multiprocessing as mp
    from multiprocessing.connection import wait

    coordinator = mp.parent_process().sentinel
    while True:
        if coordinator in wait([tasks, coordinator]):
            return
        try:
            task = tasks.recv()
        except EOFError:
            return  # the coordinator closed its end of the task pipe
        if task is None:
            return
        report = _round_task(*task)
        if report is None:
            return
        results.send(report)


def _round_task(
    graph_name, pairs_name, visited_name, p, n, worker_id, start, pq_kind, bound,
    fixed_bound, kernel, fault,
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
        if kernel == "compiled":
            graph_arrays = (g.xadj, g.adjncy, g.adjwgt, g.weighted_degrees(), n)
        else:
            graph_arrays = (
                g.xadj.tolist(), g.adjncy, g.adjwgt, g.weighted_degrees().tolist(), n,
            )

        # local union–find dedup: a redundant pair adds nothing to the final
        # partition (the closure of the pair multiset), so only partition-
        # changing pairs are published — which bounds the row at n - 1 pairs
        luf = UnionFind(n)
        pairs: list[tuple[int, int]] = []

        def union(u: int, v: int) -> None:
            if luf.union(u, v):
                pairs.append((u, v))

        report = WorkerReport(worker_id=worker_id, start_vertex=start)
        lam_box = _FrozenBound(bound) if fixed_bound else _SlotBound(pair_buf.bound)
        region = _REGION_WORKERS.get(kernel, _region_worker_with_prefix)
        gen = region(*graph_arrays, visited.buf, lam_box, union, start, pq_kind, bound, report)
        clock = FaultClock(fault)
        for _ in gen:
            f = clock.tick()
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
        if fault is not None and fault.kind == "corrupt_pairs":
            pairs = [(n + 1, n + 2)]  # out of range: coordinator must reject the row
        pair_buf.write_pairs(worker_id, pairs)
        return (
            worker_id,
            None,  # pairs travel through the shared buffer, not the pipe
            {
                "start_vertex": report.start_vertex,
                "vertices_scanned": report.vertices_scanned,
                "edges_scanned": report.edges_scanned,
                "blacklisted": report.blacklisted,
                "pq_stats": report.pq_stats.as_dict(),
                "best_alpha": report.best_alpha,
                "best_prefix": report.best_prefix,
            },
        )
    finally:
        # drop every view into the segments before closing them, otherwise
        # SharedMemory refuses to unmap ("cannot close exported pointers")
        gen = graph_arrays = g = lam_box = None
        for seg in (shared_graph, pair_buf, visited):
            try:
                seg.close()
            except BufferError:  # pragma: no cover - view leak backstop
                pass


#: the process-wide round workers every ``processes`` pass runs on
_ROUND_WORKERS = WorkerGroup(_round_worker_main)
