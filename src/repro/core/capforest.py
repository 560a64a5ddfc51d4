"""Sequential CAPFOREST (Algorithm 3 of the paper; Nagamochi–Ono–Ibaraki).

CAPFOREST performs a maximum-adjacency-style scan: it repeatedly pops the
unvisited vertex ``x`` most strongly connected to the visited set (priority
``r(x)``), and for every edge ``(x, y)`` to an unvisited ``y`` computes the
connectivity certificate ``q(e) = r(y) + c(e)``, a lower bound on
``λ(G, x, y)``.  Edges with ``q(e) ≥ λ̂`` connect vertices that no cut
smaller than ``λ̂`` separates, so they are *marked contractible* (a union in
a union–find).  Following NOI, only edges satisfying
``r(y) < λ̂ ≤ r(y) + c(e)`` are unioned — an equivalent but cheaper rule.

Along the way the scan tracks ``α``, the capacity of the cut between the
scanned prefix and the rest; each of those is a real cut of ``G``, so
``λ̂ ← min(λ̂, α)`` (lines 8–9 of Algorithm 3).  The best scanned prefix is
remembered so callers can recover an actual cut side, not just its value.

This implementation adds the paper's two sequential optimizations:

* **bounded priorities** (§3.1.2, Lemma 3.1): with ``bounded=True`` the
  priority queue clamps keys to ``λ̂`` and skips updates for vertices
  already at the clamp, eliminating most queue traffic on hub-heavy graphs;
* **pluggable queue implementations** (§3.1.3): ``pq_kind`` selects
  BStack / BQueue / Heap, which changes the tie-breaking scan order and
  hence which (equally safe) edges get marked.

One scan core
-------------
:func:`_scan` is the only copy of the scan.  The sequential pass runs it as
a *sole* scan: no other scan shares its vertices, so it claims every vertex
it pops, and when its queue empties with vertices left it records the
crossing-free cut ``α = 0`` and restarts from the next unvisited vertex.
Each region of ParCut's parallel pass (:mod:`repro.core.parallel_capforest`)
runs it with the shared visited table ``T``: it claims its pops there one
at a time, blacklists the vertices another worker claimed, stops when its
queue empties, and yields after every step.

Relaxation kernels
------------------
The kernel, selected by ``kernel=`` (registry: :data:`KERNELS`, checked by
:func:`check_kernel`), chooses where the scan keeps its state; the results
— λ̂, marks, scan order, ``pq_stats`` — are bit-identical either way.

``"scalar"``
    Lists: one Python-level loop iteration per arc.
``"vector"``
    On a bucket queue, the arrays of a :class:`ClampDrain`.  With the BQueue
    the scan drains the whole top bucket at once whenever that bucket sits
    at the priority clamp with at least :data:`MIN_BATCH` members — FIFO
    order makes this *exactly* equivalent to popping one vertex at a time
    (see :meth:`~repro.datastructures.bucket_pq.BQueuePQ.drain_top_bucket`)
    — and relaxes the batch's concatenated arc slices with array
    expressions (:meth:`ClampDrain.drain`): a segmented prefix sum recovers
    every ``r(y)``-before-arc value, the NOI mark rule becomes a mask, and
    each touched vertex is moved at most once in the queue (to its final
    bucket) while the operation counters still account for every elided
    intermediate event.  A single pop whose arc slice has at least
    :data:`POP_VECTOR_MIN_DEGREE` arcs relaxes it as array passes too.
    Every other pop runs the per-arc step on the same arrays, through
    memoryviews.  A heap scan, which nothing batches, and a BQueue scan of
    fewer than :data:`MIN_VECTOR_N` vertices, whose drains are too few to
    pay for the arrays, keep lists.

The ``capforest_pass`` trace event's ``kernel`` field names the storage
that ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datastructures.bucket_pq import BQueuePQ
from ..datastructures.pq import PQ_NAMES, PQStats, make_pq
from ..datastructures.union_find import UnionFind
from ..graph.csr import Graph
from ..runtime.errors import NoProgressError

#: Largest λ̂ for which a bucket queue is still sensible; above this the
#: bucket array (λ̂ + 1 slots, one per possible priority) would dwarf the
#: graph and the factory transparently falls back to the binary heap.
MAX_BUCKET_BOUND = 1 << 22

#: below this many members, draining the top bucket costs more in array
#: bookkeeping than the scalar pops it replaces (the vector kernel's
#: batching crossover; the bench record republishes it in
#: ``batch_crossovers``)
MIN_BATCH = 16

#: below this many vertices a BQueue scan keeps its state in lists under
#: ``kernel="vector"``: its at-the-clamp drains are too few and too short
#: to pay for the array set-up (the kernels' crossover on the suite
#: graphs, measured as IMPLEMENTATION_NOTES §11 describes; the bench
#: record republishes it in ``batch_crossovers``)
MIN_VECTOR_N = 160

#: minimum arc-slice length before a *single* pop relaxes its slice with
#: array expressions — below this the fixed per-call numpy overhead loses
#: to the plain Python loop (measured on GNM instances)
POP_VECTOR_MIN_DEGREE = 96

#: the exact solvers' CAPFOREST configuration when a request names none:
#: NOIλ̂-BQueue on the vector kernel (``noi``, ``noi-viecut``, the warm
#: update path and the engine read these; a bare :func:`capforest` call
#: keeps the paper's reference Heap and the scalar kernel)
DEFAULT_PQ_KIND = "bqueue"
DEFAULT_KERNEL = "vector"

#: the kernel registry: every ``kernel=`` argument, the CLI's ``--kernel``
#: choices and the API name one of these (see the module docstring)
KERNELS = ("scalar", "vector")


def check_kernel(kernel: str) -> str:
    """Validate a kernel name against :data:`KERNELS`; return it."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


@dataclass
class CapforestResult:
    """Outcome of one CAPFOREST pass."""

    #: marked contractible edges, as a union–find partition over the vertices
    uf: UnionFind
    #: number of marking events (0 means the pass made no progress)
    n_marked: int
    #: smallest cut value discovered (min of the input λ̂ and all scan cuts α);
    #: with ``fixed_bound=True`` this stays at the input value
    lambda_hat: int
    #: smallest scan cut α observed (always a real cut of G), or None if the
    #: scan never completed a proper prefix — tracked even under fixed_bound
    min_alpha: int | None
    #: vertices in pop order; ``scan_order[:best_prefix]`` is a side of a cut
    #: of value ``min_alpha`` whenever ``best_prefix > 0``
    scan_order: list[int]
    #: prefix length realising ``min_alpha`` (0 = no proper prefix recorded)
    best_prefix: int
    #: priority-queue operation counters (drives the Figure 2/3 analysis)
    pq_stats: PQStats
    #: number of vertices popped
    vertices_scanned: int
    #: number of arcs relaxed (edges scanned towards unvisited vertices)
    edges_scanned: int
    #: optional per-edge certificates ``(u, v, q, lambda_at_scan, marked)``
    certificates: list[tuple[int, int, int, int, bool]] = field(default_factory=list)

    def best_cut_mask(self, n: int) -> np.ndarray | None:
        """Boolean side mask of the best scan cut (value ``min_alpha``), or
        ``None`` if no proper scan prefix was recorded."""
        if self.best_prefix <= 0:
            return None
        mask = np.zeros(n, dtype=bool)
        mask[self.scan_order[: self.best_prefix]] = True
        return mask


@dataclass
class ScanRecord:
    """What one run of :func:`_scan` counted and found.

    A region writes it before each step it yields, a sole scan once, at its
    end.  :class:`CapforestResult` is built from it, and ParCut's
    :class:`~repro.core.parallel_capforest.WorkerReport` extends it.
    """

    #: vertices popped and claimed (scanned)
    vertices_scanned: int = 0
    #: arcs relaxed (edges scanned towards vertices not yet popped)
    edges_scanned: int = 0
    #: vertices popped after another worker had claimed them in ``T``
    blacklisted: int = 0
    #: members popped through at-the-clamp drains (claimed or blacklisted)
    drained: int = 0
    #: marking events
    n_marked: int = 0
    #: smallest α of a proper scanned prefix (a real cut of G), or None
    best_alpha: int | None = None
    #: length of the scanned prefix realising ``best_alpha`` (0: none)
    best_len: int = 0
    #: the scan's queue operation counters
    pq_stats: PQStats = field(default_factory=PQStats)

    def tally(self, scanned, pops, edges, drained, marked, best, best_len) -> None:
        """Write the scan's running counters (``pops`` counts every pop)."""
        self.vertices_scanned = scanned
        self.edges_scanned = edges
        self.blacklisted = pops - scanned
        self.drained = drained
        self.n_marked = marked
        self.best_alpha = best
        self.best_len = best_len


def check_queue(pq_kind: str | None = None, bounded: bool = True) -> str:
    """Resolve and validate a CAPFOREST queue (the rule every solver shares).

    ``pq_kind=None`` names no queue: a bounded scan then runs on
    :data:`DEFAULT_PQ_KIND` and an unbounded one on the heap.  A named
    ``pq_kind`` must be one of :data:`~repro.datastructures.pq.PQ_NAMES`,
    and an unbounded scan must use the heap: a bucket queue needs a bound.
    Returns the queue kind that runs.
    """
    if pq_kind is None:
        return DEFAULT_PQ_KIND if bounded else "heap"
    if pq_kind not in PQ_NAMES:
        raise ValueError(f"unknown priority queue kind {pq_kind!r}; expected one of {PQ_NAMES}")
    if not bounded and pq_kind != "heap":
        raise ValueError("unbounded CAPFOREST requires the heap queue (bucket queues need a bound)")
    return pq_kind


def capforest(
    graph: Graph,
    lambda_hat: int,
    *,
    pq_kind: str = "heap",
    bounded: bool = True,
    start: int | None = None,
    rng: np.random.Generator | int | None = None,
    record_certificates: bool = False,
    fixed_bound: bool = False,
    kernel: str = "scalar",
    tracer=None,
) -> CapforestResult:
    """Run one sequential CAPFOREST pass.

    The pass scans every vertex: when the queue empties with vertices left
    (a disconnected graph), it records the crossing-free cut ``α = 0`` and
    restarts from the lowest-numbered unvisited vertex.

    Parameters
    ----------
    graph:
        Input graph (weights are positive integers).
    lambda_hat:
        Current upper bound ``λ̂`` on the minimum cut (e.g. the minimum
        weighted degree, or VieCut's result).  Must be non-negative.
    pq_kind:
        ``"bstack"``, ``"bqueue"`` or ``"heap"`` (§3.1.3).
    bounded:
        Apply the Lemma 3.1 priority clamp.  ``False`` reproduces the
        unbounded baseline (``NOI-HNSS``) and requires ``pq_kind="heap"``.
    start:
        Start vertex; default: drawn from ``rng`` (paper: random vertex).
    rng:
        Source of randomness for the start vertex (default: fresh default
        generator).
    record_certificates:
        Capture ``(u, v, q, λ̂_at_scan, marked)`` per scanned edge for
        verification tests (costs memory; off by default).
    fixed_bound:
        Keep the marking threshold at the input ``lambda_hat`` for the
        whole scan instead of tightening it with every scan cut α.  Matula's
        approximation runs CAPFOREST with a deliberately *invalid* bound
        (below λ) where the usual tightening would be wrong; scan cuts are
        still tracked in ``min_alpha`` since each α is a real cut.
    kernel:
        ``"scalar"`` (state in lists, one Python iteration per arc),
        ``"vector"`` (state in arrays with batched numpy relaxation on a
        bucket queue; lists on the heap and on a BQueue scan below
        :data:`MIN_VECTOR_N` vertices) — identical results either way,
        see module docstring.
    tracer:
        Optional :class:`repro.observability.Tracer`.  One
        ``capforest_pass`` event is emitted per call — *pass* granularity,
        after the scan completes, so the relaxation hot loop never sees
        the tracer and a ``tracer=None`` run does zero added per-edge work.
        Its ``kernel`` field names the storage that ran: ``"vector"``
        exactly when the state was in arrays.

    Notes
    -----
    The marking rule uses the *current* (monotonically decreasing) ``λ̂``,
    so every marked edge ``e`` satisfies ``λ(G, e) ≥ λ̂_at_scan ≥ λ̂_final``
    — contraction never destroys a cut smaller than the returned bound.
    """
    if lambda_hat < 0:
        raise ValueError(f"lambda_hat must be non-negative, got {lambda_hat}")
    pq_kind = check_queue(pq_kind, bounded)
    check_kernel(kernel)
    n = graph.n
    uf = UnionFind(n)
    if n == 0:
        return CapforestResult(uf, 0, lambda_hat, None, [], 0, PQStats(), 0, 0)
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    if start is None:
        start = int(rng.integers(n))
    elif not (0 <= start < n):
        raise ValueError(f"start vertex {start} out of range")

    effective_kind = pq_kind if bounded and lambda_hat <= MAX_BUCKET_BOUND else "heap"
    # arrays only where the scan batches: a bucket queue, and for the BQueue
    # only above the small-scan crossover (see MIN_VECTOR_N)
    arrays = kernel == "vector" and (
        effective_kind == "bstack" or (effective_kind == "bqueue" and n >= MIN_VECTOR_N)
    )
    pq = make_pq(effective_kind, n, bound=lambda_hat if bounded else None, array_keys=arrays)
    certificates: list | None = [] if record_certificates else None
    box = _FrozenBound(lambda_hat) if fixed_bound else _SharedBound(lambda_hat)
    rec = ScanRecord(pq_stats=pq.stats)
    order: list[int] = []
    drainer = ClampDrain(graph, pq, lambda_hat, certificates) if arrays else None
    marks = _MarkBuffer() if arrays else uf  # list-backed scans union as they mark
    # a sole scan never yields: one call runs it to its end
    next(_scan(graph, pq, drainer, start, box, marks, rec, order, certificates=certificates), None)
    if arrays:
        marks.merge_into(uf)
    res = CapforestResult(
        uf=uf,
        n_marked=rec.n_marked,
        lambda_hat=box.value,
        min_alpha=rec.best_alpha,
        scan_order=order,
        best_prefix=rec.best_len,
        pq_stats=rec.pq_stats,
        vertices_scanned=rec.vertices_scanned,
        edges_scanned=rec.edges_scanned,
        certificates=certificates or [],
    )
    if tracer is not None:
        tracer.emit(
            "capforest_pass",
            n=n,
            pq_kind=effective_kind,
            bounded=bounded,
            kernel="vector" if arrays else "scalar",
            lambda_in=int(lambda_hat),
            lambda_out=int(res.lambda_hat),
            marked=res.n_marked,
            edges_scanned=res.edges_scanned,
            vertices_scanned=res.vertices_scanned,
        )
    return res


# ---------------------------------------------------------------------------
# the scan core and the two protocols it writes λ̂ and marks through
# ---------------------------------------------------------------------------


class _SharedBound:
    """Monotonically decreasing λ̂ of a sole scan, or of the ``serial``
    executor's workers, which share one box."""

    __slots__ = ("value",)
    frozen = False

    def __init__(self, value: int) -> None:
        self.value = value

    def minimize(self, candidate: int) -> None:
        if candidate < self.value:
            self.value = candidate


class _FrozenBound:
    """A λ̂ box that never tightens — for fixed-threshold scans (Matula).

    Scans still *report* their cuts through their records' ``best_alpha``;
    only the marking threshold stays put.
    """

    __slots__ = ("value",)
    frozen = True

    def __init__(self, value: int) -> None:
        self.value = value

    def minimize(self, candidate: int) -> None:  # noqa: ARG002 - by design
        return


class _SlotBound:
    """λ̂ box over a ``processes`` pass's shared int64 slot, kept as a
    monotone minimum.

    Updated without a lock: two workers may both read the old value and
    store their candidates in either order, so a smaller candidate can be
    overwritten by a larger one.  That lost update is safe — every value
    stored is the capacity of a real cut, so the slot always holds a valid
    marking bound — and the coordinator takes the pass's ``λ̂`` from the
    worker reports, not from the slot.
    """

    __slots__ = ("_slot",)
    frozen = False

    def __init__(self, slot) -> None:
        self._slot = slot

    @property
    def value(self) -> int:
        return self._slot[0]

    def minimize(self, candidate: int) -> None:
        if candidate < self._slot[0]:
            self._slot[0] = candidate


class _MarkBuffer:
    """An array-backed scan's marks, buffered as arrays until it ends.

    Takes single marks through :meth:`union` and batches through
    :meth:`union_pairs`, the two calls a scan makes on a union–find.  A
    sole scan then unions them all in one call (:meth:`merge_into`), a
    process worker deduplicates them once (:meth:`published`).
    """

    __slots__ = ("pairs", "us", "vs")

    def __init__(self) -> None:
        self.pairs: list[tuple[int, int]] = []
        self.us: list[np.ndarray] = []
        self.vs: list[np.ndarray] = []

    def union(self, u: int, v: int) -> None:
        self.pairs.append((u, v))

    def union_pairs(self, us: np.ndarray, vs: np.ndarray) -> None:
        self.us.append(us)
        self.vs.append(vs)

    def merge_into(self, uf: UnionFind) -> None:
        """Union every buffered mark into ``uf`` with one ``union_pairs``.

        CAPFOREST only ever *writes* its union–find during a scan, and the
        final partition is the closure of the marked pairs whatever the
        union order, so one merge at the end amortises the root-resolution
        passes over the whole scan.
        """
        if self.pairs:
            single = np.asarray(self.pairs, dtype=np.int64)
            self.union_pairs(single[:, 0], single[:, 1])
        if self.us:
            uf.union_pairs(np.concatenate(self.us), np.concatenate(self.vs))

    def published(self, n: int) -> np.ndarray:
        """One ``(v, root)`` pair per non-root vertex of the marks' closure.

        A redundant mark adds nothing to the final partition (the closure
        of the pair multiset), so this row carries the same partition in at
        most ``n - 1`` pairs.
        """
        if not (self.pairs or self.us):
            return np.empty((0, 2), dtype=np.int64)
        uf = UnionFind(n)
        self.merge_into(uf)
        roots = uf.roots()
        members = np.flatnonzero(roots != np.arange(n))
        return np.column_stack((members, roots[members]))


def _scan(graph, pq, drainer, start, box, marks, rec, order, T=None, certificates=None):
    """The CAPFOREST scan: the one copy of its one-pop step and its drain.

    ``pq`` is the scan's empty queue and ``drainer`` the
    :class:`ClampDrain` holding its state, or ``None`` to keep the state
    in lists.  On arrays a BQueue drains at-the-clamp top buckets of at
    least :data:`MIN_BATCH` members, and a pop with at least
    :data:`POP_VECTOR_MIN_DEGREE` arcs relaxes them as array passes unless
    ``certificates`` (a list of per-arc records, or ``None``) are kept.
    ``box`` holds λ̂ (``value``, ``minimize``, ``frozen``); ``marks``
    takes marked pairs through ``union(u, v)`` and ``union_pairs(us, vs)``.
    The scan appends its claimed vertices to ``order`` and writes its
    counters and best cut into ``rec`` (:meth:`ScanRecord.tally`).
    ``seen[v]`` is ``v``'s position in the scan's pop order (``n`` while
    unpopped), so an arc is relaxed exactly when its head pops later than
    its tail.  It is a list on either storage: the per-arc step reads it
    once per arc, and a list read costs half a memoryview read.  On arrays
    every pop and drain also writes it into the drainer's ``pop_time``.

    Without ``T`` the scan is *sole*: it claims every pop, restarts from
    the next unvisited vertex when its queue empties with vertices left,
    and never yields.  With the shared visited table ``T`` it scans a
    *region*: it claims each pop in ``T`` or blacklists it, stops when its
    queue empties, and yields the pops of each step (1, or a drain's
    member count), with ``rec`` written before each yield.
    """
    n = graph.n
    xadj = graph.xadj_list()
    adjncy = graph.adjncy
    adjwgt = graph.adjwgt
    wdeg = graph.weighted_degrees_list()
    region = T is not None
    keep_certificates = certificates is not None
    drains = pop_vector = False
    seen = [n] * n
    if drainer is None:
        r, pop_time = [0] * n, seen
    else:
        # memoryview items are plain ints: the per-arc step reads and
        # writes them at close to list speed, where a numpy scalar costs
        # several times as much
        r, pop_time = drainer.r_v, drainer.pop_time_v
        r_arr, pop_arr, bound = drainer.r, drainer.pop_time, drainer.bound
        drains = isinstance(pq, BQueuePQ)
        pop_vector = not keep_certificates
    union = marks.union
    insert = pq.insert_or_raise
    pop = pq.pop_max
    alpha = pops = edges = drained = n_marked = best_len = next_restart = 0
    best = None

    insert(start, 0)
    while True:
        if not len(pq):
            if region:
                break
            while next_restart < n and seen[next_restart] < n:
                next_restart += 1
            if next_restart == n:
                break
            # the scanned/unscanned cut has no crossing edge: α = 0
            if best is None or 0 < best:
                best, best_len = 0, len(order)
                box.minimize(0)
            insert(next_restart, 0)

        if (
            drains
            and pq.top_may_reach(bound)
            and pq.top_key() == bound
            and pq.top_bucket_len() >= MIN_BATCH
        ):
            batch = pq.drain_top_bucket()
            k = len(batch)
            if pops + k > n:
                raise NoProgressError(f"scan popped {pops + k} vertices from a {n}-vertex graph")
            # every member gets its pop position; a region claims the members
            # in T one at a time (batch positions in ``claimed``)
            claimed = [] if region else None
            for i, v in enumerate(batch):
                seen[v] = pops + i
                if region and not T[v]:
                    T[v] = 1
                    claimed.append(i)
            # the drain runs as if no other worker acted during it: one read
            # of the shared λ̂, lowered only by this drain's own scan cuts
            alpha, _, best, end, m_ev, us, vs = drainer.drain(
                batch, claimed, pops, len(order), alpha, box.value, best, box.frozen
            )
            pops += k
            drained += k
            edges += m_ev
            order.extend(batch if claimed is None else [batch[i] for i in claimed])
            if end:
                best_len = end
                box.minimize(best)
            if us is not None:
                marks.union_pairs(us, vs)
                n_marked += len(us)
            step = k
        else:
            x, _ = pop()
            pops += 1
            if pops > n:
                # every vertex enters the queue at most once, so a scan
                # popping more than n times runs on corrupt queue state
                raise NoProgressError(f"scan popped {pops} vertices from a {n}-vertex graph")
            seen[x] = pop_time[x] = pops - 1
            if region:
                if T[x]:
                    rec.tally(len(order), pops, edges, drained, n_marked, best, best_len)
                    yield 1
                    continue
                T[x] = 1
            alpha += wdeg[x] - 2 * r[x]
            order.append(x)
            if len(order) < n and (best is None or alpha < best):
                best, best_len = alpha, len(order)
                box.minimize(alpha)
            lam = box.value
            lo, hi = xadj[x], xadj[x + 1]
            if pop_vector and hi - lo >= POP_VECTOR_MIN_DEGREE:
                # heads within one slice are distinct (simple graph), so the
                # array order is the per-arc order and insert_many counts
                # event for event
                ys = adjncy[lo:hi]
                live = np.flatnonzero(pop_arr[ys] == n)
                if len(live):
                    ys = ys[live]
                    ry = r_arr[ys]
                    q = ry + adjwgt[lo:hi][live]
                    hit = np.flatnonzero((ry < lam) & (lam <= q))
                    if len(hit):
                        marks.union_pairs(np.full(len(hit), x, dtype=np.int64), ys[hit])
                        n_marked += len(hit)
                    r_arr[ys] = q
                    pq.insert_many(ys, q)
                    edges += len(live)
            else:
                for y, w in zip(adjncy[lo:hi].tolist(), adjwgt[lo:hi].tolist()):
                    if seen[y] < n:
                        continue
                    edges += 1
                    ry = r[y]
                    q = ry + w
                    if ry < lam <= q:
                        union(x, y)
                        n_marked += 1
                        if keep_certificates:
                            certificates.append((x, y, q, lam, True))
                    elif keep_certificates:
                        certificates.append((x, y, q, lam, False))
                    r[y] = q
                    insert(y, q)
            step = 1
        if region:
            rec.tally(len(order), pops, edges, drained, n_marked, best, best_len)
            yield step
    rec.tally(len(order), pops, edges, drained, n_marked, best, best_len)


class ClampDrain:
    """The array state of a scan on a bucket queue, and the at-the-clamp
    drain step of a BQueue scan.

    ``r`` holds each vertex's priority and ``pop_time`` each vertex's
    position in the scan's pop order (``n`` while unpopped).  ``pop_time``
    doubles as the visited flag *and* the intra-drain schedule: an arc is
    live exactly when its head pops later than its tail.  ``r_v`` and
    ``pop_time_v`` are memoryviews of the two arrays for the one-pop step,
    whose items are plain ints.  The scan core (:func:`_scan`) drains
    through :meth:`drain`: a sole scan scans every drained member, a region
    only the members it claimed in the shared visited table.
    """

    __slots__ = (
        "n", "xadj", "adjncy", "adjwgt", "wdeg", "pq", "bound", "r", "pop_time",
        "r_v", "pop_time_v", "small_weights", "head_dtype", "arange", "certificates",
    )

    def __init__(self, graph: Graph, pq, bound: int, certificates: list | None = None) -> None:
        n = self.n = graph.n
        self.xadj = graph.xadj
        self.adjncy = graph.adjncy
        self.adjwgt = graph.adjwgt
        self.wdeg = graph.weighted_degrees()
        self.pq = pq
        self.bound = bound
        self.r = np.zeros(n, dtype=np.int64)
        self.pop_time = np.full(n, n, dtype=np.int64)
        self.r_v = memoryview(self.r)
        self.pop_time_v = memoryview(self.pop_time)
        # per-drain weight sums stay exact in float64 (bincount) iff they stay
        # under 2**53; fall back to the slower exact integer scatter-add else
        self.small_weights = graph.total_weight() < (1 << 52)
        # numpy's stable argsort is a radix sort for <= 16-bit integers (an
        # order of magnitude faster than the comparison sort it uses for
        # int64), so sort narrowed copies of the head ids whenever they fit
        self.head_dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int64
        self.arange = np.empty(0, dtype=np.int64)  # grown on demand, reused
        #: per-arc ``(u, v, q, λ̂, marked)`` records, or None to keep none
        self.certificates = certificates

    def drain(self, batch, claimed, sb, scanned, alpha, lam, best_alpha, fixed_bound):
        """Pop the drained ``batch`` at pop positions ``sb, sb+1, ...`` and
        scan its claimed members as one batch of array passes.

        ``claimed`` lists the batch positions the caller scans, in order
        (``None``: all of them); the other members are only popped, so
        arcs from earlier members still reach them and arcs from later
        members skip them.  ``scanned`` is the number of members the scan
        claimed before this drain, ``alpha`` its running scan cut,
        ``best_alpha`` its smallest proper-prefix α so far (or ``None``)
        and ``lam`` the marking bound at the drain's start, which each
        claimed member's α lowers unless ``fixed_bound``.

        Returns ``(alpha, lam, best_alpha, best_end, edges, us, vs)``:
        ``best_end`` is the claimed-prefix length realising a new
        ``best_alpha`` (``0`` if none), ``edges`` the live arcs relaxed,
        and ``us``/``vs`` the marked pairs (``None`` if none).  Updates
        ``r``, ``pop_time``, the queue and its counters in place.
        """
        n = self.n
        xadj = self.xadj
        r = self.r
        pop_time = self.pop_time
        stats = self.pq.stats
        bound = self.bound
        k = len(batch)
        idx = np.asarray(batch, dtype=np.int64)
        if claimed is None:
            src, kc, rank_of = idx, k, None
        else:
            cpos = np.asarray(claimed, dtype=np.int64)
            src, kc = idx[cpos], len(cpos)
            rank_of = np.zeros(k, dtype=np.int64)  # batch position -> claimed rank
            rank_of[cpos] = np.arange(kc)
        starts_ = xadj[src]
        counts = xadj[src + 1] - starts_
        total = int(counts.sum())
        if self.arange.shape[0] < max(total, k):
            self.arange = np.arange(max(total, k), dtype=np.int64)
        arange = self.arange
        pt_idx = arange[:k] + sb  # absolute pop times of the batch
        pop_time[idx] = pt_idx
        src_time = pt_idx if claimed is None else pt_idx[cpos]

        # concatenated arc slices of the claimed members, in pop order
        if total:
            cum = np.cumsum(counts)
            arc = np.repeat(starts_ - (cum - counts), counts)
            arc += arange[:total]
            ys = self.adjncy[arc]
            tail_time = np.repeat(src_time, counts)
            # an arc is relaxed iff its head is unvisited at the moment
            # its tail is popped, i.e. the head pops later than the tail
            # (unscanned heads hold pop_time == n, later than any pop):
            # this is literally the scalar schedule, evaluated in bulk
            pt_all = pop_time[ys]
            live_idx = np.flatnonzero(pt_all > tail_time)
            ys = ys[live_idx]
            ws = self.adjwgt[arc[live_idx]]
            src_pos = tail_time[live_idx]
            src_pos -= sb  # batch position of each live arc's tail
            pt_ys = pt_all[live_idx]
        else:
            ys = ws = src_pos = pt_ys = np.empty(0, dtype=np.int64)
        m_ev = len(ys)
        src_rank = src_pos if rank_of is None else rank_of[src_pos]

        # α per claimed pop needs r at pop time, which includes the weight
        # the earlier claimed members already pushed into later ones
        in_batch = pt_ys < sb + k
        tgt = pt_ys[in_batch]
        tgt -= sb
        if self.small_weights:
            intra = np.bincount(tgt, weights=ws[in_batch], minlength=k).astype(np.int64)
        else:
            intra = np.zeros(k, dtype=np.int64)
            np.add.at(intra, tgt, ws[in_batch])
        if claimed is not None:
            intra = intra[cpos]
        alphas = alpha + np.cumsum(self.wdeg[src] - 2 * (r[src] + intra))
        if kc:
            alpha = int(alphas[-1])

        # only the first n-1-scanned claimed pops can improve the cut (a full
        # prefix is no cut); λ̂ tightening is skipped entirely unless this
        # drain actually improves it — the overwhelmingly common case
        elig = min(kc, n - 1 - scanned)
        best_end = 0
        lam_per_pop = None
        if elig > 0:
            mn = int(alphas[:elig].min())
            if best_alpha is None or mn < best_alpha:
                best_alpha = mn
                best_end = scanned + int(np.argmax(alphas[:elig] == mn)) + 1
            if not fixed_bound and mn < lam:
                lam_per_pop = np.empty(kc, dtype=np.int64)
                np.minimum.accumulate(np.minimum(alphas[:elig], lam), out=lam_per_pop[:elig])
                lam_per_pop[elig:] = lam_per_pop[elig - 1]
                lam = int(lam_per_pop[-1])

        us = vs = None
        if m_ev:
            # group events by head vertex (stable: event order preserved
            # within each group) and recover every r(y)-before-arc value
            # with a segmented exclusive prefix sum
            order = np.argsort(ys.astype(self.head_dtype, copy=False), kind="stable")
            ys_s = ys[order]
            ws_s = ws[order]
            grp_first = np.empty(m_ev, dtype=bool)
            grp_first[0] = True
            np.not_equal(ys_s[1:], ys_s[:-1], out=grp_first[1:])
            first_idx = np.flatnonzero(grp_first)
            grp_sizes = np.diff(np.append(first_idx, m_ev))
            excl = np.cumsum(ws_s)
            excl -= ws_s
            r0 = r[ys_s[first_idx]]  # pre-drain r, one per head
            r_before = excl + np.repeat(r0 - excl[first_idx], grp_sizes)
            q_s = r_before + ws_s

            if lam_per_pop is None:
                mark = (r_before < lam) & (lam <= q_s)
            else:
                lam_evt = lam_per_pop[src_rank[order]]
                mark = (r_before < lam_evt) & (lam_evt <= q_s)
            mark_idx = np.flatnonzero(mark)
            if len(mark_idx):
                us = src[src_rank[order[mark_idx]]]
                vs = ys_s[mark_idx]

            # event-accurate queue counters (Lemma 3.1 classification
            # straight from r: a push is a group's first event with
            # r == 0; an event moves the head unless it is skipped at
            # the bound — and every non-push move is a strict raise)
            mask_move = r_before < (bound if bound > 0 else 1)
            # within each group r_before is nondecreasing (weights are
            # positive), so the moving events form a prefix; a single
            # maximum.reduceat yields each group's last move event
            # directly (-1 for groups that never move)
            last_all = np.maximum.reduceat(np.where(mask_move, arange[:m_ev], -1), first_idx)
            moved = int(np.count_nonzero(mask_move))
            pushes = int((r0 == 0).sum())
            stats.pushes += pushes
            stats.updates += moved - pushes
            stats.skipped_updates += m_ev - moved

            if self.certificates is not None:
                q_orig = np.empty(m_ev, dtype=np.int64)
                q_orig[order] = q_s
                mark_orig = np.empty(m_ev, dtype=bool)
                mark_orig[order] = mark
                if lam_per_pop is None:
                    lam_orig = np.full(m_ev, lam, dtype=np.int64)
                else:
                    lam_orig = lam_per_pop[src_rank]
                self.certificates.extend(
                    zip(
                        src[src_rank].tolist(),
                        ys.tolist(),
                        q_orig.tolist(),
                        lam_orig.tolist(),
                        mark_orig.tolist(),
                    )
                )

            # each head moves in the queue only at its *last* reposition
            # event (repositions are a prefix of its group); applying
            # just that final move, ordered by original event time,
            # reproduces the scalar queue state exactly
            has_move = last_all >= 0
            if has_move.any():
                last_evt = last_all[has_move]
                evt = order[last_evt]  # distinct event times, one per head
                if m_ev <= np.iinfo(np.int16).max:
                    evt = evt.astype(np.int16)
                # permute *first*, then gather once per array; every push
                # is a move (r_before = 0 < λ̂), so the push count from
                # the stats block doubles as the queue-growth delta and
                # old keys never need materialising
                sel = last_evt[np.argsort(evt, kind="stable")]
                self.pq.apply_relaxations(
                    ys_s[sel], None, np.minimum(q_s[sel], bound), n_pushes=pushes,
                )

            # total relaxation per head = its group's last q
            grp_last = first_idx + grp_sizes - 1
            r[ys_s[grp_last]] = q_s[grp_last]

        return alpha, lam, best_alpha, best_end, m_ev, us, vs
