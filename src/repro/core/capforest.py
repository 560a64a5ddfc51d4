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

Relaxation kernels
------------------
Two interchangeable kernels drive the scan, selected by ``kernel=``
(registry: :data:`repro.kernels.KERNELS`):

``"scalar"``
    The reference implementation: one Python-level loop iteration per arc.
``"vector"``
    Batch relaxation over numpy arrays.  With the BQueue the kernel drains
    the whole top bucket at once whenever that bucket sits at the priority
    clamp — FIFO order makes this *exactly* equivalent to popping one
    vertex at a time (see :meth:`~repro.datastructures.bucket_pq.BQueuePQ.
    drain_top_bucket`) — and relaxes the batch's concatenated arc slices
    with array expressions: a segmented prefix sum recovers every
    ``r(y)``-before-arc value, the NOI mark rule becomes a mask, marked
    edges go through :meth:`~repro.datastructures.union_find.UnionFind.
    union_pairs`, and each touched vertex is moved at most once in the
    queue (to its final bucket) while the operation counters still account
    for every elided intermediate event.  Outside the batchable regime
    (other queue kinds, top bucket below the clamp, ``bounded=False``) the
    vector kernel runs the scalar relaxation step, reading and writing its
    state arrays through memoryviews, so results — λ̂, marks, scan
    order, ``pq_stats`` — are bit-identical to ``kernel="scalar"`` for
    every configuration.  On a BQueue scan of fewer than
    :data:`MIN_VECTOR_N` vertices, where too few drains pay for their
    array set-up, ``kernel="vector"`` runs the scalar kernel itself.
    The drain is one step, :meth:`ClampDrain.drain`, which ParCut's
    ``processes`` region workers run too, on the members they claimed.

The registry also accepts ``"compiled"``, the name of a retired JIT tier:
it resolves to ``"vector"`` with a ``kernel_fallback`` note
(:func:`repro.kernels.resolve_kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datastructures.pq import PQ_NAMES, PQStats, make_pq
from ..datastructures.union_find import UnionFind
from ..graph.csr import Graph

# the kernel registry is homed in repro.kernels (one source of truth for
# capforest, parallel_capforest, the CLI, and the API); re-exported here
# for compatibility with existing import sites
from ..kernels import KERNELS as KERNELS
from ..kernels import check_kernel as check_kernel
from ..kernels import resolve_kernel

#: Largest λ̂ for which a bucket queue is still sensible; above this the
#: bucket array (λ̂ + 1 slots, one per possible priority) would dwarf the
#: graph and the factory transparently falls back to the binary heap.
MAX_BUCKET_BOUND = 1 << 22

#: below this many members, draining the top bucket costs more in array
#: bookkeeping than the scalar pops it replaces (the vector kernel's
#: batching crossover; the bench record republishes it in
#: ``batch_crossovers``)
MIN_BATCH = 16

#: below this many vertices a BQueue scan runs ``_capforest_scalar`` under
#: ``kernel="vector"``: its at-the-clamp drains are too few and too short
#: to pay for the vector kernel's array set-up (the kernels' crossover on
#: the suite graphs, measured as IMPLEMENTATION_NOTES §11 describes; the
#: bench record republishes it in ``batch_crossovers``)
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
    scan_all: bool = True,
    record_certificates: bool = False,
    fixed_bound: bool = False,
    kernel: str = "scalar",
    tracer=None,
) -> CapforestResult:
    """Run one sequential CAPFOREST pass.

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
    scan_all:
        Restart from an arbitrary unvisited vertex when the queue drains
        with vertices left (disconnected graphs / safety in drivers).  Each
        restart first registers the crossing-free cut ``α = 0``.
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
        ``"scalar"`` (reference, one Python iteration per arc),
        ``"vector"`` (batched numpy relaxation; the scalar kernel on a
        BQueue scan below :data:`MIN_VECTOR_N` vertices), or
        ``"compiled"`` (runs as ``"vector"``) — identical results either
        way, see module docstring.
    tracer:
        Optional :class:`repro.observability.Tracer`.  One
        ``capforest_pass`` event is emitted per call — *pass* granularity,
        after the scan completes, so the relaxation hot loop never sees
        the tracer and a ``tracer=None`` run does zero added per-edge work.
        Its ``kernel`` field names the kernel that ran the scan.

    Notes
    -----
    The marking rule uses the *current* (monotonically decreasing) ``λ̂``,
    so every marked edge ``e`` satisfies ``λ(G, e) ≥ λ̂_at_scan ≥ λ̂_final``
    — contraction never destroys a cut smaller than the returned bound.
    """
    if lambda_hat < 0:
        raise ValueError(f"lambda_hat must be non-negative, got {lambda_hat}")
    pq_kind = check_queue(pq_kind, bounded)
    kernel, _ = resolve_kernel(kernel, tracer=tracer)
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

    if bounded:
        effective_kind = pq_kind if lambda_hat <= MAX_BUCKET_BOUND else "heap"
    else:
        effective_kind = "heap"
    if kernel == "vector" and effective_kind == "bqueue" and n < MIN_VECTOR_N:
        kernel = "scalar"  # the small-scan crossover (see MIN_VECTOR_N)

    pq = make_pq(
        effective_kind,
        n,
        bound=lambda_hat if bounded else None,
        array_keys=kernel == "vector",
    )
    run = _capforest_vector if kernel == "vector" else _capforest_scalar
    res = run(
        graph,
        lambda_hat,
        uf,
        pq,
        effective_kind,
        start,
        scan_all=scan_all,
        record_certificates=record_certificates,
        fixed_bound=fixed_bound,
    )
    if tracer is not None:
        tracer.emit(
            "capforest_pass",
            n=n,
            pq_kind=effective_kind,
            bounded=bounded,
            kernel=kernel,
            lambda_in=int(lambda_hat),
            lambda_out=int(res.lambda_hat),
            marked=res.n_marked,
            edges_scanned=res.edges_scanned,
            vertices_scanned=res.vertices_scanned,
        )
    return res


def _capforest_scalar(
    graph: Graph,
    lambda_hat: int,
    uf: UnionFind,
    pq,
    effective_kind: str,
    start: int,
    *,
    scan_all: bool,
    record_certificates: bool,
    fixed_bound: bool,
) -> CapforestResult:
    """Reference kernel: one Python loop iteration per relaxed arc."""
    n = graph.n
    # Python-int copies of the CSR arrays: the scan loop below touches
    # single elements millions of times, where list indexing beats numpy
    # scalar indexing ~3x (see the hpc-parallel profiling guide).  The
    # conversions are cached on the Graph and shared across passes.
    xadj = graph.xadj_list()
    adjncy = graph.adjncy
    adjwgt = graph.adjwgt
    wdeg = graph.weighted_degrees_list()

    visited = bytearray(n)
    r = [0] * n
    lam = lambda_hat
    alpha = 0
    min_alpha: int | None = None
    scan_order: list[int] = []
    best_prefix = 0
    n_marked = 0
    edges_scanned = 0
    certificates: list[tuple[int, int, int, int, bool]] = []
    union = uf.union
    insert = pq.insert_or_raise
    pop = pq.pop_max

    insert(start, 0)
    next_restart = 0  # cursor for scan_all restarts
    while True:
        if not len(pq):
            if not scan_all:
                break
            # queue drained with vertices left: the scanned/unscanned cut has
            # no crossing edges, i.e. α == 0 — a real cut of value 0.
            while next_restart < n and visited[next_restart]:
                next_restart += 1
            if next_restart == n:
                break
            if scan_order and (min_alpha is None or 0 < min_alpha):
                min_alpha = 0
                best_prefix = len(scan_order)
                if not fixed_bound:
                    lam = 0
            insert(next_restart, 0)

        x, _ = pop()
        if len(scan_order) >= n:
            # every vertex is inserted at most once, so a scan popping more
            # than n times is running on corrupt queue state — abort rather
            # than loop (and mark) forever on garbage
            from ..runtime.errors import NoProgressError

            raise NoProgressError(f"scan popped more than {n} vertices")
        rx = r[x]
        alpha += wdeg[x] - 2 * rx
        visited[x] = 1
        scan_order.append(x)
        if len(scan_order) < n and (min_alpha is None or alpha < min_alpha):
            min_alpha = alpha
            best_prefix = len(scan_order)
            if not fixed_bound and alpha < lam:
                lam = alpha

        lo, hi = xadj[x], xadj[x + 1]
        nbrs = adjncy[lo:hi].tolist()
        wgts = adjwgt[lo:hi].tolist()
        for y, w in zip(nbrs, wgts):
            if visited[y]:
                continue
            edges_scanned += 1
            ry = r[y]
            q = ry + w
            if ry < lam <= q:
                union(x, y)
                n_marked += 1
                if record_certificates:
                    certificates.append((x, y, q, lam, True))
            elif record_certificates:
                certificates.append((x, y, q, lam, False))
            r[y] = q
            insert(y, q)

    return CapforestResult(
        uf=uf,
        n_marked=n_marked,
        lambda_hat=lam,
        min_alpha=min_alpha,
        scan_order=scan_order,
        best_prefix=best_prefix,
        pq_stats=pq.stats,
        vertices_scanned=len(scan_order),
        edges_scanned=edges_scanned,
        certificates=certificates,
    )


def _capforest_vector(
    graph: Graph,
    lambda_hat: int,
    uf: UnionFind,
    pq,
    effective_kind: str,
    start: int,
    *,
    scan_all: bool,
    record_certificates: bool,
    fixed_bound: bool,
) -> CapforestResult:
    """Batch-relaxation kernel (see module docstring).

    State lives in the arrays of a :class:`ClampDrain`: ``r`` and
    ``pop_time``.  Whenever the BQueue's top bucket sits at the priority
    clamp the whole bucket is drained and scanned by
    :meth:`ClampDrain.drain`.  All other pops fall through to the scalar
    relaxation step on the same state, so every observable output matches
    the scalar kernel exactly; that step indexes memoryviews of the two
    arrays, whose items are plain ints (a numpy scalar read and compare
    costs several times more, and the per-pop step runs once per arc).
    """
    n = graph.n
    xadj = graph.xadj_list()
    adjncy = graph.adjncy
    adjwgt = graph.adjwgt
    wdeg = graph.weighted_degrees_list()

    lam = lambda_hat
    bound = lambda_hat
    alpha = 0
    min_alpha: int | None = None
    scan_order: list[int] = []
    best_prefix = 0
    n_marked = 0
    edges_scanned = 0
    certificates: list[tuple[int, int, int, int, bool]] = []
    drainer = ClampDrain(graph, pq, bound, certificates if record_certificates else None)
    r, pop_time = drainer.r, drainer.pop_time
    r_v, pop_time_v = drainer.r_v, drainer.pop_time_v  # the per-pop step's views
    can_batch = effective_kind == "bqueue"
    # single pops also relax their slice with array expressions when the PQ
    # has a batch interface (bucket kinds); certificate recording needs the
    # per-arc λ bookkeeping only the pure scalar loop keeps
    pop_vector = effective_kind in ("bqueue", "bstack") and not record_certificates
    # CAPFOREST only ever *writes* the union-find during the scan (nothing
    # queries it until the result is consumed), and the final partition is
    # the transitive closure of the marked pairs regardless of union order —
    # so marks are buffered here and merged in one union_pairs call at the
    # end, amortising the root-resolution passes over the whole scan
    mark_us: list = []
    mark_vs: list = []
    scalar_marks: list[tuple[int, int]] = []

    insert = pq.insert_or_raise
    insert(start, 0)
    next_restart = 0
    while True:
        if not len(pq):
            if not scan_all:
                break
            while next_restart < n and pop_time_v[next_restart] < n:
                next_restart += 1
            if next_restart == n:
                break
            if scan_order and (min_alpha is None or 0 < min_alpha):
                min_alpha = 0
                best_prefix = len(scan_order)
                if not fixed_bound:
                    lam = 0
            insert(next_restart, 0)

        # ---- batched path: drain the whole at-the-clamp top bucket --------
        # (top_bucket_len is an upper bound on the drain size; small top
        # buckets stay on the scalar pop path so the array bookkeeping only
        # runs when a real batch pays for it)
        if (
            can_batch
            and pq.top_may_reach(bound)
            and pq.top_key() == bound
            and pq.top_bucket_len() >= MIN_BATCH
        ):
            batch = pq.drain_top_bucket()
            sb = len(scan_order)
            if sb + len(batch) > n:
                from ..runtime.errors import NoProgressError

                raise NoProgressError(f"scan popped more than {n} vertices")
            alpha, lam, min_alpha, best_end, m_ev, us, vs = drainer.drain(
                batch, None, sb, sb, alpha, lam, min_alpha, fixed_bound
            )
            if best_end:
                best_prefix = best_end
            edges_scanned += m_ev
            if us is not None:
                mark_us.append(us)
                mark_vs.append(vs)
                n_marked += len(us)
            scan_order.extend(batch)
            continue

        # ---- scalar path: single pop (top bucket below the clamp, BStack,
        # heap, or a batch too small to pay for the array bookkeeping) ------
        x, _ = pq.pop_max()
        if len(scan_order) >= n:
            from ..runtime.errors import NoProgressError

            raise NoProgressError(f"scan popped more than {n} vertices")
        rx = r_v[x]
        alpha += wdeg[x] - 2 * rx
        pop_time_v[x] = len(scan_order)
        scan_order.append(x)
        if len(scan_order) < n and (min_alpha is None or alpha < min_alpha):
            min_alpha = alpha
            best_prefix = len(scan_order)
            if not fixed_bound and alpha < lam:
                lam = alpha

        lo, hi = xadj[x], xadj[x + 1]
        if pop_vector and hi - lo >= POP_VECTOR_MIN_DEGREE:
            # per-pop vectorized relaxation (no cross-pop batching, so the
            # pop schedule is untouched); heads within one slice are
            # distinct by the simple-graph invariant, so array order is
            # exactly the scalar arc order and insert_many's counters match
            # the per-arc insert_or_raise sequence event-for-event
            ys = adjncy[lo:hi]
            keep = np.flatnonzero(pop_time[ys] == n)
            m_ev = len(keep)
            edges_scanned += m_ev
            if m_ev:
                ys = ys[keep]
                ry = r[ys]
                q = ry + adjwgt[lo:hi][keep]
                marked = np.flatnonzero((ry < lam) & (lam <= q))
                if len(marked):
                    mark_us.append(np.full(len(marked), x, dtype=np.int64))
                    mark_vs.append(ys[marked])
                    n_marked += len(marked)
                r[ys] = q
                pq.insert_many(ys, q)
            continue
        for y, w in zip(adjncy[lo:hi].tolist(), adjwgt[lo:hi].tolist()):
            if pop_time_v[y] < n:
                continue
            edges_scanned += 1
            ry = r_v[y]
            q = ry + w
            if ry < lam <= q:
                scalar_marks.append((x, y))
                n_marked += 1
                if record_certificates:
                    certificates.append((x, y, q, lam, True))
            elif record_certificates:
                certificates.append((x, y, q, lam, False))
            r_v[y] = q
            insert(y, q)

    if scalar_marks:
        pairs = np.asarray(scalar_marks, dtype=np.int64)
        mark_us.append(pairs[:, 0])
        mark_vs.append(pairs[:, 1])
    if mark_us:
        uf.union_pairs(np.concatenate(mark_us), np.concatenate(mark_vs))

    return CapforestResult(
        uf=uf,
        n_marked=n_marked,
        lambda_hat=lam,
        min_alpha=min_alpha,
        scan_order=scan_order,
        best_prefix=best_prefix,
        pq_stats=pq.stats,
        vertices_scanned=len(scan_order),
        edges_scanned=edges_scanned,
        certificates=certificates,
    )


class ClampDrain:
    """The at-the-clamp drain step of a BQueue scan, with the array state
    it shares with the scan's one-pop steps.

    ``r`` holds each vertex's priority and ``pop_time`` each vertex's
    position in the scan's pop order (``n`` while unpopped).  ``pop_time``
    doubles as the visited flag *and* the intra-drain schedule: an arc is
    live exactly when its head pops later than its tail.  ``r_v`` and
    ``pop_time_v`` are memoryviews of the two arrays for the one-pop steps,
    whose items are plain ints.  Both the sequential vector kernel and a
    ``processes`` region worker (:mod:`repro.core.parallel_capforest`)
    drain through :meth:`drain`; the first scans every drained member, the
    second only the members it claimed in the shared visited table.
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
