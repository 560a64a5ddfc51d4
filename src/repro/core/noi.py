"""Exact minimum cut via repeated CAPFOREST contraction (NOI, §2.3/§3.1).

The driver loop of Nagamochi, Ono and Ibaraki: run CAPFOREST to certify
contractible edges, contract them, tighten ``λ̂`` with every cut the scan
exposed plus the trivial (minimum-weighted-degree) cut of the contracted
graph, and repeat until at most two supervertices remain.  Every λ̂
improvement remembers a concrete cut side in *original* vertex ids, so the
result is a certified bipartition, not just a number.

:func:`contraction_rounds` is that loop, written once.  :func:`noi_mincut`,
ParCut (:func:`repro.core.mincut.parallel_mincut`) and Matula's
approximation (:func:`repro.baselines.matula.matula_approx`) all run it; a
driver supplies only how a round certifies its edges and how it contracts
them.  :class:`Incumbent` holds λ̂, its side, and the map from input
vertices to the current graph's.  :func:`viecut_seed` is the one VieCut
seed, which the default solve and ParCut run after the first round.

Variants (the paper's experimental section):

* ``bounded=False, pq_kind="heap"``  →  **NOI-HNSS** (unbounded priorities)
* ``bounded=True``, ``pq_kind ∈ {"bstack", "bqueue", "heap"}``  →
  **NOIλ̂-BStack / NOIλ̂-BQueue / NOIλ̂-Heap** (§3.1.2–3.1.3)
* pass ``initial_bound``/``initial_side`` from VieCut  →  **NOI-…-VieCut**
  (the paper's order; the ``noi-viecut`` registry entry instead seeds the
  graph that the first pass left, by :func:`viecut_seed`'s rule)

Without a named queue or kernel a bounded solve runs NOIλ̂-BQueue on the
``vector`` kernel (:data:`~repro.core.capforest.DEFAULT_PQ_KIND`,
:data:`~repro.core.capforest.DEFAULT_KERNEL`) and an unbounded one runs on
the heap (:func:`~repro.core.capforest.check_queue`).

Progress guarantee: a complete CAPFOREST pass of a connected graph at
``0 < λ̂ ≤ δ`` marks an edge (IMPLEMENTATION_NOTES §3), and every driver
scans at such a threshold: λ̂ starts at the minimum degree, a seed only
lowers it, and each round takes the contracted graph's δ.  A round that
leaves the graph as large as it was therefore means corrupt state, and
raises :class:`~repro.runtime.NoProgressError` instead of looping.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from ..graph.components import connected_components
from ..graph.contract import compose_labels, contract_by_union_find
from ..graph.csr import Graph
from ..runtime.errors import NoProgressError
from ..utils.timers import Timer
from .capforest import DEFAULT_KERNEL, capforest, check_kernel, check_queue
from .result import MinCutResult

#: phases timed in ``stats["phase_seconds"]`` (ParCut's names for the same work)
NOI_PHASES = ("capforest", "contract")


class Incumbent:
    """The best cut so far: λ̂ (``value``), a side realising it in input
    vertex ids (``side``), and ``labels``, the map from input vertices to
    the current graph's vertices."""

    __slots__ = ("value", "side", "labels", "tracer", "sides")

    def __init__(self, n: int, tracer=None, sides: bool = True) -> None:
        self.value = float("inf")  # the first offer, a real cut, replaces it
        self.side: np.ndarray | None = None
        self.labels = np.arange(n, dtype=np.int64)
        self.tracer = tracer
        self.sides = sides

    def offer(self, value, provenance: str, cut: Callable | None = None, **fields) -> None:
        """Keep a real cut of ``value`` if it is below λ̂, and emit its
        ``lambda_update``.  ``cut()`` returns the cut's side as a mask over
        the current graph, or ``None`` when it has none; it runs only on an
        improvement, since building a side costs O(side)."""
        if value >= self.value:
            return
        self.value = value
        if self.sides:
            mask = None if cut is None else cut()
            self.side = None if mask is None else mask[self.labels]
        if self.tracer is not None:
            self.tracer.lambda_update(value, provenance, **fields)


def contraction_rounds(
    graph: Graph,
    certify: Callable,
    contract: Callable,
    stats: dict,
    timer: Timer,
    *,
    tracer=None,
    compute_side: bool = True,
    prepare: Callable[[Graph, Incumbent], None] | None = None,
    after_first_round: Callable[[Graph, Incumbent], None] | None = None,
) -> Incumbent:
    """Contract ``graph`` round by round down to two vertices; return the
    :class:`Incumbent` that ends it.

    A disconnected input has minimum cut 0, one component against the rest.
    Otherwise λ̂ starts at the minimum weighted degree, and
    ``prepare(graph, inc)`` may lower it before round 1.  Each round,
    counted from 1 in ``stats["rounds"]``:

    * ``certify(g, inc, round)`` offers ``inc`` its scan cuts and returns
      its pass: ``.uf`` holds the marked edges, ``.n_marked`` their count;
    * ``contract(g, uf)`` returns the contracted graph and the contraction
      labels, timed as the ``contract`` phase;
    * a round that leaves the graph as large as it was raises
      :class:`~repro.runtime.NoProgressError` (see the module docstring);
    * the contracted graph's minimum degree is offered as a cut, and after
      round 1 ``after_first_round(g, inc)`` runs.

    ``stats`` must hold ``rounds``, ``contraction_ratios`` and the ``pq_*``
    counters, which ``certify`` keeps.  ``tracer`` receives
    ``round_start`` and ``round_end``.
    """
    n = graph.n
    inc = Incumbent(n, tracer, compute_side)
    ncomp, comp_labels = connected_components(graph)
    if ncomp > 1:
        inc.offer(0, "disconnected", lambda: comp_labels == 0, components=ncomp)
        return inc
    v, d = graph.min_weighted_degree()
    inc.offer(d, "min-degree", lambda: _vertex_mask(n, v), vertex=v)
    if prepare is not None:
        prepare(graph, inc)
    g = graph
    while g.n > 2 and inc.value > 0:
        stats["rounds"] += 1
        r = stats["rounds"]
        n_before = g.n
        if tracer is not None:
            pq_before = [stats[key] for key in _PQ_KEYS]
            tracer.emit("round_start", round=r, n=n_before, m=g.m, lambda_hat=int(inc.value))
        res = certify(g, inc, r)
        with timer.phase("contract"):
            g, contraction = contract(g, res.uf)
        n_after = g.n
        inc.labels = compose_labels(inc.labels, contraction)
        ratio = round(n_after / n_before, 6)
        stats["contraction_ratios"].append(ratio)
        if tracer is not None:
            tracer.emit(
                "round_end", round=r, n_before=n_before, n_after=n_after,
                contraction_ratio=ratio, lambda_hat=int(inc.value), marked=res.n_marked,
                pq_delta={key[3:]: stats[key] - old for key, old in zip(_PQ_KEYS, pq_before)},
            )
        if n_after >= n_before:
            raise NoProgressError(f"contraction round {r} left the graph at {n_after} vertices")
        if n_after < 2:
            # every vertex collapsed into one block: all remaining candidate
            # cuts were already recorded before the contraction
            break
        # collapsed vertices can expose trivial cuts below λ̂ (Algorithm 2,
        # "parallel graph contraction")
        v, d = g.min_weighted_degree()
        inc.offer(d, "min-degree", lambda: _vertex_mask(n_after, v), vertex=v, round=r)
        if r == 1 and after_first_round is not None:
            after_first_round(g, inc)
    return inc


_PQ_KEYS = ("pq_pushes", "pq_updates", "pq_skipped_updates", "pq_pops")


def viecut_seed(g: Graph, inc: Incumbent, *, stats: dict, timer: Timer, rng,
                tracer=None) -> None:
    """Offer VieCut's cut of ``g`` as λ̂ if ``g`` has more than
    ``viecut.SMALL_THRESHOLD`` vertices, timed as the ``viecut`` phase.

    The default solve and ParCut run it after round 1: a cut of the
    contracted graph is a cut of the input (Lemma 3.1).  Figure 5's ParCut
    runs it before round 1.  On a smaller graph VieCut would be an exact NOI
    solve, so it is skipped and ``stats["viecut_value"]`` stays ``None``.
    """
    from ..viecut.viecut import SMALL_THRESHOLD, viecut  # looked up per call

    if g.n <= SMALL_THRESHOLD:
        return
    with timer.phase("viecut"):
        cut = viecut(g, rng=rng, tracer=tracer)
    stats["viecut_value"] = cut.value
    inc.offer(cut.value, "viecut", lambda: cut.side)


def _vertex_mask(n: int, v: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[v] = True
    return mask


def noi_mincut(
    graph: Graph,
    *,
    pq_kind: str | None = None,
    bounded: bool = True,
    kernel: str = DEFAULT_KERNEL,
    initial_bound: int | None = None,
    initial_side: np.ndarray | None = None,
    rng: np.random.Generator | int | None = None,
    compute_side: bool = True,
    tracer=None,
    _viecut_seed: bool = False,
) -> MinCutResult:
    """Exact minimum cut of ``graph``.

    Parameters
    ----------
    graph:
        Weighted undirected graph with ``n >= 2``.
    pq_kind, bounded:
        CAPFOREST configuration (see module docstring for the paper's
        variant names).  ``pq_kind=None`` runs the BQueue when bounded
        and the heap when not.
    kernel:
        CAPFOREST relaxation kernel, ``"scalar"`` or ``"vector"`` (the
        default; :data:`~repro.core.capforest.KERNELS`).  Results are
        identical; only the speed differs.
    initial_bound, initial_side:
        An externally known cut (value and optional side mask), e.g. from
        VieCut.  Must be the capacity of a real cut (any valid upper bound
        keeps the algorithm exact — Lemma 3.1).
    rng:
        Seed or generator for CAPFOREST start vertices.
    compute_side:
        Track the cut side (small overhead; disable for pure timing runs).
    tracer:
        Optional :class:`repro.observability.Tracer` receiving structured
        round / λ̂-provenance events (round granularity; ``None`` adds no
        per-edge work).
    _viecut_seed:
        Private to the ``noi-viecut`` entry: run :func:`viecut_seed` after
        the first round, and report ``stats["viecut_value"]`` and the
        ``viecut`` phase.

    Returns
    -------
    MinCutResult
        Exact minimum cut value, with a certified side when requested and
        available.  ``stats["phase_seconds"]`` holds the wall seconds spent
        in every phase of :data:`NOI_PHASES` (0.0 for a phase that never
        ran): the CAPFOREST scans and the contractions.
    """
    pq_kind = check_queue(pq_kind, bounded)
    check_kernel(kernel)
    n = graph.n
    if n < 2:
        raise ValueError(f"minimum cut requires at least 2 vertices, got {n}")
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)

    stats: dict = {
        "rounds": 0,
        "pq_pushes": 0,
        "pq_updates": 0,
        "pq_skipped_updates": 0,
        "pq_pops": 0,
        "edges_scanned": 0,
        "vertices_scanned": 0,
        "contraction_ratios": [],
        "pq_kind": pq_kind,
        "bounded": bounded,
        "kernel": kernel,
        "kernel_resolved": kernel,  # = kernel; perfbench's host facts read it
        "phase_seconds": {},
    }
    if _viecut_seed:
        stats["viecut_value"] = None
    timer = Timer()
    seeded = initial_bound is not None or _viecut_seed
    algo = _variant_name(pq_kind, bounded, seeded)
    if tracer is not None:
        tracer.emit(
            "solve_start", algorithm=algo, n=n, m=graph.m,
            pq_kind=pq_kind, bounded=bounded, kernel=kernel,
        )

    def prepare(g: Graph, inc: Incumbent) -> None:
        if initial_bound is not None:
            if initial_bound < 0:
                raise ValueError("initial_bound must be non-negative")
            inc.offer(initial_bound, "viecut", lambda: initial_side)

    def certify(g: Graph, inc: Incumbent, r: int):
        with timer.phase("capforest"):
            res = capforest(
                g, inc.value, pq_kind=pq_kind, bounded=bounded, rng=rng, kernel=kernel,
                tracer=tracer,
            )
        _absorb(stats, res)
        inc.offer(res.lambda_hat, "scan-cut", lambda: res.best_cut_mask(g.n), round=r)
        return res

    seed = partial(viecut_seed, stats=stats, timer=timer, rng=rng, tracer=tracer)
    inc = contraction_rounds(
        graph, certify, contract_by_union_find, stats, timer, tracer=tracer,
        compute_side=compute_side, prepare=prepare,
        after_first_round=seed if _viecut_seed else None,
    )
    phases = ("viecut", *NOI_PHASES) if _viecut_seed else NOI_PHASES
    stats["phase_seconds"] = {ph: round(timer.total(ph), 6) for ph in phases}
    if tracer is not None:
        tracer.emit("solve_end", value=inc.value, rounds=stats["rounds"])
    return MinCutResult(inc.value, inc.side, n, algo, stats)


def _absorb(stats: dict, scan) -> None:
    """Add one scan's counters to ``stats``: a sequential pass's
    :class:`~repro.core.capforest.CapforestResult` or a parallel worker's
    :class:`~repro.core.parallel_capforest.WorkerReport`."""
    pq = scan.pq_stats
    stats["pq_pushes"] += pq.pushes
    stats["pq_updates"] += pq.updates
    stats["pq_skipped_updates"] += pq.skipped_updates
    stats["pq_pops"] += pq.pops
    stats["edges_scanned"] += scan.edges_scanned
    stats["vertices_scanned"] += scan.vertices_scanned


def _variant_name(pq_kind: str, bounded: bool, seeded: bool) -> str:
    if not bounded:
        base = "noi-hnss"
    else:
        base = f"noi-lambda-{pq_kind}"
    return base + ("-viecut" if seeded else "")
