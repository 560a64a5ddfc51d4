"""Exact minimum cut via repeated CAPFOREST contraction (NOI, §2.3/§3.1).

The driver loop of Nagamochi, Ono and Ibaraki: run CAPFOREST to certify
contractible edges, contract them, tighten ``λ̂`` with every cut the scan
exposed plus the trivial (minimum-weighted-degree) cut of the contracted
graph, and repeat until at most two supervertices remain.  Every λ̂
improvement remembers a concrete cut side in *original* vertex ids, so the
result is a certified bipartition, not just a number.

Variants (the paper's experimental section):

* ``bounded=False, pq_kind="heap"``  →  **NOI-HNSS** (unbounded priorities)
* ``bounded=True``, ``pq_kind ∈ {"bstack", "bqueue", "heap"}``  →
  **NOIλ̂-BStack / NOIλ̂-BQueue / NOIλ̂-Heap** (§3.1.2–3.1.3)
* pass ``initial_bound``/``initial_side`` from VieCut  →  **NOI-…-VieCut**

Without a named queue or kernel a bounded solve runs NOIλ̂-BQueue on the
``vector`` kernel (:data:`~repro.core.capforest.DEFAULT_PQ_KIND`,
:data:`~repro.core.capforest.DEFAULT_KERNEL`) and an unbounded one runs on
the heap (:func:`~repro.core.capforest.check_queue`).

Progress guarantee: a *complete* CAPFOREST pass usually marks at least one
edge, but with an externally supplied λ̂ this can fail; the driver then
falls back to one maximum-adjacency phase and contracts the last two
scanned vertices, which is safe by the Stoer–Wagner phase property (the
trivial cut of the last vertex — already captured by the α tracking — is a
minimum cut separating the last two vertices, so after λ̂ absorbs it the
pair's connectivity is ≥ λ̂).
"""

from __future__ import annotations

import numpy as np

from ..graph.components import connected_components
from ..graph.contract import compose_labels, contract_by_union_find
from ..graph.csr import Graph
from ..kernels import resolve_kernel
from ..utils.timers import Timer
from .capforest import DEFAULT_KERNEL, capforest, check_queue
from .result import MinCutResult

#: phases timed in ``stats["phase_seconds"]`` (ParCut's names for the same work)
NOI_PHASES = ("capforest", "contract")


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
    sparsify: bool = False,
    trace: bool = False,
    tracer=None,
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
        CAPFOREST relaxation kernel, ``"scalar"``, ``"vector"`` (the
        default) or ``"compiled"`` (:data:`repro.kernels.KERNELS`).
        Results are identical; only the speed differs.  A ``"compiled"``
        request runs as ``"vector"`` — the stats record the requested name
        under ``"kernel"``, the one that ran under ``"kernel_resolved"``,
        and the reason (or ``None``) under ``"kernel_fallback"``.
    initial_bound, initial_side:
        An externally known cut (value and optional side mask), e.g. from
        VieCut.  Must be the capacity of a real cut (any valid upper bound
        keeps the algorithm exact — Lemma 3.1).
    rng:
        Seed or generator for CAPFOREST start vertices.
    compute_side:
        Track the cut side (small overhead; disable for pure timing runs).
    sparsify:
        Replace the input by its Nagamochi–Ibaraki sparse certificate with
        ``k = λ̂ + 1`` before contracting (§2.3;
        :mod:`repro.core.certificates`).  Preserves every cut of capacity
        ≤ λ̂ — in particular the minimum cut and its sides — so the result
        stays exact; pays off on graphs much denser than their cut bound.
    trace:
        Record a per-round log in ``result.stats["trace"]``: graph size,
        current λ̂, marks, and fallback usage per contraction round — the
        solver's execution narrative, for debugging and teaching.
    tracer:
        Optional :class:`repro.observability.Tracer` receiving structured
        round / λ̂-provenance events (round granularity; ``None`` adds no
        per-edge work).  Orthogonal to ``trace``, which keeps its
        in-stats round log for backwards compatibility.

    Returns
    -------
    MinCutResult
        Exact minimum cut value, with a certified side when requested and
        available.  ``stats["phase_seconds"]`` holds the wall seconds spent
        in every phase of :data:`NOI_PHASES` (0.0 for a phase that never
        ran): the CAPFOREST scans, Stoer–Wagner fallback scans included,
        and the contractions.
    """
    pq_kind = check_queue(pq_kind, bounded)
    n = graph.n
    if n < 2:
        raise ValueError(f"minimum cut requires at least 2 vertices, got {n}")
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)

    requested_kernel = kernel
    kernel, kernel_fb = resolve_kernel(kernel, tracer=tracer)
    stats: dict = {
        "rounds": 0,
        "fallback_rounds": 0,
        "pq_pushes": 0,
        "pq_updates": 0,
        "pq_skipped_updates": 0,
        "pq_pops": 0,
        "edges_scanned": 0,
        "vertices_scanned": 0,
        "pq_kind": pq_kind,
        "bounded": bounded,
        "kernel": requested_kernel,
        "kernel_resolved": kernel,
        "kernel_fallback": kernel_fb,
        "phase_seconds": {},
    }
    timer = Timer()
    algo = _variant_name(pq_kind, bounded, initial_bound is not None)
    if tracer is not None:
        tracer.emit(
            "solve_start", algorithm=algo, n=n, m=graph.m,
            pq_kind=pq_kind, bounded=bounded, kernel=kernel,
        )

    # Disconnected graphs have minimum cut 0: one component versus the rest.
    ncomp, comp_labels = connected_components(graph)
    if ncomp > 1:
        side = comp_labels == 0 if compute_side else None
        if tracer is not None:
            tracer.lambda_update(0, "disconnected", components=ncomp)
            tracer.emit("solve_end", value=0, rounds=0)
        return MinCutResult(0, side, n, algo, _seal_phases(stats, timer))

    # Initial bound: trivial cut of the minimum-weighted-degree vertex,
    # optionally improved by the caller-supplied (e.g. VieCut) cut.
    v0, deg0 = graph.min_weighted_degree()
    best_value = deg0
    best_side: np.ndarray | None = None
    if compute_side:
        best_side = np.zeros(n, dtype=bool)
        best_side[v0] = True
    if tracer is not None:
        tracer.lambda_update(best_value, "min-degree", vertex=int(v0))
    if initial_bound is not None:
        if initial_bound < 0:
            raise ValueError("initial_bound must be non-negative")
        if initial_bound < best_value:
            best_value = initial_bound
            best_side = initial_side.copy() if (compute_side and initial_side is not None) else None
            if tracer is not None:
                tracer.lambda_update(best_value, "viecut")

    lam = best_value
    labels = np.arange(n, dtype=np.int64)  # original vertex -> current supervertex
    g = graph

    if sparsify and g.m > 0:
        from .certificates import sparse_certificate

        # k = λ̂+1 keeps every cut of capacity <= λ̂ at its exact value —
        # the minimum cut (<= λ̂ by definition of the bound) survives intact
        g = sparse_certificate(g, lam + 1, start=int(rng.integers(n)))
        stats["sparsified_m"] = g.m

    if trace:
        stats["trace"] = []

    while g.n > 2 and lam > 0:
        round_n, round_m, lam_in = g.n, g.m, lam
        if tracer is not None:
            tracer.emit(
                "round_start", round=stats["rounds"] + 1, n=round_n, m=round_m,
                lambda_hat=lam_in,
            )
        with timer.phase("capforest"):
            res = capforest(
                g, lam, pq_kind=pq_kind, bounded=bounded, rng=rng, kernel=kernel,
                tracer=tracer,
            )
        stats["rounds"] += 1
        _absorb(stats, res)
        uf = res.uf
        if res.lambda_hat < best_value:
            best_value = res.lambda_hat
            lam = res.lambda_hat
            if compute_side:
                mask = res.best_cut_mask(g.n)
                best_side = mask[labels] if mask is not None else best_side
            if tracer is not None:
                tracer.lambda_update(best_value, "scan-cut", round=stats["rounds"])
        if res.n_marked == 0:
            # Stoer–Wagner phase fallback: one unbounded maximum-adjacency
            # scan; contract its last two vertices (safe, see module doc).
            stats["fallback_rounds"] += 1
            with timer.phase("capforest"):
                sw = capforest(
                    g, lam, pq_kind="heap", bounded=False, rng=rng, kernel=kernel,
                    tracer=tracer,
                )
            _absorb(stats, sw)
            if sw.lambda_hat < best_value:
                best_value = sw.lambda_hat
                lam = sw.lambda_hat
                if compute_side:
                    mask = sw.best_cut_mask(g.n)
                    best_side = mask[labels] if mask is not None else best_side
                if tracer is not None:
                    tracer.lambda_update(best_value, "sw-fallback", round=stats["rounds"])
            uf = sw.uf
            order = sw.scan_order
            uf.union(order[-2], order[-1])
        with timer.phase("contract"):
            g, contraction = contract_by_union_find(g, uf)
        labels = compose_labels(labels, contraction)
        if trace:
            stats["trace"].append(
                {
                    "round": stats["rounds"],
                    "n": round_n,
                    "m": round_m,
                    "lambda_in": lam_in,
                    "lambda_out": lam,
                    "marks": round_n - g.n,
                    "fallback": uf is not res.uf,
                }
            )
        if tracer is not None:
            tracer.emit(
                "round_end", round=stats["rounds"], n_before=round_n,
                n_after=g.n, lambda_hat=lam,
                contraction_ratio=round(round_n / g.n, 6) if g.n else float(round_n),
            )
        if g.n < 2:
            # every vertex collapsed into one block: all remaining candidate
            # cuts were already recorded before the contraction
            break
        # trivial-cut update on the contracted graph (collapsed vertices can
        # expose cuts below λ̂ — Algorithm 2, "parallel graph contraction")
        v, d = g.min_weighted_degree()
        if d < best_value:
            best_value = d
            if compute_side:
                best_side = labels == v
            if tracer is not None:
                tracer.lambda_update(best_value, "min-degree", vertex=int(v))
        lam = min(lam, d)

    if tracer is not None:
        tracer.emit("solve_end", value=best_value, rounds=stats["rounds"])
    return MinCutResult(
        best_value, best_side if compute_side else None, n, algo, _seal_phases(stats, timer)
    )


def _seal_phases(stats: dict, timer: Timer) -> dict:
    stats["phase_seconds"] = {ph: round(timer.total(ph), 6) for ph in NOI_PHASES}
    return stats


def _absorb(stats: dict, res) -> None:
    pq = res.pq_stats
    stats["pq_pushes"] += pq.pushes
    stats["pq_updates"] += pq.updates
    stats["pq_skipped_updates"] += pq.skipped_updates
    stats["pq_pops"] += pq.pops
    stats["edges_scanned"] += res.edges_scanned
    stats["vertices_scanned"] += res.vertices_scanned


def _variant_name(pq_kind: str, bounded: bool, seeded: bool) -> str:
    if not bounded:
        base = "noi-hnss"
    else:
        base = f"noi-lambda-{pq_kind}"
    return base + ("-viecut" if seeded else "")
