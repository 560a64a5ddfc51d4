"""VieCut: the inexact multilevel minimum-cut algorithm (paper §2.4).

Repeatedly: cluster with label propagation, contract the clusters, run the
Padberg–Rinaldi local tests, contract again — until the graph is small —
then solve the remnant exactly with NOI.  Every intermediate contracted
graph exposes trivial cuts (minimum weighted degree) that tighten the
bound, and the final exact solve contributes its cut mapped back through
all contractions.

VieCut gives **no approximation guarantee** — a cluster may straddle the
minimum cut — but the returned value is always the capacity of a real cut
of the input graph (so ``λ ≤ result``), and in practice it is usually λ
itself.  The paper uses it exactly this way: as the seed bound ``λ̂`` that
lets NOI/ParCut contract aggressively (§3.1.1).
"""

from __future__ import annotations

import numpy as np

from ..graph.components import connected_components
from ..graph.contract import compose_labels, contract_by_labels, contract_by_union_find
from ..graph.csr import Graph
from ..core.result import MinCutResult
from .label_propagation import LP_METHODS, cluster_labels
from .padberg_rinaldi import padberg_rinaldi_marks

#: default ``small_threshold``: graphs of at most this many vertices are
#: not clustered, VieCut solves them exactly with NOI straight away
SMALL_THRESHOLD = 64


def viecut(
    graph: Graph,
    *,
    lp_iterations: int = 2,
    small_threshold: int = SMALL_THRESHOLD,
    max_rounds: int = 32,
    rng: np.random.Generator | int | None = None,
    lp_method: str = "sync",
    kernel: str = "scalar",
    pr34_max_arcs: int = 1 << 16,
    tracer=None,
) -> MinCutResult:
    """Fast inexact minimum cut (upper bound with a certified side).

    Parameters
    ----------
    graph:
        Weighted undirected graph with ``n >= 2``.
    lp_iterations:
        Label-propagation rounds per level (the paper uses a small constant).
    small_threshold:
        Once at most this many supervertices remain, finish exactly with NOI.
    max_rounds:
        Safety valve on multilevel rounds (label propagation is randomized
        and may stall; a stalled round falls through to the exact solve).
    rng:
        Seed or generator.
    lp_method:
        Label-propagation engine
        (:data:`~repro.viecut.label_propagation.LP_METHODS`): ``"sync"``
        (synchronous half-rounds as array passes, the default) or
        ``"async"`` (the reference sequential scan).  Checked on entry,
        even when the graph is too small to cluster.  The default stays
        ``"sync"`` regardless of ``kernel`` so a solver's clustering is
        identical across kernels.
    kernel:
        Relaxation kernel for the final exact NOI solve on the remnant
        graph (:data:`repro.kernels.KERNELS`; resolved through
        :func:`repro.kernels.resolve_kernel`).  Does not change the
        clustering, so the returned cut is kernel-independent.
    pr34_max_arcs:
        The triangle/star PR tests (budgeted common-neighbour
        intersections, whose index arrays grow with the budget) run only
        once the contracted graph has at most this many arcs; PR1/PR2
        always run.  Keeps the VieCut constant linear-ish on large inputs,
        as the paper's linear-work PR pass does.
    tracer:
        Optional :class:`repro.observability.Tracer` receiving
        ``viecut_start`` / ``viecut_level`` / ``viecut_end`` events (one
        per multilevel round; ``None`` adds no work).

    Returns
    -------
    MinCutResult
        ``result.value`` is the capacity of the cut ``result.side`` — an
        upper bound on λ(G), usually equal to it.
    """
    if lp_method not in LP_METHODS:
        raise ValueError(f"unknown method {lp_method!r}; expected one of {LP_METHODS}")
    n = graph.n
    if n < 2:
        raise ValueError(f"minimum cut requires at least 2 vertices, got {n}")
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)

    from ..kernels import resolve_kernel

    requested_kernel = kernel
    kernel, kernel_fb = resolve_kernel(kernel, tracer=tracer)
    stats: dict = {
        "levels": 0,
        "final_exact_n": 0,
        "kernel": requested_kernel,
        "kernel_resolved": kernel,
        "kernel_fallback": kernel_fb,
    }
    if tracer is not None:
        tracer.emit("viecut_start", n=n, m=graph.m, lp_method=lp_method)

    ncomp, comp_labels = connected_components(graph)
    if ncomp > 1:
        if tracer is not None:
            tracer.emit("viecut_end", value=0, levels=0, final_exact_n=0)
        return MinCutResult(0, comp_labels == 0, n, "viecut", stats)

    v0, deg0 = graph.min_weighted_degree()
    best_value = deg0
    best_side = np.zeros(n, dtype=bool)
    best_side[v0] = True

    labels = np.arange(n, dtype=np.int64)
    g = graph
    for _ in range(max_rounds):
        if g.n <= small_threshold:
            break
        # level: label propagation clustering + contraction
        clusters = cluster_labels(g, iterations=lp_iterations, rng=rng, method=lp_method)
        if int(clusters.max()) + 1 == g.n:
            break  # no cluster merged anything; LP has stalled
        level_n = g.n
        g, lbl = contract_by_labels(g, clusters)
        labels = compose_labels(labels, lbl)
        stats["levels"] += 1
        if tracer is not None:
            tracer.emit(
                "viecut_level", level=stats["levels"], n_before=level_n,
                n_after=g.n, best_value=best_value,
            )
        if g.n < 2:
            break
        v, d = g.min_weighted_degree()
        if d < best_value:
            best_value = d
            best_side = labels == v
        # Padberg–Rinaldi pass on the contracted graph (PR3/4 only when the
        # graph is small enough for their intersection arrays, see docstring)
        if g.num_arcs <= pr34_max_arcs:
            uf = padberg_rinaldi_marks(g, best_value)
        else:
            from .padberg_rinaldi import pr12_marks

            uf = pr12_marks(g, best_value)
        if uf.count < g.n:
            g, lbl = contract_by_union_find(g, uf)
            labels = compose_labels(labels, lbl)
            if g.n < 2:
                break
            v, d = g.min_weighted_degree()
            if d < best_value:
                best_value = d
                best_side = labels == v

    stats["final_exact_n"] = g.n
    if g.n >= 2:
        from ..core.noi import noi_mincut  # local import: noi ⇄ viecut seeding

        exact = noi_mincut(g, pq_kind="heap", bounded=True, rng=rng, kernel=kernel)
        if exact.value < best_value:
            best_value = exact.value
            best_side = exact.side[labels]

    if tracer is not None:
        tracer.emit(
            "viecut_end", value=best_value, levels=stats["levels"],
            final_exact_n=stats["final_exact_n"],
        )
    return MinCutResult(best_value, best_side, n, "viecut", stats)
