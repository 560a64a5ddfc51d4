"""Matula's (2+ε)-approximation of the minimum cut (paper §2.2, §5).

Matula [23] observed that running the NOI contraction with the
*deliberately invalid* bound ``λ̂ = δ/(2+ε)`` (δ = current minimum weighted
degree) contracts a constant fraction of the edges per round — giving
linear total time — while the best trivial cut seen along the way is at
most ``(2+ε)·λ``:

* if some round has ``δ ≤ (2+ε)·λ``, the answer is already within factor
  ``2+ε``;
* otherwise every round's threshold ``⌈δ/(2+ε)⌉ > λ`` strictly exceeds the
  minimum cut, so no contraction ever crosses a minimum cut and the graph
  shrinks to two supervertices whose trivial cut *is* λ — contradiction
  with ``δ > (2+ε)λ``, so the first case must occur.

The paper names this algorithm as future work for its optimizations (§5);
here it is built directly on the optimized CAPFOREST with ``fixed_bound``
(the usual α-tightening must be disabled because the threshold is not a
valid cut bound — α cuts are still *recorded*, they are real cuts and only
improve the answer).
"""

from __future__ import annotations

import numpy as np

from ..core.capforest import capforest
from ..core.parallel_capforest import check_executor, parallel_capforest
from ..core.result import MinCutResult
from ..graph.components import connected_components
from ..graph.contract import compose_labels, contract_by_union_find
from ..graph.csr import Graph
from ..runtime.faults import FaultPlan
from ..runtime.supervisor import call_with_degradation, raise_for_events


def matula_approx(
    graph: Graph,
    *,
    eps: float = 0.5,
    pq_kind: str = "heap",
    rng: np.random.Generator | int | None = None,
    compute_side: bool = True,
    workers: int = 1,
    executor: str = "serial",
    timeout: float | None = None,
    on_worker_failure: str = "degrade",
    fault_plan: FaultPlan | None = None,
) -> MinCutResult:
    """A cut of capacity at most ``(2+eps) * λ(G)`` in near-linear time.

    Parameters
    ----------
    eps:
        Approximation slack, ``> 0``.  Smaller ε contracts less per round
        (more rounds, better bound).
    workers, executor:
        ``workers > 1`` runs each certificate pass with *parallel*
        CAPFOREST (frozen threshold) — the paper's §5 future-work question
        ("whether our sequential optimizations and parallel implementation
        can be applied to the (2+ε)-approximation algorithm of Matula"),
        answered affirmatively here: the frozen-bound region-growing scan
        preserves the contraction certificates, so the approximation
        guarantee carries over; only the marked-edge *set* differs.
    timeout, on_worker_failure, fault_plan:
        Supervised-runtime controls for the parallel path, identical in
        meaning to :func:`~repro.core.mincut.parallel_mincut`'s: lost
        workers are tolerated (their marks drop, the certificates of the
        survivors still hold), a fully failed executor degrades
        ``processes → serial``, and every event lands in
        ``stats["worker_events"]`` / ``stats["degradations"]``.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    check_executor(executor, workers)
    if on_worker_failure not in ("degrade", "fail"):
        raise ValueError(
            f"on_worker_failure must be 'degrade' or 'fail', got {on_worker_failure!r}"
        )
    n = graph.n
    if n < 2:
        raise ValueError(f"minimum cut requires at least 2 vertices, got {n}")
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)

    stats: dict = {"rounds": 0, "edges_scanned": 0, "worker_events": [], "degradations": []}
    algo = "matula"
    ncomp, comp_labels = connected_components(graph)
    if ncomp > 1:
        side = comp_labels == 0 if compute_side else None
        return MinCutResult(0, side, n, algo, stats)

    labels = np.arange(n, dtype=np.int64)
    g = graph
    best_value: int | None = None
    best_side: np.ndarray | None = None

    while g.n >= 2:
        v, delta = g.min_weighted_degree()
        if best_value is None or delta < best_value:
            best_value = delta
            if compute_side:
                best_side = labels == v
        if g.n == 2:
            break
        threshold = max(1, int(np.ceil(delta / (2 + eps))))
        if workers > 1:
            def run_pass(exe, _g=g, _threshold=threshold):
                return parallel_capforest(
                    _g,
                    _threshold,
                    workers=workers,
                    pq_kind=pq_kind if _threshold > 0 else "heap",
                    executor=exe,
                    rng=rng,
                    fixed_bound=True,
                    timeout=timeout,
                    fault_plan=fault_plan,
                )

            def record_degradation(src, dst, exc):
                stats["degradations"].append(
                    {"stage": "matula", "round": stats["rounds"], "from": src, "to": dst,
                     "reason": str(exc)}
                )

            pres, executor = call_with_degradation(
                run_pass, executor, policy=on_worker_failure, on_degrade=record_degradation
            )
            if pres.events:
                stats["worker_events"].extend(
                    dict(ev, round=stats["rounds"]) for ev in pres.events
                )
                if on_worker_failure == "fail":
                    raise_for_events(executor, pres.events)
            stats["rounds"] += 1
            stats["edges_scanned"] += sum(w.edges_scanned for w in pres.workers)
            # workers' scan cuts are real cuts — harvest the best one
            winner = min(
                (w for w in pres.workers if w.best_alpha is not None),
                key=lambda w: w.best_alpha,
                default=None,
            )
            if winner is not None and winner.best_alpha < best_value:
                best_value = winner.best_alpha
                if compute_side and winner.best_prefix:
                    mask = np.zeros(g.n, dtype=bool)
                    mask[winner.best_prefix] = True
                    best_side = mask[labels]
            res = None
            n_marked, uf = pres.n_marked, pres.uf
            if n_marked == 0:
                # early-termination gap: one sequential frozen-bound pass
                res = capforest(
                    g, threshold, pq_kind="heap", bounded=True, fixed_bound=True, rng=rng
                )
        else:
            res = capforest(
                g, threshold, pq_kind=pq_kind, bounded=True, fixed_bound=True, rng=rng
            )
            stats["rounds"] += 1
            stats["edges_scanned"] += res.edges_scanned
        if res is not None:
            if res.min_alpha is not None and res.min_alpha < best_value:
                # scan cuts are real cuts of G — keep them, they only improve us
                best_value = res.min_alpha
                if compute_side:
                    mask = res.best_cut_mask(g.n)
                    if mask is not None:
                        best_side = mask[labels]
            n_marked, uf = res.n_marked, res.uf
        if n_marked == 0:
            # cannot happen on a connected graph with threshold <= ceil(δ/2),
            # but degenerate ε could starve progress; the bound so far is
            # still a valid cut, so stop rather than loop
            break
        g, contraction = contract_by_union_find(g, uf)
        labels = compose_labels(labels, contraction)
        if g.n < 2:
            break

    assert best_value is not None
    return MinCutResult(best_value, best_side if compute_side else None, n, algo, stats)
