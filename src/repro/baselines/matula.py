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
here it runs NOI's own round loop (:func:`~repro.core.noi.contraction_rounds`)
on the optimized CAPFOREST with ``fixed_bound``: each round freezes the
threshold at ``⌈δ/(2+ε)⌉`` of the round's graph (the usual α-tightening
must be disabled because the threshold is not a valid cut bound — α cuts
are still *offered*, they are real cuts and only improve the answer).  The
threshold is at most δ, so a complete pass always marks an edge
(IMPLEMENTATION_NOTES §3) and every round shrinks the graph.
"""

from __future__ import annotations

import numpy as np

from ..core.capforest import capforest, check_queue
from ..core.mincut import SupervisedPass
from ..core.noi import Incumbent, _absorb, contraction_rounds
from ..core.parallel_capforest import check_executor
from ..core.result import MinCutResult
from ..graph.contract import contract_by_union_find
from ..graph.csr import Graph
from ..runtime.faults import FaultPlan
from ..runtime.supervisor import check_failure_policy
from ..utils.timers import Timer


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
    check_queue(pq_kind)
    check_executor(executor, workers)
    check_failure_policy(on_worker_failure)
    n = graph.n
    if n < 2:
        raise ValueError(f"minimum cut requires at least 2 vertices, got {n}")
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)

    stats: dict = {
        "rounds": 0, "edges_scanned": 0, "vertices_scanned": 0, "pq_pushes": 0,
        "pq_updates": 0, "pq_skipped_updates": 0, "pq_pops": 0, "contraction_ratios": [],
        "worker_events": [], "degradations": [],
    }
    parallel = None
    if workers > 1:
        parallel = SupervisedPass(
            stats, executor, on_worker_failure, workers=workers, pq_kind=pq_kind, rng=rng,
            fixed_bound=True, timeout=timeout, fault_plan=fault_plan,
        )

    def certify(g: Graph, inc: Incumbent, r: int):
        # every scan cut α is a real cut of G: offered, it only improves us
        threshold = max(1, int(np.ceil(g.min_weighted_degree()[1] / (2 + eps))))
        if parallel is not None:
            pres = parallel(g, threshold, r)
            winner = min(
                (w for w in pres.workers if w.best_alpha is not None),
                key=lambda w: w.best_alpha,
                default=None,
            )
            if winner is not None:
                inc.offer(winner.best_alpha, "scan-cut",
                          lambda: _prefix_mask(g.n, winner.best_prefix))
            if pres.n_marked:
                return pres
        # one complete sequential pass, which marks (the parallel one may
        # stop early)
        res = capforest(g, threshold, pq_kind=pq_kind, bounded=True, fixed_bound=True, rng=rng)
        _absorb(stats, res)
        if res.min_alpha is not None:
            inc.offer(res.min_alpha, "scan-cut", lambda: res.best_cut_mask(g.n))
        return res

    inc = contraction_rounds(
        graph, certify, contract_by_union_find, stats, Timer(), compute_side=compute_side
    )
    return MinCutResult(inc.value, inc.side, n, "matula", stats)


def _prefix_mask(n: int, prefix: list[int]) -> np.ndarray | None:
    if not prefix:
        return None
    mask = np.zeros(n, dtype=bool)
    mask[prefix] = True
    return mask
