"""Ablation study: isolate each of the paper's §3 design choices.

Three mechanisms, each reported as its own table:

1. **Bound quality → contraction power** (§3.1.1): one CAPFOREST pass on a
   fixed graph under increasingly loose bounds λ̂.  The paper's core claim
   ("it is possible to contract more edges if we manage to lower λ̂
   beforehand") shows up as the marked-edge count collapsing as the bound
   loosens.
2. **Priority clamping → queue traffic** (§3.1.2, Lemma 3.1): PQ update
   counts with and without the λ̂ clamp, on a hub-heavy and on an RHG
   instance — reproducing the paper's observation that the clamp matters on
   web-like graphs and is near-neutral on RHG.
3. **Queue implementation → scan behaviour** (§3.1.3): operation counts and
   time for BStack/BQueue/Heap on the same scans.

Usage::

    python -m repro.experiments.ablation [--scale 0.5]
"""

from __future__ import annotations

import argparse
import time

from ..core.capforest import capforest
from ..core.noi import noi_mincut
from .instances import largest_web_instances, rhg_instance
from .report import format_table


def bound_quality_table(graph, *, seed: int = 0) -> list[list[object]]:
    """Marks per CAPFOREST pass as the bound loosens from λ to 4δ."""
    lam = noi_mincut(graph, rng=seed, compute_side=False).value
    _, delta = graph.min_weighted_degree()
    rows = []
    bounds = sorted({lam, max(lam, (lam + delta) // 2), delta, 2 * delta, 4 * delta})
    for bound in bounds:
        res = capforest(graph, bound, pq_kind="heap", rng=seed, fixed_bound=True)
        rows.append(
            [
                bound,
                f"{bound / lam:.1f}x lambda",
                res.n_marked,
                graph.n - res.uf.count,
                res.pq_stats.updates,
                res.pq_stats.skipped_updates,
            ]
        )
    return rows


def clamp_table(instances, *, seed: int = 0) -> list[list[object]]:
    rows = []
    for name, g in instances:
        _, delta = g.min_weighted_degree()
        for bounded in (False, True):
            t0 = time.perf_counter()
            res = capforest(g, int(delta), pq_kind="heap", bounded=bounded, rng=seed)
            dt = time.perf_counter() - t0
            rows.append(
                [
                    name,
                    "clamped" if bounded else "unbounded",
                    res.pq_stats.updates,
                    res.pq_stats.skipped_updates,
                    dt,
                ]
            )
    return rows


def queue_table(instances, *, seed: int = 0) -> list[list[object]]:
    rows = []
    for name, g in instances:
        _, delta = g.min_weighted_degree()
        for pq in ("bstack", "bqueue", "heap"):
            t0 = time.perf_counter()
            res = capforest(g, int(delta), pq_kind=pq, rng=seed)
            dt = time.perf_counter() - t0
            rows.append([name, pq, res.pq_stats.total, res.n_marked, dt])
    return rows


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    web = largest_web_instances(2, scale=args.scale)
    rhg = [("rhg_2^11_deg2^5", rhg_instance(11, 5, args.seed))]

    print("== Ablation 1: bound quality -> contraction power (one CAPFOREST pass) ==")
    print(
        format_table(
            ["bound", "vs_lambda", "marks", "vertices_merged", "pq_updates", "pq_skipped"],
            bound_quality_table(rhg[0][1], seed=args.seed),
        )
    )
    print("== Ablation 2: priority clamp -> queue traffic (Lemma 3.1) ==")
    print(
        format_table(
            ["instance", "mode", "pq_updates", "pq_skipped", "seconds"],
            clamp_table(web + rhg, seed=args.seed),
        )
    )
    print("== Ablation 3: queue implementation -> scan cost ==")
    print(
        format_table(
            ["instance", "queue", "pq_ops", "marks", "seconds"],
            queue_table(web + rhg, seed=args.seed),
        )
    )


if __name__ == "__main__":
    main()
