"""Figure 5 — scaling of the parallel algorithm (ParCut).

The paper runs ParCutλ̂-{BStack, BQueue, Heap} with p ∈ {1, 2, 4, 8, 12, 24}
OpenMP threads on the five largest instances, reporting (top row)
self-relative scalability and (bottom row) speedup over the best sequential
variant and NOI-HNSS.  ParCut seeds in Algorithm 2's order, VieCut first.

Python substitution (DESIGN.md §2): wall-clock speedup is reported from the
``processes`` executor (real parallelism); additionally the *modeled*
speedup — total CAPFOREST work divided by the busiest worker's work,
summed over rounds — is reported from the deterministic ``serial``
executor, isolating the algorithmic load balance the paper's scaling
reflects from Python's process overheads.

Usage::

    python -m repro.experiments.figure5 [--workers 1 2 4 8] [--scale 0.5]
                                        [--executor serial|processes]
"""

from __future__ import annotations

import argparse
import time

from ..core.parallel_capforest import EXECUTORS
from .harness import make_parallel_variants, make_sequential_variants
from .instances import largest_web_instances
from .report import format_csv, format_table


def run(
    *,
    workers: tuple[int, ...] = (1, 2, 4, 8),
    scale: float = 0.5,
    executor: str = "serial",
    count: int = 5,
    seed: int = 0,
):
    """Return rows: one per (instance, pq_kind, p)."""
    instances = largest_web_instances(count, scale=scale)
    sequential = make_sequential_variants()
    parallel = {p: make_parallel_variants(p, executor) for p in workers}
    rows = []
    for name, graph in instances:
        # sequential references (paper: NOI-HNSS and the fastest sequential)
        t0 = time.perf_counter()
        hnss = sequential["NOI-HNSS"](graph, seed)
        t_hnss = time.perf_counter() - t0

        t0 = time.perf_counter()
        best_seq = sequential["NOIlam-Heap-VieCut"](graph, seed)
        t_best_seq = time.perf_counter() - t0

        for variant in parallel[workers[0]]:
            pq = variant.removeprefix("ParCutlam-").lower()
            base_wall = None
            for p in workers:
                t0 = time.perf_counter()
                res = parallel[p][variant](graph, seed)
                wall = time.perf_counter() - t0
                if base_wall is None:
                    base_wall = wall
                assert res.value == hnss.value == best_seq.value
                rows.append(
                    {
                        "instance": name,
                        "n": graph.n,
                        "m": graph.m,
                        "pq": pq,
                        "p": p,
                        "wall_s": wall,
                        "self_speedup": base_wall / wall if wall > 0 else float("nan"),
                        # stats schema: key always present, None when no parallel
                        # pass ran (e.g. the solve collapsed in the seed)
                        "modeled_speedup": res.stats["modeled_speedup"] or 1.0,
                        "speedup_vs_hnss": t_hnss / wall if wall > 0 else float("nan"),
                        "speedup_vs_best_seq": t_best_seq / wall if wall > 0 else float("nan"),
                        "cut": res.value,
                    }
                )
    return rows


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4, 8])
    ap.add_argument("--scale", type=float, default=0.5)
    ap.add_argument("--executor", choices=EXECUTORS, default="serial")
    ap.add_argument("--count", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", action="store_true")
    args = ap.parse_args(argv)

    rows = run(
        workers=tuple(args.workers),
        scale=args.scale,
        executor=args.executor,
        count=args.count,
        seed=args.seed,
    )
    headers = [
        "instance",
        "pq",
        "p",
        "wall_s",
        "self_speedup",
        "modeled_speedup",
        "speedup_vs_hnss",
        "speedup_vs_best_seq",
        "cut",
    ]
    table_rows = [[r[h] for h in headers] for r in rows]
    print(f"== Figure 5: ParCut scaling (executor={args.executor}) ==")
    print((format_csv if args.csv else format_table)(headers, table_rows))


if __name__ == "__main__":
    main()
