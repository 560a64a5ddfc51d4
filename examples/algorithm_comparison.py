#!/usr/bin/env python3
"""Race all solvers on one instance — Figure 4 in miniature.

Runs every registered algorithm on the same random hyperbolic graph,
reports time, value, and the operation counts that explain the ranking
(the paper's §4.2 analysis: bounded queues skip hub updates; the VieCut
seed lets CAPFOREST contract far more per round; flow-based HO trails).

Run:  python examples/algorithm_comparison.py
"""

import time

from repro import minimum_cut
from repro.generators import rhg
from repro.graph import largest_component

graph, _ = largest_component(rhg(2048, 24, rng=5))
print(f"instance: RHG  n={graph.n} m={graph.m} "
      f"min_degree={int(graph.weighted_degrees().min())}")

ALGOS = [
    ("noi-viecut", dict()),          # NOIλ̂-BQueue-VieCut — the default
    ("noi-viecut", dict(pq_kind="heap")),  # NOIλ̂-Heap-VieCut — the paper's champion
    ("noi", dict(pq_kind="bstack")),  # NOIλ̂-BStack
    ("noi", dict(pq_kind="bqueue")),  # NOIλ̂-BQueue
    ("noi", dict(pq_kind="heap")),    # NOIλ̂-Heap
    ("noi-hnss", dict()),             # unbounded baseline
    ("parcut", dict(workers=4)),      # parallel system (serial executor)
    ("stoer-wagner", dict()),
    ("hao-orlin", dict()),
    ("viecut", dict()),               # inexact
    ("matula", dict(eps=0.5)),        # (2+ε)-approximation
]

rows = []
for name, kwargs in ALGOS:
    t0 = time.perf_counter()
    res = minimum_cut(graph, algorithm=name, rng=0, **kwargs)
    dt = time.perf_counter() - t0
    pq_ops = sum(res.stats.get(k, 0) for k in ("pq_pushes", "pq_updates", "pq_pops"))
    label = res.algorithm
    rows.append((label, dt, res.value, pq_ops))

rows.sort(key=lambda r: r[1])
best = rows[0][1]
print(f"\n{'algorithm':28s} {'time':>9s} {'t/t_best':>9s} {'cut':>5s} {'pq_ops':>9s}")
for label, dt, value, pq_ops in rows:
    print(f"{label:28s} {dt:>8.3f}s {dt / best:>9.2f} {value:>5d} {pq_ops:>9d}")

exact_values = {v for label, _, v, _ in rows
                if not label.startswith(("viecut", "matula"))}
assert len(exact_values) == 1, f"exact solvers disagree: {exact_values}"
print("\nall exact solvers agree; inexact ones are valid upper bounds — OK")
