#!/usr/bin/env python3
"""Quickstart: build a graph, compute its minimum cut, inspect the result.

Run:  python examples/quickstart.py
"""

from repro import GraphBuilder, minimum_cut

# A "dumbbell": two densely connected groups joined by a single weak link.
# Vertices 0-3 form a clique, vertices 4-7 form a clique, and one edge of
# weight 1 bridges them — the minimum cut.
builder = GraphBuilder(8)
for base in (0, 4):
    for i in range(4):
        for j in range(i + 1, 4):
            builder.add_edge(base + i, base + j, w=3)
builder.add_edge(3, 4, w=1)
graph = builder.build()

print(f"graph: {graph}")

# The default algorithm is VieCut seed + NOI with a bounded BQueue on the
# vector kernel (NOIλ̂-BQueue-VieCut); pq_kind="heap" selects the paper's
# fastest sequential configuration, NOIλ̂-Heap-VieCut.
result = minimum_cut(graph, rng=0)

print(f"minimum cut value : {result.value}")
side_a, side_b = result.partition()
print(f"one side          : {side_a}")
print(f"other side        : {side_b}")
print(f"certified         : {result.verify(graph)}")  # recomputes from scratch
print(f"solved by         : {result.algorithm}")

# Every solver the paper discusses is one keyword away:
for algorithm in ("noi", "noi-hnss", "parcut", "stoer-wagner", "hao-orlin"):
    r = minimum_cut(graph, algorithm=algorithm, rng=0)
    print(f"{algorithm:13s} -> {r.value}")

# Inexact / approximate algorithms give certified upper bounds:
viecut_result = minimum_cut(graph, algorithm="viecut", rng=0)
print(f"viecut (inexact) -> {viecut_result.value} (>= true minimum cut)")

assert result.value == 1
assert sorted(min(result.partition(), key=len)) in ([0, 1, 2, 3], [4, 5, 6, 7])
print("OK")
