"""Cactus construction overhead benchmark: all-cuts solve vs value-only solve.

Measures what the ``all_cuts=True`` output shape costs on top of the plain
minimum-cut value: each measured pair runs the value-only solve and the
cactus-building solve adjacent in time on the same graph, so shared-runner
noise moves both walls together.  The headline,
``cactus_relative_throughput_median``, is the median per-pair ratio
``value_only_wall / all_cuts_wall`` — 1.0 would mean the cactus is free;
the gate watches it the usual way (a drop means construction got slower
relative to the solver it rides on).

A correctness cross-check makes the number unfakeable: every cactus run
must report the same cut value as the value-only run, and its min-cut
count must be stable across repetitions of the same graph.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.api import minimum_cut
from repro.generators.gnm import connected_gnm
from repro.graph import from_edges
from repro.observability import BENCH_SCHEMA_VERSION, validate_bench_payload

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cactus.json"

#: weighted gnm instances contract hard (λ is near-unique), unit cycles
#: keep many crossing cuts alive — both regimes are measured
GRAPH_SPECS = [
    {"n": 120, "m": 480, "rng": 0, "weights": (1, 9)},
    {"n": 200, "m": 800, "rng": 1, "weights": (1, 9)},
    {"n": 300, "m": 1200, "rng": 2, "weights": (1, 9)},
]
GRAPH_NAME = "gnm-120-300-w1-9-plus-c32"

#: adjacent (value-only, all-cuts) measurement pairs for the headline median
PAIRS = 3

SOLVE_KWARGS = {"rng": 0}


def _cycle(n: int):
    idx = list(range(n))
    return from_edges(n, idx, [(i + 1) % n for i in idx], [1] * n)


def test_record_cactus_overhead():
    graphs = [connected_gnm(**spec) for spec in GRAPH_SPECS]
    # the structured instance: C32 has n(n-1)/2 = 496 min cuts in one
    # cactus cycle, the worst case for enumeration-heavy construction
    graphs.append(_cycle(32))

    # warm-up outside every pair
    warm = [minimum_cut(g, all_cuts=True, **SOLVE_KWARGS) for g in graphs]
    expected_counts = [r.num_min_cuts() for r in warm]

    samples: dict[str, list[float]] = {"value-only": [], "all-cuts": []}
    ratios = []
    for _ in range(PAIRS):
        t0 = time.perf_counter()
        base = [minimum_cut(g, **SOLVE_KWARGS) for g in graphs]
        base_wall = time.perf_counter() - t0
        samples["value-only"].append(base_wall)

        t0 = time.perf_counter()
        rich = [minimum_cut(g, all_cuts=True, **SOLVE_KWARGS) for g in graphs]
        rich_wall = time.perf_counter() - t0
        samples["all-cuts"].append(rich_wall)

        # overhead may never buy a wrong answer
        for b, r, count in zip(base, rich, expected_counts):
            assert r.value == b.value
            assert r.num_min_cuts() == count
        ratios.append(base_wall / rich_wall)

    relative = float(np.median(ratios))
    kernel = base[0].stats["kernel_resolved"]  # the default solve's kernel
    records = []
    for variant, walls in samples.items():
        best = min(walls)
        records.append({
            "variant": variant,
            "graph": GRAPH_NAME,
            "kernel": kernel,
            "executor": "serial",
            "wall_s": round(best, 6),
            "solves": len(graphs),
        })

    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "cactus-all-cuts",
        "headline_metric": "cactus_relative_throughput_median",
        "graph": {"name": GRAPH_NAME, "specs": GRAPH_SPECS, "cycle_n": 32},
        "pairs": PAIRS,
        "min_cut_counts": expected_counts,
        "cactus_relative_throughput_median": round(relative, 4),
        "cactus_relative_throughput_per_pair": [round(r, 4) for r in ratios],
        "records": records,
    }
    validate_bench_payload(payload)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # loose acceptance floor (the gate does the real comparison): building
    # the full cactus must stay within ~100x of the value-only solve
    assert relative >= 0.01, f"cactus overhead blew up: {relative:.4f}"
