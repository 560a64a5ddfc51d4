"""NOI-vs-tree-packing crossover benchmark for the ``karger-nlt`` solver.

The point of a second exact algorithm family is different scaling, so the
benchmark measures exactly that: a paired size ladder where each rung runs
``noi-viecut`` and ``karger-nlt`` adjacent in time on the same graph
(shared-runner noise moves both walls together), recording both walls per
rung.  The committed ``BENCH_treepack.json`` is the honest crossover
record — per-rung ``noi_wall / treepack_wall`` ratios chart where the
dense 2-respecting scan stands against the contraction loop.

The headline, ``treepack_relative_throughput_median``, is the median of
those per-rung ratios; the gate watches it the usual way (a drop means
the tree-packing path got slower relative to the solver it diversifies).

A correctness cross-check makes the number unfakeable: both solvers must
report the same λ on every rung, and the treepack run must carry its
packing certificate (``stats["certified"]``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.api import minimum_cut
from repro.generators.gnm import connected_gnm
from repro.observability import BENCH_SCHEMA_VERSION, validate_bench_payload

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_treepack.json"

#: the size ladder: m = 4n keeps density fixed so the rungs chart pure
#: n-scaling, the regime where the O(n·(n+m)) DP and the contraction loop
#: diverge
GRAPH_SPECS = [
    {"n": 64, "m": 256, "rng": 0, "weights": (1, 9)},
    {"n": 128, "m": 512, "rng": 1, "weights": (1, 9)},
    {"n": 192, "m": 768, "rng": 2, "weights": (1, 9)},
    {"n": 256, "m": 1024, "rng": 3, "weights": (1, 9)},
]
GRAPH_NAME = "gnm-64-256-m4n-w1-9"

#: adjacent (noi, treepack) measurement pairs per rung for the median
PAIRS = 3

SOLVE_KWARGS = {"rng": 0}


def test_record_treepack_crossover():
    graphs = [connected_gnm(**spec) for spec in GRAPH_SPECS]

    # warm-up outside every measured pair
    for g in graphs:
        minimum_cut(g, "noi-viecut", **SOLVE_KWARGS)
        minimum_cut(g, "karger-nlt", **SOLVE_KWARGS)

    records = []
    ratios = []
    crossover = []
    for spec, g in zip(GRAPH_SPECS, graphs):
        noi_walls, tp_walls = [], []
        for _ in range(PAIRS):
            t0 = time.perf_counter()
            noi = minimum_cut(g, "noi-viecut", **SOLVE_KWARGS)
            noi_walls.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            tp = minimum_cut(g, "karger-nlt", **SOLVE_KWARGS)
            tp_walls.append(time.perf_counter() - t0)

            # two exact families must agree, and the treepack answer must
            # carry its packing certificate — else the wall is meaningless
            assert tp.value == noi.value, (spec, tp.value, noi.value)
            assert tp.stats["certified"], spec
        rung_ratio = float(np.median(noi_walls) / np.median(tp_walls))
        ratios.append(rung_ratio)
        crossover.append({"n": spec["n"], "m": spec["m"],
                          "noi_over_treepack": round(rung_ratio, 4)})
        # karger-nlt runs no CAPFOREST: its loops are plain Python
        for variant, walls, kernel in (
            ("noi-viecut", noi_walls, noi.stats["kernel_resolved"]),
            ("karger-nlt", tp_walls, "scalar"),
        ):
            records.append({
                "variant": variant,
                "graph": f"gnm-{spec['n']}-{spec['m']}",
                "kernel": kernel,
                "executor": "serial",
                "wall_s": round(min(walls), 6),
                "n": spec["n"],
                "m": spec["m"],
            })

    headline = float(np.median(ratios))
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "treepack-crossover",
        "headline_metric": "treepack_relative_throughput_median",
        "graph": {"name": GRAPH_NAME, "specs": GRAPH_SPECS},
        "pairs": PAIRS,
        "treepack_relative_throughput_median": round(headline, 4),
        "crossover_curve": crossover,
        "records": records,
    }
    validate_bench_payload(payload)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # loose acceptance floor (the gate does the real comparison): treepack
    # must stay within ~100x of NOI on the charted ladder
    assert headline >= 0.01, f"treepack fell off the chart: {headline:.4f}"
