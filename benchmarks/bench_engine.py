"""Solver-engine throughput benchmark: one persistent engine vs per-solve calls.

Measures the engine's reason to exist: 50 mixed-size solves through one
warm :class:`~repro.engine.SolverEngine` (persistent worker pool, resident
shared-memory planes) against the same 50 solves as independent
:func:`~repro.core.mincut.parallel_mincut` calls.  Like
``bench_kernels.py``, the sides of each measurement pair run adjacent in
time so shared-runner noise moves them together, and the headlines are
medians of per-pair ratios, written next to their per-pair values.

Three variants land in ``BENCH_engine.json``, all three in every pair:

* ``per-solve-parcut`` — the baseline: a fresh solver invocation per item;
* ``engine-nocache`` — the engine with ``cache=False``: what process and
  plane reuse buy on solves it has to run.  Its ratio to the baseline is
  the gated headline (``engine_nocache_speedup_median``), because a
  request the cache cannot answer is the engine's common case;
* ``engine-warm`` — the engine with its cache on, so repeats hit in O(1).
  Its ratio (``engine_cached_speedup_median``) is reported, not gated: it
  measures the cache, not the pool.

A correctness cross-check makes throughput unfakeable: every engine result
must equal the per-solve result on the same item.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.mincut import parallel_mincut
from repro.engine import SolverEngine
from repro.generators.gnm import connected_gnm
from repro.observability import BENCH_SCHEMA_VERSION, validate_bench_payload

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: the mixed-size instance pool, cycled to SOLVES requests
GRAPH_SPECS = [
    {"n": 120, "m": 480, "rng": 0, "weights": (1, 9)},
    {"n": 200, "m": 900, "rng": 1, "weights": (1, 9)},
    {"n": 300, "m": 1500, "rng": 2, "weights": (1, 9)},
    {"n": 400, "m": 2000, "rng": 3, "weights": (1, 9)},
    {"n": 500, "m": 2500, "rng": 4, "weights": (1, 9)},
]
GRAPH_NAME = "gnm-mixed-120-500-w1-9"

#: total solve requests per measured pass (each graph recurs SOLVES/5 times)
SOLVES = 50

#: adjacent (per-solve, engine-nocache, engine-warm) measurement triples
PAIRS = 5

#: solver configuration shared by every side of every pair
SOLVE_KWARGS = {"executor": "serial", "compute_side": False, "rng": 0}

#: acceptance floor on the gated headline.  Three runs on the 2-core
#: development host measured medians of 1.53, 1.70 and 1.75 (lowest single
#: pair 1.07); under 1.1 the uncached engine has lost its lead over
#: per-solve calls, while shared CI runners keep some room for noise
NOCACHE_FLOOR = 1.1


def _items(graphs):
    return [graphs[i % len(graphs)] for i in range(SOLVES)]


def test_record_engine_throughput():
    graphs = [connected_gnm(**spec) for spec in GRAPH_SPECS]
    items = _items(graphs)
    uncached = [{"graph": g, "cache": False} for g in items]

    # warm-up: first-call numpy/alloc effects land outside every pair
    for g in graphs:
        parallel_mincut(g, **SOLVE_KWARGS)

    samples: dict[str, list[float]] = {
        "per-solve-parcut": [], "engine-nocache": [], "engine-warm": [],
    }
    kernels: set[str] = set()  # the kernel every solve reports it ran
    with SolverEngine(pool_size=2, default_algorithm="parcut") as engine:
        # engine warm-up: export the planes and populate the cache once,
        # so pair 1 measures the steady state the engine is built for
        engine.solve_many(graphs, **SOLVE_KWARGS)

        def per_solve():
            return [parallel_mincut(g, **SOLVE_KWARGS) for g in items]

        def nocache():
            return engine.solve_many(uncached, **SOLVE_KWARGS)

        def warm():
            return engine.solve_many(items, **SOLVE_KWARGS)

        sides = {"per-solve-parcut": per_solve, "engine-nocache": nocache,
                 "engine-warm": warm}
        for pair in range(PAIRS):
            # alternate who goes first so drift within a pair cancels out
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            results = {}
            for variant in order:
                t0 = time.perf_counter()
                results[variant] = sides[variant]()
                samples[variant].append(time.perf_counter() - t0)
            # throughput may never buy a wrong answer
            base = [r.value for r in results["per-solve-parcut"]]
            for variant in ("engine-nocache", "engine-warm"):
                assert [r.value for r in results[variant]] == base, variant
            kernels.update(r.stats["kernel"] for rs in results.values() for r in rs)

        engine_stats = engine.stats()
    assert engine_stats["cache"]["hits"] >= PAIRS * SOLVES
    (kernel,) = kernels

    base_walls = np.array(samples["per-solve-parcut"])
    nocache_ratios = base_walls / np.array(samples["engine-nocache"])
    cached_ratios = base_walls / np.array(samples["engine-warm"])
    executors = {
        "per-solve-parcut": "serial",
        "engine-nocache": "engine-pool",
        "engine-warm": "engine-pool",
    }
    records = []
    for variant, walls in samples.items():
        median = float(np.median(walls))
        records.append({
            "variant": variant,
            "graph": GRAPH_NAME,
            "kernel": kernel,
            "executor": executors[variant],
            "wall_s": round(median, 6),
            "wall_s_per_pair": [round(w, 6) for w in walls],
            "solves": SOLVES,
            "solves_per_s": round(SOLVES / median, 1),
        })

    speedup = float(np.median(nocache_ratios))
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "solver-engine",
        "headline_metric": "engine_nocache_speedup_median",
        "graph": {"name": GRAPH_NAME, "specs": GRAPH_SPECS},
        "solves": SOLVES,
        "pairs": PAIRS,
        "engine_nocache_speedup_median": round(speedup, 3),
        "engine_nocache_speedup_per_pair": [round(r, 3) for r in nocache_ratios],
        "engine_cached_speedup_median": round(float(np.median(cached_ratios)), 3),
        "engine_cached_speedup_per_pair": [round(r, 3) for r in cached_ratios],
        "records": records,
    }
    validate_bench_payload(payload)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup >= NOCACHE_FLOOR, (
        f"uncached engine throughput regressed: {speedup:.2f}x per-solve"
    )
