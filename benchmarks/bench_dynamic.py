"""Dynamic-update benchmark: warm re-solves vs cold re-solves per batch.

Measures the reason the warm path exists: a stream of small edge-update
batches against one graph, re-solved after every batch.  The **cold** side
rebuilds nothing but solves each post-update graph from scratch
(:func:`~repro.core.api.minimum_cut`); the **warm** side goes through
:meth:`~repro.engine.SolverEngine.update`, which re-prices the carried cut
across the batch (fast path), seeds NOI with the certified bound on the
certificate-contracted graph (seeded), or falls back cold.

Both sides of each batch run adjacent in time so shared-runner noise moves
them together; the headline ``warm_over_cold_speedup_median`` is the
median per-batch ``cold_wall / warm_wall`` ratio.  A correctness
cross-check makes the speedup unfakeable: every warm value must equal the
cold value on the same post-update graph.

Two variants land in ``BENCH_dynamic.json``:

* ``cold-resolve`` — a from-scratch exact solve per batch (baseline);
* ``engine-warm-update`` — the engine's incremental path (headline).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.api import minimum_cut
from repro.dynamic import DynamicGraph
from repro.engine import SolverEngine
from repro.generators.gnm import connected_gnm
from repro.observability import BENCH_SCHEMA_VERSION, validate_bench_payload

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_dynamic.json"

GRAPH_SPEC = {"n": 300, "m": 1200, "rng": 0, "weights": (1, 9)}
GRAPH_NAME = "gnm-300-1200-w1-9"

#: update batches per measured stream
BATCHES = 40

ALGORITHM = "noi-viecut"
SOLVE_KWARGS = {"rng": 0}


def _make_batches(n: int, rng: np.random.Generator):
    """Mixed batches: mostly inserts (cheap fast-path checks), some
    deletes of previously inserted edges (forces re-seeding)."""
    batches = []
    inserted: list[tuple[int, int]] = []
    present: set[tuple[int, int]] = set()
    for step in range(BATCHES):
        inserts, deletes = [], []
        for _ in range(int(rng.integers(1, 4))):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in present:
                continue
            inserts.append((u, v, int(rng.integers(1, 6))))
            inserted.append(key)
            present.add(key)
        if step % 5 == 4 and inserted:
            key = inserted.pop(0)
            present.discard(key)
            deletes.append(key)
        batches.append((inserts, deletes))
    return batches


def test_record_dynamic_update_throughput():
    base = connected_gnm(**GRAPH_SPEC)
    rng = np.random.default_rng(42)
    batches = _make_batches(base.n, rng)

    # warm-up solves: first-call numpy effects land outside every pair
    minimum_cut(base, algorithm=ALGORITHM, **SOLVE_KWARGS)

    cold_walls, warm_walls, ratios = [], [], []
    with SolverEngine(pool_size=0, default_algorithm=ALGORITHM) as engine:
        dyn = DynamicGraph(base)
        engine.update(dyn, **SOLVE_KWARGS)  # initial cold solve seeds state
        modes: dict[str, int] = {}
        for inserts, deletes in batches:
            t0 = time.perf_counter()
            warm = engine.update(dyn, inserts, deletes, **SOLVE_KWARGS)
            warm_wall = time.perf_counter() - t0

            t0 = time.perf_counter()
            cold = minimum_cut(dyn.graph, algorithm=ALGORITHM, **SOLVE_KWARGS)
            cold_wall = time.perf_counter() - t0

            # speed may never buy a wrong answer
            assert warm.value == cold.value
            # the update path reads the same default kernel as a cold solve
            kernel = cold.stats["kernel_resolved"]
            mode = warm.stats["warm"]["mode"]
            modes[mode] = modes.get(mode, 0) + 1
            warm_walls.append(warm_wall)
            cold_walls.append(cold_wall)
            ratios.append(cold_wall / warm_wall)

    speedup = float(np.median(ratios))
    records = [
        {
            "variant": "cold-resolve",
            "graph": GRAPH_NAME,
            "kernel": kernel,
            "executor": "inline",
            "wall_s": round(sum(cold_walls), 6),
            "batches": BATCHES,
            "solves_per_s": round(BATCHES / sum(cold_walls), 1),
        },
        {
            "variant": "engine-warm-update",
            "graph": GRAPH_NAME,
            "kernel": kernel,
            "executor": "inline",
            "wall_s": round(sum(warm_walls), 6),
            "batches": BATCHES,
            "solves_per_s": round(BATCHES / sum(warm_walls), 1),
        },
    ]
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "dynamic-updates",
        "headline_metric": "warm_over_cold_speedup_median",
        "graph": {"name": GRAPH_NAME, "spec": GRAPH_SPEC},
        "batches": BATCHES,
        "algorithm": ALGORITHM,
        "warm_over_cold_speedup_median": round(speedup, 3),
        "warm_modes": modes,
        "records": records,
    }
    validate_bench_payload(payload)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # the acceptance floor; the honest (usually much larger) number is in
    # the JSON — the floor stays low so shared CI runners do not flake
    assert speedup > 1.0, f"warm updates regressed below cold: {speedup:.2f}x"
