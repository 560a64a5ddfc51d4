"""Service load benchmark: the HTTP front end under three traffic mixes.

Drives a real :class:`~repro.service.server.MinCutService` on a real
socket (via the in-process :class:`~repro.service.testing.ServiceThread`
harness) with the load shapes the ISSUE names:

* ``steady-uncached`` — many small graphs, ``cache=False``, moderate
  concurrency: the honest cost of the HTTP/JSON/admission path per solve.
  This is also the **paired** side of the headline metric: each pass is
  preceded, adjacent in time, by the same workload pushed straight into
  the same engine via :meth:`SolverEngine.solve_many` — so the headline
  ``service_relative_throughput_median`` (service wall / direct wall,
  inverted to higher-is-better) is a machine-independent overhead ratio,
  not a raw rps number that flakes on shared CI runners.
* ``steady-hot`` — the same graphs replayed with the result cache on:
  hot repeats should be dominated by wire overhead, not solving.
* ``heavy`` — a few large graphs at low concurrency.
* ``overload`` — concurrency far above a deliberately tiny admission
  budget, with the budget pre-occupied: the service must *shed* (429 +
  ``Retry-After``), never queue unboundedly; the shed rate is recorded.

Latency percentiles (p50/p99) and throughput land per-variant in
``BENCH_service.json`` under the shared bench-record schema, gated in CI
on the headline ratio with the standard warn-then-fail tolerances.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.capforest import DEFAULT_KERNEL
from repro.generators.gnm import connected_gnm
from repro.observability import BENCH_SCHEMA_VERSION, validate_bench_payload
from repro.service import ServiceConfig, fire_concurrent, graph_payload
from repro.service.testing import ServiceThread

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: the small-graph pool for the steady mixes (cycled to SOLVES requests)
SMALL_SPECS = [
    {"n": 60, "m": 220, "rng": 0, "weights": (1, 9)},
    {"n": 90, "m": 340, "rng": 1, "weights": (1, 9)},
    {"n": 120, "m": 460, "rng": 2, "weights": (1, 9)},
    {"n": 150, "m": 600, "rng": 3, "weights": (1, 9)},
]

#: the few-huge-graphs pool for the heavy mix
HEAVY_SPECS = [
    {"n": 700, "m": 3500, "rng": 10, "weights": (1, 9)},
    {"n": 900, "m": 4500, "rng": 11, "weights": (1, 9)},
]

GRAPH_NAME = "gnm-service-mix-60-900-w1-9"

#: requests per steady pass; each small graph recurs SOLVES/4 times
SOLVES = 32

#: adjacent (direct-engine, service) pairs for the headline median
PAIRS = 3

SOLVE_KWARGS = {"executor": "serial", "compute_side": False, "rng": 0}

#: the overload mix: budget of 2 units, pre-occupied, then this many shots
OVERLOAD_SHOTS = 24
OVERLOAD_CONCURRENCY = 12


def _percentiles(latencies: list[float]) -> dict:
    arr = np.asarray(latencies, dtype=np.float64)
    return {
        "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(arr, 99)) * 1e3, 3),
    }


def _solve_requests(graphs, *, cache: bool, repeat: int) -> list[dict]:
    payloads = [graph_payload(g) for g in graphs]
    return [
        {"path": "/v1/solve",
         "payload": {"graph": payloads[i % len(payloads)], "cache": cache,
                     "kwargs": SOLVE_KWARGS}}
        for i in range(repeat)
    ]


def _run_mix(port: int, requests: list[dict], *, concurrency: int):
    t0 = time.perf_counter()
    records = fire_concurrent("127.0.0.1", port, requests,
                              concurrency=concurrency, timeout=120.0)
    wall = time.perf_counter() - t0
    assert len(records) == len(requests)
    return wall, records


def _record(variant: str, wall: float, records: list[dict], *, kernel: str,
            executor: str, extra: dict | None = None) -> dict:
    ok = [r for r in records if r["status"] == 200]
    entry = {
        "variant": variant,
        "graph": GRAPH_NAME,
        "kernel": kernel,
        "executor": executor,
        "wall_s": round(wall, 6),
        "requests": len(records),
        "ok": len(ok),
        "requests_per_s": round(len(records) / wall, 1),
        **_percentiles([r["latency_s"] for r in records]),
    }
    entry.update(extra or {})
    return entry


def test_record_service_load():
    small = [connected_gnm(**spec) for spec in SMALL_SPECS]
    heavy = [connected_gnm(**spec) for spec in HEAVY_SPECS]
    expected = {}

    records_out = []
    ratios = []
    with ServiceThread(
        engine_kwargs={"pool_size": 2, "default_algorithm": "parcut"},
        config=ServiceConfig(max_inflight=32, per_client_inflight=32),
    ) as st:
        engine = st.engine
        # warm-up both sides: planes exported, workers warm, numpy loaded
        for g, res in zip(small, engine.solve_many(small, **SOLVE_KWARGS)):
            expected[g.n] = res.value

        uncached = [{"graph": g, "cache": False} for g in
                    (small[i % len(small)] for i in range(SOLVES))]
        wire = _solve_requests(small, cache=False, repeat=SOLVES)

        # -- steady-uncached, paired against the direct engine ------------
        direct_walls, service_walls = [], []
        last_records = None
        for _ in range(PAIRS):
            t0 = time.perf_counter()
            direct_results = engine.solve_many(uncached, **SOLVE_KWARGS)
            direct_walls.append(time.perf_counter() - t0)

            wall, recs = _run_mix(st.port, wire, concurrency=4)
            service_walls.append(wall)
            last_records = recs

            # throughput may never buy a wrong answer: every HTTP result
            # must equal the direct engine's on the same graph
            for rec, direct in zip(recs, direct_results):
                assert rec["status"] == 200, rec
                assert rec["body"]["value"] == direct.value
            ratios.append(direct_walls[-1] / wall)

        # every solve of this engine runs its default algorithm's kernel
        kernel = direct_results[0].stats["kernel_resolved"]
        records_out.append(_record(
            "steady-uncached", min(service_walls), last_records,
            kernel=kernel, executor="http-pool",
        ))
        records_out.append({
            "variant": "direct-engine-uncached",
            "graph": GRAPH_NAME,
            "kernel": kernel,
            "executor": "engine-pool",
            "wall_s": round(min(direct_walls), 6),
            "requests": SOLVES,
            "requests_per_s": round(SOLVES / min(direct_walls), 1),
        })

        # -- steady-hot: repeats served from the result cache --------------
        hot = _solve_requests(small, cache=True, repeat=SOLVES)
        _run_mix(st.port, hot, concurrency=4)  # populate
        hot_wall, hot_recs = _run_mix(st.port, hot, concurrency=4)
        for rec in hot_recs:
            assert rec["status"] == 200
            assert rec["body"]["value"] == expected[rec["body"]["n"]]
        records_out.append(_record("steady-hot", hot_wall, hot_recs,
                                   kernel=kernel, executor="http-pool"))

        # -- heavy: few huge graphs, low concurrency -----------------------
        heavy_reqs = _solve_requests(heavy, cache=False, repeat=len(heavy) * 2)
        heavy_wall, heavy_recs = _run_mix(st.port, heavy_reqs, concurrency=2)
        assert all(r["status"] == 200 for r in heavy_recs)
        records_out.append(_record("heavy", heavy_wall, heavy_recs,
                                   kernel=kernel, executor="http-pool"))

    # -- overload: a tiny budget, pre-occupied, then a burst ---------------
    with ServiceThread(
        engine_kwargs={"pool_size": 1, "max_recycles": 8},
        config=ServiceConfig(max_inflight=2, per_client_inflight=2,
                             allow_test_faults=True, drain_grace_s=2.0),
    ) as st:
        occupy = [
            {"path": "/v1/solve",
             "payload": {"graph": graph_payload(small[0]), "cache": False,
                         "timeout_ms": 3_000,
                         "kwargs": {"_test_fault": {
                             "test_fault": "hang", "sleep_seconds": 60}}}}
            for _ in range(2)
        ]
        import threading

        occupiers = [
            threading.Thread(target=fire_concurrent,
                             args=("127.0.0.1", st.port, [req]),
                             kwargs={"concurrency": 1, "timeout": 30.0})
            for req in occupy
        ]
        for t in occupiers:
            t.start()
        deadline = time.monotonic() + 5.0
        while (st.service.admission.inflight < 2
               and time.monotonic() < deadline):
            time.sleep(0.01)

        burst = _solve_requests(small, cache=False, repeat=OVERLOAD_SHOTS)
        burst_wall, burst_recs = _run_mix(st.port, burst,
                                          concurrency=OVERLOAD_CONCURRENCY)
        for t in occupiers:
            t.join()

        shed = [r for r in burst_recs if r["status"] == 429]
        # the budget was fully occupied: the burst must shed, and every
        # shed must carry the retry/backpressure contract
        assert shed, "overloaded service never shed a request"
        for rec in shed:
            assert rec["retry_after"] is not None
            assert rec["body"]["shed_reason"] in ("global_inflight",
                                                  "client_queue")
            assert "queue_depth" in rec["body"]
        shed_rate = len(shed) / len(burst_recs)
        records_out.append(_record(
            "overload", burst_wall, burst_recs, kernel=DEFAULT_KERNEL,
            executor="http-pool",
            extra={"shed": len(shed), "shed_rate": round(shed_rate, 4)},
        ))

    headline = float(np.median(ratios))
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "mincut-service",
        "headline_metric": "service_relative_throughput_median",
        "graph": {"name": GRAPH_NAME,
                  "small_specs": SMALL_SPECS, "heavy_specs": HEAVY_SPECS},
        "solves": SOLVES,
        "pairs": PAIRS,
        "service_relative_throughput_median": round(headline, 4),
        "service_relative_throughput_per_pair": [round(r, 4) for r in ratios],
        "records": records_out,
    }
    validate_bench_payload(payload)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # loose floor: the HTTP path on small graphs costs JSON encode/decode
    # per request, so it is slower than the in-process engine — but it must
    # stay within an order of magnitude or the front end is broken
    assert headline >= 0.05, (
        f"service overhead blew up: {headline:.3f}x of direct engine"
    )
