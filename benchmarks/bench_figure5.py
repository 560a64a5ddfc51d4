"""Figure 5 benchmarks: ParCut scaling over worker counts.

Times the harness's ParCutλ̂-{BStack, BQueue, Heap} variants, which seed in
Algorithm 2's order as Figure 5 does, at p ∈ {1, 2, 4} with the
deterministic serial executor and records the modeled speedup (total work
/ busiest worker) in ``extra_info`` — the load-balance signal behind the
paper's near-linear scaling.  One process-executor solve of ParCutλ̂-BQueue
(the paper's best parallel variant) is also timed for real-parallel wall
clock.
"""

import pytest

from repro.experiments.harness import make_parallel_variants

WORKER_COUNTS = (1, 2, 4)
VARIANTS = {"bstack": "ParCutlam-BStack", "bqueue": "ParCutlam-BQueue",
            "heap": "ParCutlam-Heap"}


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("pq", list(VARIANTS))
def test_parcut_serial(benchmark, web_largest, workers, pq):
    name, g = web_largest
    run = make_parallel_variants(workers)[VARIANTS[pq]]

    result = benchmark.pedantic(run, args=(g, 0), rounds=2, iterations=1)
    benchmark.group = f"figure5-parcut-{pq}"
    benchmark.extra_info["instance"] = name
    benchmark.extra_info["workers"] = workers
    # None when no parallel pass ran (the seed finished the solve)
    benchmark.extra_info["modeled_speedup"] = round(
        result.stats["modeled_speedup"] or 1.0, 2
    )
    benchmark.extra_info["cut"] = result.value


def test_parcut_processes(benchmark, web_largest):
    """Real-parallel wall clock at p=4."""
    name, g = web_largest
    run = make_parallel_variants(4, "processes")[VARIANTS["bqueue"]]

    result = benchmark.pedantic(run, args=(g, 0), rounds=1, iterations=1)
    benchmark.group = "figure5-processes"
    benchmark.extra_info["instance"] = name
    benchmark.extra_info["cut"] = result.value
