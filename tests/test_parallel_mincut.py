"""Tests for ParCut (Algorithm 2): exactness across executors and configs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.hao_orlin import hao_orlin
from repro.core.capforest import MAX_BUCKET_BOUND, MIN_BATCH
from repro.core import mincut
from repro.core.mincut import parallel_mincut
from repro.generators import chung_lu, connected_gnm, rhg
from repro.graph import from_edges, largest_component
from repro.observability import Tracer
from repro.runtime import NoProgressError

from .conftest import clamp_bucket_graph, discard_marks, oracle_mincut


class TestCanonical:
    @pytest.mark.parametrize("pq", ["bstack", "bqueue", "heap"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_dumbbell(self, dumbbell, pq, workers):
        res = parallel_mincut(dumbbell, workers=workers, pq_kind=pq, rng=0)
        assert res.value == 1
        assert res.verify(dumbbell)

    def test_weighted_cycle(self, weighted_cycle):
        res = parallel_mincut(weighted_cycle, workers=2, rng=0)
        assert res.value == 2
        assert res.verify(weighted_cycle)

    def test_two_vertices(self, two_vertices):
        res = parallel_mincut(two_vertices, workers=2, rng=0)
        assert res.value == 7

    def test_disconnected(self, two_triangles_disconnected):
        res = parallel_mincut(two_triangles_disconnected, rng=0)
        assert res.value == 0
        assert res.verify(two_triangles_disconnected)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            parallel_mincut(from_edges(1, [], []))


class TestConfigurations:
    def test_no_viecut_seed(self, dumbbell):
        res = parallel_mincut(dumbbell, use_viecut=False, rng=0)
        assert res.value == 1
        assert res.stats["viecut_value"] is None
        assert res.algorithm.endswith("-noseed")

    def test_viecut_seed_recorded(self):
        # the seed runs after round 1, which keeps about 200 of these 256
        # vertices, more than viecut.SMALL_THRESHOLD
        g = rhg(256, 32, rng=1)
        res = parallel_mincut(g, use_viecut=True, rng=0)
        assert res.stats["viecut_value"] is not None
        assert res.stats["viecut_value"] >= res.value

    def test_stats_work_model(self):
        rng = np.random.default_rng(2)
        g = connected_gnm(60, 150, rng=rng)
        res = parallel_mincut(g, workers=4, use_viecut=False, rng=3)
        if res.stats["makespan_work"] > 0:
            assert res.stats["modeled_speedup"] >= 1.0
            assert res.stats["total_work"] >= res.stats["makespan_work"]

    def test_compute_side_false(self, dumbbell):
        res = parallel_mincut(dumbbell, rng=0, compute_side=False)
        assert res.side is None
        assert res.value == 1

    def test_reproducible(self, dumbbell):
        r1 = parallel_mincut(dumbbell, workers=3, rng=5)
        r2 = parallel_mincut(dumbbell, workers=3, rng=5)
        assert r1.value == r2.value


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    workers=st.integers(1, 4),
    pq=st.sampled_from(["bstack", "bqueue", "heap"]),
    use_viecut=st.booleans(),
)
def test_property_matches_oracle_serial(seed, workers, pq, use_viecut):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 24))
    m = min(int(rng.integers(n - 1, 3 * n)), n * (n - 1) // 2)
    g = connected_gnm(n, m, rng=rng, weights=(1, 8))
    res = parallel_mincut(
        g, workers=workers, pq_kind=pq, use_viecut=use_viecut, executor="serial", rng=rng
    )
    assert res.value == oracle_mincut(g)
    assert res.verify(g)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_matches_oracle_processes(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    m = min(int(rng.integers(n, 4 * n)), n * (n - 1) // 2)
    g = connected_gnm(n, m, rng=rng, weights=(1, 6))
    res = parallel_mincut(g, workers=3, executor="processes", rng=rng)
    assert res.value == oracle_mincut(g)
    assert res.verify(g)


def test_processes_executor_exact():
    rng = np.random.default_rng(31)
    for _ in range(3):
        g = connected_gnm(50, 120, rng=rng, weights=(1, 5))
        res = parallel_mincut(g, workers=3, executor="processes", rng=rng)
        assert res.value == oracle_mincut(g)
        assert res.verify(g)


def test_viecut_seed_does_not_depend_on_executor():
    """Every executor seeds λ̂ with the same synchronous label propagation,
    so one rng gives one VieCut clustering and one seed value.  Algorithm
    2's order (Figure 5's) seeds the input graph, which no executor has
    touched yet; seeded after round 1, VieCut would see a graph that the
    executor's pass contracted, and on this graph never runs."""
    g, _ = largest_component(chung_lu(600, 12, gamma=2.5, communities=6, mu=0.7, rng=2))
    truth = hao_orlin(g).value
    seeds = {}
    for executor in ("serial", "processes"):
        tracer = Tracer()
        res = parallel_mincut(g, workers=2, executor=executor, rng=5, tracer=tracer,
                              _seed_first=True)
        levels = [(ev["n_before"], ev["n_after"]) for ev in tracer.events("viecut_level")]
        seeds[executor] = (levels, res.stats["viecut_value"])
        assert levels and res.stats["viecut_value"] is not None  # VieCut ran
        assert res.value == truth
    assert seeds["processes"] == seeds["serial"]


def _with_pendant(g, weight=1):
    """``g`` plus one leaf hung on vertex 0: λ = min(weight, λ(g))."""
    us, vs, ws = g.edge_arrays()
    return from_edges(g.n + 1, np.r_[us, 0], np.r_[vs, g.n], np.r_[ws, weight])


class TestDrainExactness:
    """``processes`` workers drain at-the-clamp BQueue buckets; every answer
    stays exact (Hao–Orlin, a flow-based oracle) with a valid side."""

    @pytest.mark.parametrize("members", [MIN_BATCH - 1, MIN_BATCH])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_first_clamp_bucket_around_min_batch(self, members, workers):
        g = clamp_bucket_graph(members)
        tracer = Tracer()
        res = parallel_mincut(g, workers=workers, executor="processes", rng=members,
                              tracer=tracer)
        assert res.value == hao_orlin(g).value == 1
        assert res.verify(g)
        assert res.stats["worker_events"] == []  # no worker crashed in a drain
        assert {ev["kernel"] for ev in tracer.events("parallel_pass")} == {"vector"}

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 100_000), workers=st.integers(2, 3))
    def test_property_drain_heavy_graphs(self, seed, workers):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(60, 200))
        g = connected_gnm(n, int(rng.integers(2 * n, 5 * n)), rng=rng, weights=(1, 3))
        if rng.integers(2):
            g = _with_pendant(g, weight=int(rng.integers(1, 3)))
        res = parallel_mincut(g, workers=workers, executor="processes", rng=rng)
        assert res.value == hao_orlin(g).value
        assert res.verify(g)
        assert res.stats["worker_events"] == []

    def test_power_law_graph(self):
        g, _ = largest_component(chung_lu(700, 8, gamma=2.3, communities=5, mu=0.4, rng=11))
        res = parallel_mincut(g, workers=2, executor="processes", rng=3)
        assert res.value == hao_orlin(g).value
        assert res.verify(g)
        assert res.stats["worker_events"] == []


class TestNoDrainPaths:
    """The configurations whose workers never drain answer the same."""

    @pytest.mark.parametrize("case", ["bstack", "heap", "above-bucket-bound"])
    def test_same_answer_without_drains(self, case):
        weight = MAX_BUCKET_BOUND + 1 if case == "above-bucket-bound" else 1
        g = clamp_bucket_graph(MIN_BATCH, weight=weight)
        pq = "bqueue" if case == "above-bucket-bound" else case
        tracer = Tracer()
        res = parallel_mincut(g, workers=2, pq_kind=pq, executor="processes", rng=0,
                              tracer=tracer)
        assert res.value == hao_orlin(g).value == weight
        assert res.verify(g)
        passes = tracer.events("parallel_pass")
        assert passes and all(ev["kernel"] == "scalar" and ev["drained"] == 0
                              for ev in passes)


def test_discarded_passes_raise_no_progress(monkeypatch):
    """With the marks of both the parallel pass and the sequential fallback
    discarded, a round leaves the graph as it was and the watchdog raises."""
    calls = discard_marks(monkeypatch, mincut, "parallel_capforest", "capforest")
    g = connected_gnm(40, 100, rng=np.random.default_rng(6), weights=(1, 4))
    with pytest.raises(NoProgressError, match="round 1 left the graph at 40 vertices"):
        parallel_mincut(g, workers=2, executor="serial", use_viecut=False, rng=0)
    assert calls == ["parallel_capforest", "capforest"]
