"""Tests for the NOI exact minimum-cut driver (all paper variants)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.noi import noi_mincut
from repro.generators import connected_gnm, gnm
from repro.graph import from_edges
from repro.observability import Tracer

from .conftest import oracle_mincut

VARIANTS = [
    dict(pq_kind="heap", bounded=True),
    dict(pq_kind="bstack", bounded=True),
    dict(pq_kind="bqueue", bounded=True),
    dict(pq_kind="heap", bounded=False),
]


class TestCanonicalGraphs:
    @pytest.mark.parametrize("kw", VARIANTS)
    def test_dumbbell(self, dumbbell, kw):
        res = noi_mincut(dumbbell, rng=0, **kw)
        assert res.value == 1
        assert res.verify(dumbbell)
        assert sorted(res.partition()[0]) in ([0, 1, 2, 3], [4, 5, 6, 7])

    @pytest.mark.parametrize("kw", VARIANTS)
    def test_weighted_cycle(self, weighted_cycle, kw):
        res = noi_mincut(weighted_cycle, rng=0, **kw)
        assert res.value == 2
        assert res.verify(weighted_cycle)

    @pytest.mark.parametrize("kw", VARIANTS)
    def test_star(self, star, kw):
        res = noi_mincut(star, rng=0, **kw)
        assert res.value == 2
        assert res.verify(star)

    @pytest.mark.parametrize("kw", VARIANTS)
    def test_clique(self, clique6, kw):
        res = noi_mincut(clique6, rng=0, **kw)
        assert res.value == 5
        assert res.verify(clique6)

    @pytest.mark.parametrize("kw", VARIANTS)
    def test_path(self, path4, kw):
        res = noi_mincut(path4, rng=0, **kw)
        assert res.value == 1
        assert res.verify(path4)

    def test_two_vertices(self, two_vertices):
        res = noi_mincut(two_vertices, rng=0)
        assert res.value == 7
        assert res.verify(two_vertices)

    def test_disconnected_returns_zero(self, two_triangles_disconnected):
        res = noi_mincut(two_triangles_disconnected, rng=0)
        assert res.value == 0
        assert res.verify(two_triangles_disconnected)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            noi_mincut(from_edges(1, [], []))

    def test_parallel_input_edges_merge(self):
        g = from_edges(3, [0, 0, 1, 1], [1, 1, 2, 2], [1, 1, 1, 2])
        res = noi_mincut(g, rng=0)
        assert res.value == 2
        assert res.verify(g)


class TestSeeding:
    def test_initial_bound_preserves_exactness(self, dumbbell):
        # any valid upper bound keeps the solver exact
        for bound in (1, 2, 5, 13):
            side = np.zeros(8, dtype=bool)
            side[:4] = True  # the real λ=1 side (valid for bound>=1)
            res = noi_mincut(dumbbell, initial_bound=bound, initial_side=side, rng=0)
            assert res.value == 1

    def test_tight_bound_uses_given_side(self, dumbbell):
        side = np.zeros(8, dtype=bool)
        side[:4] = True
        res = noi_mincut(dumbbell, initial_bound=1, initial_side=side, rng=0)
        assert res.value == 1
        assert res.verify(dumbbell)

    def test_negative_bound_rejected(self, dumbbell):
        with pytest.raises(ValueError):
            noi_mincut(dumbbell, initial_bound=-1)


class TestOutputs:
    def test_compute_side_false(self, dumbbell):
        res = noi_mincut(dumbbell, rng=0, compute_side=False)
        assert res.side is None
        assert res.value == 1
        with pytest.raises(ValueError):
            res.partition()

    def test_stats_populated(self, dumbbell):
        res = noi_mincut(dumbbell, rng=0)
        assert res.stats["rounds"] >= 1
        assert res.stats["pq_pops"] > 0
        assert res.stats["edges_scanned"] > 0

    def test_algorithm_names(self, dumbbell):
        assert noi_mincut(dumbbell, rng=0).algorithm == "noi-lambda-bqueue"
        assert noi_mincut(dumbbell, rng=0, bounded=False).algorithm == "noi-hnss"
        assert (
            noi_mincut(dumbbell, rng=0, pq_kind="bstack").algorithm == "noi-lambda-bstack"
        )
        assert (
            noi_mincut(dumbbell, rng=0, initial_bound=2).algorithm
            == "noi-lambda-bqueue-viecut"
        )

    def test_rng_seed_reproducible(self, dumbbell):
        r1 = noi_mincut(dumbbell, rng=42)
        r2 = noi_mincut(dumbbell, rng=42)
        assert r1.value == r2.value
        assert np.array_equal(r1.side, r2.side)


class TestStructuredFamilies:
    def test_cycle_of_cliques(self):
        """Ring of 4 K5s connected by single edges: λ = 2 (two ring edges)."""
        edges = []
        for c in range(4):
            base = 5 * c
            for i in range(5):
                for j in range(i + 1, 5):
                    edges.append((base + i, base + j))
            edges.append((base + 4, (base + 5) % 20))
        us, vs = zip(*edges)
        g = from_edges(20, us, vs)
        res = noi_mincut(g, rng=0)
        assert res.value == 2
        assert res.verify(g)

    def test_grid_graph(self):
        """5x5 grid: λ = 2 (corner)."""
        def vid(i, j):
            return 5 * i + j

        us, vs = [], []
        for i in range(5):
            for j in range(5):
                if i + 1 < 5:
                    us.append(vid(i, j)); vs.append(vid(i + 1, j))
                if j + 1 < 5:
                    us.append(vid(i, j)); vs.append(vid(i, j + 1))
        g = from_edges(25, us, vs)
        res = noi_mincut(g, rng=1)
        assert res.value == 2
        assert res.verify(g)

    def test_heavy_bridge_light_blob(self):
        """Bridge weight below clique connectivity but above a leaf edge."""
        # K4 (unit) -- w=2 bridge -- K4 (unit), plus a pendant leaf w=1
        edges = []
        for base in (0, 4):
            for i in range(4):
                for j in range(i + 1, 4):
                    edges.append((base + i, base + j, 1))
        edges.append((3, 4, 2))
        edges.append((0, 8, 1))  # pendant vertex 8
        us, vs, ws = zip(*edges)
        g = from_edges(9, us, vs, ws)
        res = noi_mincut(g, rng=0)
        assert res.value == 1
        side_small = min(res.partition(), key=len)
        assert side_small == [8]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_k_edge_connected_circulant(self, k):
        """Circulant C(12; 1..k) is 2k-edge-connected: λ = 2k."""
        n = 12
        us, vs = [], []
        for v in range(n):
            for d in range(1, k + 1):
                us.append(v)
                vs.append((v + d) % n)
        g = from_edges(n, us, vs)
        res = noi_mincut(g, rng=0)
        assert res.value == 2 * k
        assert res.verify(g)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    variant=st.sampled_from(range(len(VARIANTS))),
    weighted=st.booleans(),
)
def test_property_matches_oracle(seed, variant, weighted):
    """NOI agrees with networkx Stoer–Wagner on random connected graphs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 22))
    m = min(int(rng.integers(n - 1, 3 * n)), n * (n - 1) // 2)
    g = connected_gnm(n, m, rng=rng, weights=(1, 9) if weighted else None)
    res = noi_mincut(g, rng=rng, **VARIANTS[variant])
    assert res.value == oracle_mincut(g)
    assert res.verify(g)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_property_disconnected_graphs(seed):
    """Possibly-disconnected G(n, m): NOI reports 0 with a certified side."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    m = min(int(rng.integers(0, n)), n * (n - 1) // 2)
    g = gnm(n, m, rng=rng)
    from repro.graph import is_connected

    res = noi_mincut(g, rng=rng)
    if not is_connected(g):
        assert res.value == 0
        assert res.verify(g)
    else:
        assert res.value == oracle_mincut(g)


class TestRoundEvents:
    def test_round_events_record_rounds(self):
        rng = np.random.default_rng(4)
        g = connected_gnm(80, 240, rng=rng, weights=(1, 5))
        tracer = Tracer()
        res = noi_mincut(g, rng=0, tracer=tracer)
        starts, ends = tracer.events("round_start"), tracer.events("round_end")
        assert len(starts) == len(ends) == res.stats["rounds"]
        for start, end in zip(starts, ends):
            assert start["n"] >= 2
            assert end["lambda_hat"] <= start["lambda_hat"]
            assert end["n_after"] < end["n_before"] == start["n"]

    def test_round_log_is_retired(self, dumbbell):
        res = noi_mincut(dumbbell, rng=0)
        assert "trace" not in res.stats
        with pytest.raises(TypeError, match="unexpected keyword argument 'trace'"):
            noi_mincut(dumbbell, rng=0, trace=True)

    def test_contraction_ratios_shrink_n(self):
        rng = np.random.default_rng(5)
        g = connected_gnm(120, 300, rng=rng)
        res = noi_mincut(g, rng=1)
        ratios = res.stats["contraction_ratios"]
        assert len(ratios) == res.stats["rounds"]
        assert all(0 < r < 1 for r in ratios)
