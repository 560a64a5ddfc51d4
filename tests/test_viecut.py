"""Tests for the VieCut stack: label propagation, PR tests, multilevel driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generators import connected_gnm
from repro.graph import from_edges
from repro.viecut import (
    cluster_labels,
    pr12_marks,
    pr34_marks,
    viecut,
)

from .conftest import graph_to_nx, oracle_mincut


class TestLabelPropagation:
    def test_dumbbell_clusters_align_with_blobs(self, dumbbell):
        labels = cluster_labels(dumbbell, iterations=3, rng=0)
        # the two K4s are far denser than the bridge; LP must not merge them
        left = {labels[i] for i in range(4)}
        right = {labels[i] for i in range(4, 8)}
        assert len(left) == 1
        assert len(right) == 1
        assert left != right

    def test_labels_dense(self):
        rng = np.random.default_rng(1)
        g = connected_gnm(30, 60, rng=rng)
        labels = cluster_labels(g, rng=2)
        nc = labels.max() + 1
        assert set(labels.tolist()) == set(range(nc))

    def test_clusters_are_connected(self):
        """Every cluster must induce a connected subgraph (contractability)."""
        from repro.graph.components import connected_components_bfs, induced_subgraph

        rng = np.random.default_rng(5)
        for _ in range(5):
            g = connected_gnm(25, 45, rng=rng)
            labels = cluster_labels(g, rng=rng)
            for c in range(labels.max() + 1):
                members = np.flatnonzero(labels == c)
                sub, _ = induced_subgraph(g, members)
                ncomp, _ = connected_components_bfs(sub)
                assert ncomp == 1, f"cluster {c} is disconnected"

    def test_zero_iterations_identity(self, dumbbell):
        labels = cluster_labels(dumbbell, iterations=0, rng=0)
        assert labels.max() + 1 == dumbbell.n

    def test_negative_iterations_rejected(self, dumbbell):
        with pytest.raises(ValueError):
            cluster_labels(dumbbell, iterations=-1)

    def test_isolated_vertex_keeps_own_label(self):
        g = from_edges(3, [0], [1])
        labels = cluster_labels(g, iterations=2, rng=0)
        assert labels[2] not in (labels[0], labels[1])


class TestPadbergRinaldi:
    def test_pr1_marks_heavy_edge(self):
        # edge of weight >= λ̂ is unconditionally contractible
        g = from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], [10, 1, 10, 1])
        uf = pr12_marks(g, 3)
        assert uf.same(0, 1)
        assert uf.same(2, 3)
        assert not uf.same(1, 2)

    def test_pr2_half_degree(self):
        # path a-b with w=5 and b-c with w=1: 2*5 >= c(a)=5 -> contract (a,b)
        g = from_edges(3, [0, 1], [1, 2], [5, 1])
        uf = pr12_marks(g, 100)
        assert uf.same(0, 1)

    def test_pr34_triangle(self):
        # heavy triangle hanging off a light path: PR3 fires inside it
        g = from_edges(
            5, [0, 1, 2, 0, 3], [1, 2, 0, 3, 4], [10, 10, 10, 1, 1]
        )
        uf = pr34_marks(g, 100, work_budget=10_000)
        assert uf.same(0, 1) and uf.same(1, 2)
        assert not uf.same(0, 3)

    def test_pr4_star_certificate(self):
        # u,v joined (w=2) plus 3 common neighbours (w=2 each):
        # 2 + 3*2 = 8 >= λ̂=8 -> contract
        us = [0, 0, 0, 0, 1, 1, 1]
        vs = [1, 2, 3, 4, 2, 3, 4]
        ws = [2, 2, 2, 2, 2, 2, 2]
        g = from_edges(5, us, vs, ws)
        uf = pr34_marks(g, 8, work_budget=10_000)
        assert uf.same(0, 1)

    def test_pr_marks_never_above_connectivity(self):
        """PR1/PR4 unions certify λ(u,v) >= λ̂ in the input graph."""
        import networkx as nx

        rng = np.random.default_rng(3)
        g = connected_gnm(12, 26, rng=rng, weights=(1, 6))
        lam_hat = int(g.weighted_degrees().min())
        uf = pr12_marks(g, lam_hat)
        # PR1-only check: every weight->=λ̂ edge's endpoints have conn >= λ̂
        G = graph_to_nx(g)
        us, vs, ws = g.edge_arrays()
        for u, v, w in zip(us.tolist(), vs.tolist(), ws.tolist()):
            if w >= lam_hat:
                assert nx.maximum_flow_value(G, u, v) >= lam_hat

    def test_budget_limits_work(self):
        rng = np.random.default_rng(4)
        g = connected_gnm(40, 120, rng=rng)
        # zero budget: no PR3/4 marks at all
        uf = pr34_marks(g, 1_000_000, work_budget=0)
        assert uf.count == g.n


class TestVieCut:
    def test_returns_real_cut(self, dumbbell):
        res = viecut(dumbbell, rng=0)
        assert res.verify(dumbbell)
        assert res.value >= 1

    def test_finds_planted_cut(self, dumbbell):
        res = viecut(dumbbell, rng=0)
        assert res.value == 1  # LP contracts the K4s, exposing the bridge

    def test_two_vertices(self, two_vertices):
        res = viecut(two_vertices, rng=0)
        assert res.value == 7

    def test_disconnected(self, two_triangles_disconnected):
        res = viecut(two_triangles_disconnected, rng=0)
        assert res.value == 0

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            viecut(from_edges(1, [], []))

    def test_stats(self, dumbbell):
        res = viecut(dumbbell, rng=0)
        assert "levels" in res.stats
        assert "final_exact_n" in res.stats

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_property_upper_bound_and_certified(self, seed):
        """VieCut's value is always >= λ and always a real cut's capacity."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        m = min(int(rng.integers(n - 1, 3 * n)), n * (n - 1) // 2)
        g = connected_gnm(n, m, rng=rng, weights=(1, 8))
        res = viecut(g, rng=rng)
        assert res.verify(g)
        assert res.value >= oracle_mincut(g)

    def test_usually_exact(self):
        """Statistically: VieCut finds the exact cut on a large majority of
        random instances (the paper's empirical claim)."""
        rng = np.random.default_rng(9)
        hits = total = 0
        for _ in range(30):
            n = int(rng.integers(8, 40))
            m = min(int(rng.integers(2 * n, 4 * n)), n * (n - 1) // 2)
            g = connected_gnm(n, m, rng=rng, weights=(1, 6))
            total += 1
            hits += viecut(g, rng=rng).value == oracle_mincut(g)
        assert hits / total >= 0.8, f"VieCut exact on only {hits}/{total}"
