"""Tests for sequential CAPFOREST: certificates, marking safety, bounds.

The central invariants (paper §2.3, Lemma 3.1):

1. every q(e) is a lower bound on the edge connectivity λ(G, u, v);
2. every marked edge satisfies λ(G, u, v) ≥ λ̂ at its scan (safety);
3. bounding the priority queue changes *which* safe edges are found, never
   marks an unsafe one;
4. every scan cut α is the capacity of a real cut (the scanned prefix).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.capforest import capforest
from repro.generators import connected_gnm
from repro.graph import from_edges

from .conftest import graph_to_nx


def exact_pair_connectivity(g, u, v) -> int:
    import networkx as nx

    return int(nx.maximum_flow_value(graph_to_nx(g), u, v))


class TestBasics:
    def test_empty_graph(self):
        g = from_edges(0, [], [])
        res = capforest(g, 5)
        assert res.n_marked == 0
        assert res.vertices_scanned == 0

    def test_single_vertex(self):
        g = from_edges(1, [], [])
        res = capforest(g, 5, start=0)
        assert res.vertices_scanned == 1
        assert res.n_marked == 0
        # a 1-vertex graph has no proper prefix, so no scan cut
        assert res.min_alpha is None

    def test_two_vertices_marks_edge(self, two_vertices):
        res = capforest(two_vertices, 7, start=0)
        assert res.n_marked == 1
        assert res.uf.same(0, 1)

    def test_scans_every_vertex_connected(self, dumbbell):
        res = capforest(dumbbell, 3, start=0)
        assert res.vertices_scanned == 8
        assert sorted(res.scan_order) == list(range(8))

    def test_each_edge_scanned_once(self, clique6):
        res = capforest(clique6, 5, start=0)
        assert res.edges_scanned == clique6.m

    def test_invalid_lambda_hat(self, triangle):
        with pytest.raises(ValueError):
            capforest(triangle, -1)

    def test_invalid_start(self, triangle):
        with pytest.raises(ValueError):
            capforest(triangle, 3, start=5)

    def test_unbounded_requires_heap(self, triangle):
        with pytest.raises(ValueError):
            capforest(triangle, 3, bounded=False, pq_kind="bstack")

    def test_deterministic_given_start(self, dumbbell):
        r1 = capforest(dumbbell, 3, start=2, pq_kind="bstack")
        r2 = capforest(dumbbell, 3, start=2, pq_kind="bstack")
        assert r1.scan_order == r2.scan_order
        assert r1.n_marked == r2.n_marked


class TestScanCuts:
    def test_alpha_tracks_real_cut(self, dumbbell):
        res = capforest(dumbbell, 7, start=0, pq_kind="heap")
        # the dumbbell's λ=1 bridge cut must be discovered as a scan cut
        assert res.lambda_hat == 1
        mask = res.best_cut_mask(8)
        assert mask is not None
        assert dumbbell.cut_value(mask) == 1

    def test_min_alpha_is_real_cut_value(self, weighted_cycle):
        res = capforest(weighted_cycle, 10, start=0)
        mask = res.best_cut_mask(4)
        if mask is not None:
            assert weighted_cycle.cut_value(mask) == res.min_alpha

    def test_disconnected_restart_records_zero_cut(self, two_triangles_disconnected):
        res = capforest(two_triangles_disconnected, 2, start=0)
        assert res.min_alpha == 0
        assert res.lambda_hat == 0
        assert res.vertices_scanned == 6
        mask = res.best_cut_mask(6)
        assert two_triangles_disconnected.cut_value(mask) == 0

    def test_fixed_bound_does_not_tighten(self, dumbbell):
        res = capforest(dumbbell, 7, start=0, fixed_bound=True)
        assert res.lambda_hat == 7  # untouched
        assert res.min_alpha == 1  # still observed


class TestMarkingSafety:
    """No marked edge may have connectivity below λ̂-at-scan."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unbounded_certificates_are_lower_bounds(self, seed):
        """Classic NOI invariant: with a true maximum-adjacency order
        (unbounded heap), every q(e) lower-bounds λ(G, u, v)."""
        rng = np.random.default_rng(seed)
        g = connected_gnm(14, 25, rng=rng, weights=(1, 6))
        v0, deg0 = g.min_weighted_degree()
        res = capforest(g, deg0, bounded=False, rng=rng, record_certificates=True)
        for u, v, q, lam_at_scan, marked in res.certificates:
            conn = exact_pair_connectivity(g, u, v)
            assert q <= conn, f"certificate q({u},{v})={q} exceeds λ={conn}"
            if marked:
                assert conn >= lam_at_scan

    @pytest.mark.parametrize("pq_kind", ["bstack", "bqueue", "heap"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bounded_certificates_lemma31(self, pq_kind, seed):
        """Lemma 3.1: with clamped priorities, raw q values may exceed the
        true connectivity, but every *marked* edge (q crossed λ̂ from below)
        still has connectivity at least λ̂-at-scan — that is the whole
        content of the lemma, and all the driver relies on."""
        rng = np.random.default_rng(seed)
        g = connected_gnm(14, 25, rng=rng, weights=(1, 6))
        v0, deg0 = g.min_weighted_degree()
        res = capforest(g, deg0, pq_kind=pq_kind, rng=rng, record_certificates=True)
        for u, v, q, lam_at_scan, marked in res.certificates:
            if marked:
                conn = exact_pair_connectivity(g, u, v)
                assert conn >= lam_at_scan, (
                    f"marked edge ({u},{v}) has λ={conn} < λ̂={lam_at_scan}"
                )

    @pytest.mark.parametrize("bounded", [True, False])
    def test_marked_blocks_have_high_connectivity(self, bounded):
        rng = np.random.default_rng(7)
        g = connected_gnm(16, 30, rng=rng, weights=(1, 5))
        _, deg0 = g.min_weighted_degree()
        res = capforest(
            g, deg0, pq_kind="heap", bounded=bounded, rng=rng, record_certificates=True
        )
        # final λ̂ after the scan; every union happened at λ̂ >= this
        lam_final = res.lambda_hat
        labels = res.uf.labels()
        for u, v, q, lam_at_scan, marked in res.certificates:
            if marked:
                assert exact_pair_connectivity(g, u, v) >= lam_final

    def test_contraction_preserves_cuts_below_bound(self):
        """Exhaustive: every cut strictly below λ̂_final survives contraction."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = connected_gnm(10, 16, rng=rng, weights=(1, 4))
            _, deg0 = g.min_weighted_degree()
            res = capforest(g, deg0, rng=rng)
            labels = res.uf.labels()
            n = g.n
            lam = res.lambda_hat
            for subset in range(1, 1 << (n - 1)):
                mask = np.array([(subset >> i) & 1 for i in range(n)], dtype=bool)
                value = g.cut_value(mask)
                if value < lam:
                    # no marked block may straddle this cut
                    for b in range(labels.max() + 1):
                        block = labels == b
                        assert (
                            not (block & mask).any() or not (block & ~mask).any()
                        ), f"block {b} straddles a cut of value {value} < {lam}"


class TestBoundedVsUnbounded:
    def test_bounded_skips_updates_on_hub(self, star):
        # hub r-value reaches 20; bound λ̂=2 skips almost everything
        unb = capforest(star, 2, bounded=False, start=1)
        bnd = capforest(star, 2, bounded=True, pq_kind="heap", start=1)
        assert bnd.pq_stats.skipped_updates >= 0
        assert (
            bnd.pq_stats.updates <= unb.pq_stats.updates
        ), "bounding must not increase queue updates"

    @pytest.mark.parametrize("pq_kind", ["bstack", "bqueue", "heap"])
    def test_bounded_variants_still_make_progress(self, pq_kind, dumbbell):
        res = capforest(dumbbell, 3, pq_kind=pq_kind, start=0)
        assert res.n_marked >= 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), pq=st.sampled_from(["bstack", "bqueue", "heap"]))
def test_property_marks_never_cross_mincut(seed, pq):
    """A marked block never straddles *the* minimum cut when λ̂ > λ is the
    trivial bound — the exact-solver safety property."""
    import networkx as nx

    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 14))
    m = min(max(int(rng.integers(6, 24)), n - 1), n * (n - 1) // 2)
    g = connected_gnm(n, m, rng=rng, weights=(1, 5))
    _, deg0 = g.min_weighted_degree()
    res = capforest(g, deg0, pq_kind=pq, rng=rng)
    lam_true = None
    G = graph_to_nx(g)
    lam_true, (side_a, _) = nx.stoer_wagner(G)
    if res.lambda_hat <= lam_true:
        return  # bound closed to optimal; contracting across the cut is legal
    side = np.zeros(g.n, dtype=bool)
    side[list(side_a)] = True
    labels = res.uf.labels()
    for b in range(labels.max() + 1):
        block = labels == b
        assert not ((block & side).any() and (block & ~side).any())


class TestScanOrderBehaviour:
    """§3.1.3: the pop tie-breaking changes the *scan pattern* — BStack keeps
    revisiting the vertex it just raised (depth-first-ish), BQueue explores
    vertices discovered earliest (breadth-first-ish)."""

    @staticmethod
    def _long_path(k):
        # unit path: every unscanned neighbour enters the top bucket at 1
        return from_edges(k, range(k - 1), range(1, k), [1] * (k - 1))

    def test_bstack_walks_the_path(self):
        g = self._long_path(12)
        res = capforest(g, 1, pq_kind="bstack", start=0)
        # the vertex just inserted is always popped next -> exact path order
        assert res.scan_order == list(range(12))

    def test_bqueue_walks_the_path_too(self):
        # a path from an endpoint leaves only one frontier vertex; both
        # orders agree — the *difference* needs a branching frontier
        g = self._long_path(12)
        res = capforest(g, 1, pq_kind="bqueue", start=0)
        assert res.scan_order == list(range(12))

    def test_orders_diverge_on_star_of_paths(self):
        # hub 0 with three unit paths hanging off: BStack dives down one
        # path; BQueue rotates between the three
        edges = [(0, 1), (0, 2), (0, 3)]
        nxt = 4
        tails = {1: 1, 2: 2, 3: 3}
        for arm in (1, 2, 3):
            cur = arm
            for _ in range(3):
                edges.append((cur, nxt))
                cur = nxt
                nxt += 1
        us, vs = zip(*edges)
        g = from_edges(nxt, us, vs)
        stack_order = capforest(g, 1, pq_kind="bstack", start=0).scan_order
        queue_order = capforest(g, 1, pq_kind="bqueue", start=0).scan_order
        assert stack_order != queue_order
        # BStack: after popping arm vertex 3 (pushed last), it follows that
        # arm to its end before returning
        i = stack_order.index(3)
        assert stack_order[i : i + 2] == [3, stack_order[i + 1]]
        # BQueue: the first three non-hub pops are the three arm heads in
        # insertion order
        assert queue_order[1:4] == [1, 2, 3]

    def test_all_variants_same_marks_on_uniform_cycle(self):
        # fully symmetric instance: mark COUNT must agree across queues
        g = from_edges(8, range(8), [(i + 1) % 8 for i in range(8)])
        counts = {
            pq: capforest(g, 2, pq_kind=pq, start=0).n_marked
            for pq in ("bstack", "bqueue", "heap")
        }
        assert len(set(counts.values())) == 1


class TestBoundEdgeCases:
    def test_bound_zero(self, dumbbell):
        res = capforest(dumbbell, 0, pq_kind="bstack", start=0)
        assert res.n_marked == 0  # nothing can be certified at bound 0
        assert res.vertices_scanned == 8  # scan still covers the graph

    def test_huge_bound_falls_back_to_heap(self, dumbbell):
        from repro.core.capforest import MAX_BUCKET_BOUND

        res = capforest(dumbbell, MAX_BUCKET_BOUND + 5, pq_kind="bstack", start=0)
        # correctness unaffected; the λ=1 scan cut is still found
        assert res.lambda_hat == 1

    def test_weighted_q_accumulates_across_edges(self):
        # triangle with weights 2,3,4: scanning from 0 sets r correctly
        g = from_edges(3, [0, 0, 1], [1, 2, 2], [2, 4, 3])
        res = capforest(g, 100, bounded=False, start=0, record_certificates=True)
        qs = {(min(u, v), max(u, v)): q for u, v, q, _, _ in res.certificates}
        # from 0: q(0,1)=2, q(0,2)=4; vertex 2 popped next (r=4): q(2,1)=2+3=5
        assert qs[(0, 1)] == 2
        assert qs[(0, 2)] == 4
        assert qs[(1, 2)] == 5

    def test_certificates_off_by_default(self, dumbbell):
        res = capforest(dumbbell, 3, start=0)
        assert res.certificates == []
