"""Edge-case tests for the graph layer that the main suites skim over."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generators import gnm
from repro.graph import (
    Graph,
    check_graph,
    from_edges,
    induced_subgraph,
    largest_component,
)


class TestExtremes:
    def test_single_edge_maximal_weight(self):
        w = (1 << 62) - 1
        g = from_edges(2, [0], [1], [w])
        assert g.total_weight() == w
        assert g.weighted_degree(0) == w
        check_graph(g)

    def test_many_parallel_edges_aggregate(self):
        k = 500
        g = from_edges(2, [0] * k, [1] * k, list(range(1, k + 1)))
        assert g.m == 1
        assert g.edge_weight(0, 1) == k * (k + 1) // 2

    def test_all_self_loops(self):
        g = from_edges(3, [0, 1, 2], [0, 1, 2], [5, 5, 5])
        assert g.m == 0
        assert g.total_weight() == 0

    def test_star_center_adjacency_sorted(self):
        g = from_edges(6, [0] * 5, [5, 3, 1, 4, 2])
        assert list(g.neighbors(0)) == [1, 2, 3, 4, 5]

    def test_arc_sources_empty_graph(self):
        g = from_edges(3, [], [])
        assert len(g.arc_sources()) == 0

    def test_cut_value_full_graph_zero_crossing(self):
        g = from_edges(4, [0, 1, 2], [1, 2, 3])
        # cut with a single crossing at either end
        side = np.array([True, True, True, False])
        assert g.cut_value(side) == 1

    def test_eq_and_copy_semantics(self):
        g = from_edges(3, [0, 1], [1, 2], [2, 3])
        h = g.copy()
        assert g == h
        assert g != from_edges(3, [0, 1], [1, 2], [2, 4])
        assert not (g == "not a graph")

    def test_repr(self):
        g = from_edges(3, [0], [1], [5])
        assert "n=3" in repr(g) and "m=1" in repr(g)


class TestConstructorValidation:
    def test_xadj_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Graph(np.array([], dtype=np.int64), np.array([]), np.array([]))

    def test_arc_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 1]), np.array([0]), np.array([1, 2]))

    def test_xadj_tail_mismatch(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 3]), np.array([0]), np.array([1]))


class TestInducedSubgraph:
    def test_duplicate_ids_deduplicated(self, dumbbell):
        sub, ids = induced_subgraph(dumbbell, np.array([0, 1, 1, 0, 2]))
        assert sub.n == 3
        assert sorted(ids.tolist()) == [0, 1, 2]

    def test_empty_selection(self, dumbbell):
        sub, ids = induced_subgraph(dumbbell, np.array([], dtype=np.int64))
        assert sub.n == 0

    def test_whole_graph_identity(self, dumbbell):
        sub, ids = induced_subgraph(dumbbell, np.arange(8))
        assert sub == dumbbell

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_subgraph_edges_are_original(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        m = min(int(rng.integers(0, 3 * n)), n * (n - 1) // 2)
        g = gnm(n, m, rng=rng, weights=(1, 9))
        keep = rng.choice(n, size=max(1, n // 2), replace=False)
        sub, ids = induced_subgraph(g, keep)
        check_graph(sub)
        for u, v, w in zip(*sub.edge_arrays()):
            assert g.edge_weight(int(ids[u]), int(ids[v])) == w


class TestLargestComponent:
    def test_tie_breaking_deterministic(self):
        # two equal components: must deterministically pick one
        g = from_edges(6, [0, 1, 3, 4], [1, 2, 4, 5])
        a, ids_a = largest_component(g)
        b, ids_b = largest_component(g)
        assert np.array_equal(ids_a, ids_b)
        assert a.n == 3

    def test_isolated_vertex_component(self):
        g = from_edges(4, [0], [1])
        comp, ids = largest_component(g)
        assert comp.n == 2
        assert sorted(ids.tolist()) == [0, 1]

    def test_connected_graph_identity(self, dumbbell):
        comp, ids = largest_component(dumbbell)
        assert comp == dumbbell
        assert np.array_equal(ids, np.arange(8))


class TestSortedInvariant:
    def test_builder_output_sorted(self):
        rng = np.random.default_rng(3)
        g = gnm(40, 200, rng=rng, weights=(1, 6))
        check_graph(g, require_sorted=True)

    def test_contraction_output_sorted(self, dumbbell):
        from repro.graph import contract_by_labels

        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        gc, _ = contract_by_labels(dumbbell, labels)
        check_graph(gc, require_sorted=True)

    def test_unsorted_rejected_when_required(self):
        # valid symmetric triangle arcs, but slice of vertex 0 reversed
        g = Graph(
            np.array([0, 2, 4, 6]),
            np.array([2, 1, 0, 2, 0, 1]),
            np.array([1, 1, 1, 1, 1, 1]),
        )
        check_graph(g)  # fine without the strict flag
        import pytest as _pytest

        with _pytest.raises(Exception):
            check_graph(g, require_sorted=True)
