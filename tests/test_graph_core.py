"""Tests for the CSR graph, builder, and validation invariants."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.graph import (
    Graph,
    GraphBuilder,
    check_graph,
    from_adjacency,
    from_edges,
    is_valid,
)


def triangle():
    return from_edges(3, [0, 1, 2], [1, 2, 0], [1, 2, 3])


class TestConstruction:
    def test_triangle_shape(self):
        g = triangle()
        assert g.n == 3
        assert g.m == 3
        assert g.num_arcs == 6
        check_graph(g)

    def test_neighbors_sorted(self):
        g = from_edges(4, [0, 0, 0], [3, 1, 2])
        assert list(g.neighbors(0)) == [1, 2, 3]

    def test_weights_aligned(self):
        g = triangle()
        nbrs = list(g.neighbors(0))
        wgts = list(g.weights(0))
        lookup = dict(zip(nbrs, wgts))
        assert lookup == {1: 1, 2: 3}

    def test_parallel_edges_merged(self):
        g = from_edges(2, [0, 1, 0], [1, 0, 1], [2, 3, 4])
        assert g.m == 1
        assert g.edge_weight(0, 1) == 9
        check_graph(g)

    def test_self_loops_dropped(self):
        g = from_edges(3, [0, 1], [0, 2], [5, 1])
        assert g.m == 1
        assert g.edge_weight(1, 2) == 1

    def test_default_unit_weights(self):
        g = from_edges(3, [0, 1], [1, 2])
        assert g.is_unweighted()
        assert g.total_weight() == 2

    def test_empty_graph(self):
        g = from_edges(0, [], [])
        assert g.n == 0
        assert g.m == 0

    def test_isolated_vertices(self):
        g = from_edges(5, [0], [1])
        assert g.degree(4) == 0
        assert g.weighted_degree(4) == 0
        check_graph(g)

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            from_edges(2, [0], [2])
        with pytest.raises(ValueError):
            from_edges(2, [-1], [0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            from_edges(2, [0], [1], [0])
        with pytest.raises(ValueError):
            from_edges(2, [0], [1], [-3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            from_edges(3, [0, 1], [1])

    def test_builder_chaining(self):
        g = GraphBuilder(3).add_edge(0, 1).add_edge(1, 2, 5).build()
        assert g.m == 2
        assert g.edge_weight(1, 2) == 5

    def test_builder_add_edges_mixed_arity(self):
        g = GraphBuilder(4).add_edges([(0, 1), (1, 2, 7), (2, 3)]).build()
        assert g.edge_weight(1, 2) == 7
        assert g.edge_weight(0, 1) == 1

    def test_from_adjacency(self):
        g = from_adjacency({0: {1: 2}, 1: {0: 2, 2: 3}, 2: {1: 3}})
        assert g.n == 3
        assert g.edge_weight(0, 1) == 2
        assert g.edge_weight(1, 2) == 3

    def test_from_adjacency_inconsistent_weight(self):
        with pytest.raises(ValueError):
            from_adjacency({0: {1: 2}, 1: {0: 5}})


class TestQueries:
    def test_degrees(self):
        g = triangle()
        assert list(g.degrees()) == [2, 2, 2]
        assert g.weighted_degree(0) == 4  # edges 0-1 (w1), 0-2 (w3)
        assert g.weighted_degree(1) == 3
        assert g.weighted_degree(2) == 5

    @pytest.mark.parametrize("n, us, vs, ws", [
        (7, [1, 2, 5], [2, 5, 1], [4, 6, 9]),  # 0 leading, 3-4 interior, 6 trailing
        (3, [], [], []),  # edgeless
        (4, [0, 1, 2], [1, 2, 3], [2, 3, 4]),  # no isolated vertex
    ], ids=["isolated", "edgeless", "path"])
    def test_weighted_degrees_with_isolated_vertices(self, n, us, vs, ws):
        g = from_edges(n, us, vs, ws)
        expected = np.zeros(n, dtype=np.int64)
        np.add.at(expected, us, ws)
        np.add.at(expected, vs, ws)
        wdeg = g.weighted_degrees()
        assert wdeg.dtype == np.int64
        assert wdeg.tolist() == expected.tolist()

    def test_min_weighted_degree(self):
        g = triangle()
        v, d = g.min_weighted_degree()
        assert (v, d) == (1, 3)

    def test_total_weight(self):
        assert triangle().total_weight() == 6

    def test_edges_iteration_canonical(self):
        edges = sorted(triangle().edges())
        assert edges == [(0, 1, 1), (0, 2, 3), (1, 2, 2)]

    def test_edge_arrays_roundtrip(self):
        g = triangle()
        us, vs, ws = g.edge_arrays()
        g2 = from_edges(g.n, us, vs, ws)
        assert g == g2

    def test_has_edge(self):
        g = triangle()
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 0)

    def test_edge_weight_absent(self):
        g = from_edges(3, [0], [1])
        assert g.edge_weight(0, 2) == 0

    def test_cut_value_triangle(self):
        g = triangle()
        side = np.array([True, False, False])
        # cut {0} vs {1,2}: edges 0-1 (1) + 0-2 (3)
        assert g.cut_value(side) == 4

    def test_cut_value_requires_mask_length(self):
        with pytest.raises(ValueError):
            triangle().cut_value(np.array([True]))

    def test_arc_sources(self):
        g = from_edges(3, [0, 1], [1, 2])
        src = g.arc_sources()
        assert list(src) == [0, 1, 1, 2]

    def test_copy_independent(self):
        g = triangle()
        h = g.copy()
        h.adjwgt[0] = 99
        assert g.adjwgt[0] != 99


class TestValidation:
    def test_valid_graph_passes(self):
        assert is_valid(triangle())

    def test_asymmetric_rejected(self):
        g = Graph(np.array([0, 1, 1]), np.array([1]), np.array([1]))
        assert not is_valid(g)

    def test_self_loop_rejected(self):
        g = Graph(np.array([0, 2, 2]), np.array([0, 0]), np.array([1, 1]))
        assert not is_valid(g)

    def test_weight_mismatch_rejected(self):
        g = Graph(np.array([0, 1, 2]), np.array([1, 0]), np.array([1, 2]))
        assert not is_valid(g)

    def test_parallel_arcs_rejected(self):
        g = Graph(
            np.array([0, 2, 4]),
            np.array([1, 1, 0, 0]),
            np.array([1, 1, 1, 1]),
        )
        assert not is_valid(g)


@given(
    n=st.integers(min_value=1, max_value=30),
    data=st.data(),
)
def test_property_builder_invariants(n, data):
    """Any edge soup builds into a graph satisfying all CSR invariants,
    with total weight equal to the non-self-loop input weight sum."""
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(1, 100),
            ),
            max_size=120,
        )
    )
    us = [e[0] for e in edges]
    vs = [e[1] for e in edges]
    ws = [e[2] for e in edges]
    g = from_edges(n, us, vs, ws)
    check_graph(g)
    expected_weight = sum(w for u, v, w in edges if u != v)
    assert g.total_weight() == expected_weight
    # weighted degree sum = 2 * total weight
    assert int(g.weighted_degrees().sum()) == 2 * expected_weight
