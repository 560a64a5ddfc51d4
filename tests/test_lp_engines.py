"""Tests for the synchronous label-propagation engine that VieCut runs."""

import numpy as np
import pytest

from repro.generators import chung_lu, connected_gnm
from repro.viecut import cluster_labels
from repro.viecut.label_propagation import propagate_labels_sync


class TestSyncEngine:
    def test_zero_iterations_identity(self, dumbbell):
        labels = propagate_labels_sync(dumbbell, iterations=0, rng=0)
        assert labels.tolist() == list(range(8))

    def test_empty_graph(self):
        from repro.graph import from_edges

        labels = propagate_labels_sync(from_edges(0, [], []), rng=0)
        assert len(labels) == 0

    def test_negative_iterations_rejected(self, dumbbell):
        with pytest.raises(ValueError):
            propagate_labels_sync(dumbbell, iterations=-1)

    def test_dumbbell_blobs_separate(self, dumbbell):
        labels = cluster_labels(dumbbell, iterations=3, rng=0)
        left = {labels[i] for i in range(4)}
        right = {labels[i] for i in range(4, 8)}
        assert len(left) == 1 and len(right) == 1 and left != right

    def test_stability_tiebreak_keeps_label(self):
        """On a single edge both endpoints see equal gain for either label;
        the stability tie-break must keep their own labels (no oscillation)."""
        from repro.graph import from_edges

        g = from_edges(2, [0], [1])
        labels = propagate_labels_sync(g, iterations=5, rng=0)
        # vertex 1 adopts vertex 0's smaller... either converged state or
        # original labels is fine, but it must be a fixpoint, not a flip:
        again = propagate_labels_sync(g, iterations=6, rng=0)
        assert labels.tolist() == again.tolist()

    def test_heavier_label_wins(self):
        # vertex 2 sees label(0) via weight 5 and label(1) via weight 1
        from repro.graph import from_edges

        g = from_edges(3, [0, 1], [2, 2], [5, 1])
        labels = propagate_labels_sync(g, iterations=1, rng=0)
        assert labels[2] == 0

    def test_isolated_vertices_unchanged(self):
        from repro.graph import from_edges

        g = from_edges(4, [0], [1])
        labels = propagate_labels_sync(g, iterations=3, rng=0)
        assert labels[2] == 2 and labels[3] == 3


class TestEngineAgreement:
    """Cluster structure, not exact labels: community graphs coarsen and
    every cluster is connected (the ids name the engine, one since the
    asynchronous scan was retired)."""

    @pytest.mark.parametrize("method", ["sync"])
    def test_community_graph_coarsens(self, method):
        g = chung_lu(600, 14, gamma=2.5, communities=6, mu=0.8, rng=2)
        labels = cluster_labels(g, iterations=3, rng=0)
        nc = labels.max() + 1
        assert 2 <= nc <= g.n // 3, f"{method}: {nc} clusters"

    @pytest.mark.parametrize("method", ["sync"])
    def test_clusters_connected(self, method):
        from repro.graph.components import connected_components_bfs, induced_subgraph

        rng = np.random.default_rng(4)
        g = connected_gnm(40, 90, rng=rng)
        labels = cluster_labels(g, iterations=2, rng=1)
        for c in range(labels.max() + 1):
            sub, _ = induced_subgraph(g, np.flatnonzero(labels == c))
            ncomp, _ = connected_components_bfs(sub)
            assert ncomp == 1
