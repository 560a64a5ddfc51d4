"""Weighted label propagation clustering (Raghavan et al.), as used by VieCut.

VieCut (paper §2.4) finds clusters with strong intra-cluster connectivity
and contracts them, betting that the minimum cut does not split a cluster.
Label propagation: every vertex starts in its own cluster, and in each of
a small fixed number of rounds every vertex adopts the label with the
largest total incident edge weight among its neighbours.

:func:`propagate_labels_sync` is the one engine, on every executor.  Each
round updates two complementary random halves of the vertices in turn,
and each half-round reads only labels fixed before it starts, so it is
the paper's shared-memory parallel label propagation without the races:
the same clustering for a given seed, whatever the executor.

Cluster contraction must only merge *connected* vertex sets, so
:func:`cluster_labels` finalizes by unioning the endpoints of every edge
whose endpoints share a label — any same-label vertices that are not
actually connected through their label class stay separate.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph


def propagate_labels_sync(
    graph: Graph,
    *,
    iterations: int = 2,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Synchronous (Jacobi-style) label propagation, fully vectorized.

    Each round, every vertex simultaneously adopts the label with the
    largest incident weight *as of the previous round*.  There is no
    per-vertex Python loop: a sort groups the arcs by ``(tail,
    head-label)`` and one ``np.maximum.reduceat`` per tail picks each
    vertex's winner — O(m log m) in numpy.

    Fully synchronous updates oscillate on symmetric structures (two
    vertices adopting each other's labels forever), so each round applies
    the computed updates to two complementary *random halves* of the
    vertices in turn — the standard semi-synchronous symmetry breaker —
    and a half-update groups only the arcs of the vertices it updates.
    Ties break toward the currently held label, then toward the largest
    label.  A round that changes no label ends the propagation early.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    n = graph.n
    labels = np.arange(n, dtype=np.int64)
    if n == 0 or graph.num_arcs == 0 or iterations == 0:
        return labels
    src = graph.arc_sources()
    dst = graph.adjncy
    wgt = graph.adjwgt

    for _ in range(iterations):
        changed = False
        half = rng.random(n) < 0.5
        for active in (half, ~half):  # two complementary half-updates
            arcs = active[src]
            if not arcs.any():
                continue
            upd_src, upd_label = _winners(src[arcs], dst[arcs], wgt[arcs], labels, n)
            if (upd_label != labels[upd_src]).any():
                changed = True
                labels[upd_src] = upd_label
        if not changed:
            break
    return labels


def _winners(
    src: np.ndarray, dst: np.ndarray, wgt: np.ndarray, labels: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each source's heaviest neighbour label over the arcs ``src -> dst``.

    ``src`` must be non-decreasing.  The own label wins a tie; otherwise
    the largest of the tied labels wins.
    """
    # group arcs by (src, label[dst]) and sum weights per group
    keys = src * np.int64(n) + labels[dst]
    order = np.argsort(keys)
    k_sorted = keys[order]
    starts = _run_starts(k_sorted)
    gains = np.add.reduceat(wgt[order], starts)
    group_src = k_sorted[starts] // n
    group_label = k_sorted[starts] - group_src * n
    # bonus epsilon for keeping the current label: stability tie-break.
    # Scale gains by 2 and add 1 to the own-label group so strict
    # integer comparison implements "switch only on strictly better".
    scaled = gains * 2 + (group_label == labels[group_src])
    # groups are sorted by (src, label): per-src maximum, then the largest
    # label among the groups that reach it
    src_starts = _run_starts(group_src)
    best = np.maximum.reduceat(scaled, src_starts)
    at_best = scaled == np.repeat(best, np.diff(src_starts, append=len(scaled)))
    winner = np.maximum.reduceat(np.where(at_best, group_label, -1), src_starts)
    return group_src[src_starts], winner


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal keys (non-empty input)."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def cluster_labels(
    graph: Graph,
    *,
    iterations: int = 2,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Dense, connectivity-respecting cluster labels in ``[0, nc)``.

    Two vertices share a cluster iff they are joined by a path of edges
    whose endpoints carry the same label after ``iterations`` rounds of
    :func:`propagate_labels_sync` — exactly the blocks VieCut contracts.
    """
    raw = propagate_labels_sync(graph, iterations=iterations, rng=rng)
    return _split_into_connected_clusters(graph, raw)


def _split_into_connected_clusters(graph: Graph, raw: np.ndarray) -> np.ndarray:
    """Dense labels of the components of the same-raw-label subgraph."""
    from ..graph.components import components_from_csr

    same = raw[graph.arc_sources()] == raw[graph.adjncy]
    # the kept arcs stay grouped by source: their CSR offsets are prefix counts
    kept = np.concatenate(([0], np.cumsum(same)))
    _, dense = components_from_csr(kept[graph.xadj], graph.adjncy[same])
    return dense
