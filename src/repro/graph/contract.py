"""Graph contraction by vertex-partition labels (vectorized).

Contracting a set of marked edges (paper §2.1, §3.2) collapses every
union–find block into one supervertex; edges between blocks merge with
weights summed; edges inside a block vanish.  The whole operation is a
handful of numpy passes over the arc arrays — the Python equivalent of the
paper's hash-table contraction, with ``np.unique`` playing the hash table.
"""

from __future__ import annotations

import numpy as np

from ..datastructures.union_find import UnionFind
from .csr import Graph


def contract_by_labels(graph: Graph, labels: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Contract ``graph`` according to a dense label array.

    Parameters
    ----------
    graph:
        Input graph.
    labels:
        ``int64[n]`` with values in ``[0, nc)``: vertices sharing a label
        collapse into one supervertex.  Labels must be dense (every value in
        ``[0, nc)`` used); :meth:`UnionFind.labels` produces this format.

    Returns
    -------
    ``(contracted_graph, labels)`` — labels are returned unchanged so
    callers can compose mappings from original ids to supervertices.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != graph.n:
        raise ValueError("labels length must equal graph.n")
    nc = int(labels.max()) + 1 if len(labels) else 0

    src = labels[graph.arc_sources()]
    dst = labels[graph.adjncy]
    keep = src != dst  # intra-block arcs vanish
    src, dst, wgt = src[keep], dst[keep], graph.adjwgt[keep]

    # Aggregate parallel arcs per (src, dst) ordered pair.  Both directions
    # of every undirected edge are present, so aggregating ordered pairs
    # directly yields a symmetric arc set.
    keys = src * np.int64(nc) + dst
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    wgt = wgt[order]
    if len(keys):
        boundary = np.empty(len(keys), dtype=bool)
        boundary[0] = True
        np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        csum = np.concatenate(([0], np.cumsum(wgt, dtype=np.int64)))
        ends = np.concatenate((starts[1:], [len(keys)]))
        agg_w = csum[ends] - csum[starts]
        uniq = keys[starts]
        heads = uniq % nc
        tails = uniq // nc
    else:
        heads = tails = agg_w = np.empty(0, dtype=np.int64)

    counts = np.bincount(tails, minlength=nc).astype(np.int64)
    xadj = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return Graph(xadj, heads, agg_w), labels


def contract_by_union_find(graph: Graph, uf: UnionFind) -> tuple[Graph, np.ndarray]:
    """Contract the blocks of a union–find structure over the graph's vertices."""
    if uf.n != graph.n:
        raise ValueError("union-find size must equal graph.n")
    return contract_by_labels(graph, uf.labels())


def contract_edge(graph: Graph, u: int, v: int) -> tuple[Graph, np.ndarray]:
    """Contract the single edge ``(u, v)`` — ``G/(u, v)`` of §2.1.

    Convenience for tests and for Karger–Stein; bulk contraction should use
    :func:`contract_by_labels`.
    """
    if u == v:
        raise ValueError("cannot contract a self-loop")
    uf = UnionFind(graph.n)
    uf.union(u, v)
    return contract_by_union_find(graph, uf)


def compose_labels(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Compose two contraction label maps: original -> mid -> final.

    ``outer`` maps original vertices to the mid graph; ``inner`` maps mid
    vertices to the final graph.  Result maps original to final.
    """
    return np.asarray(inner, dtype=np.int64)[np.asarray(outer, dtype=np.int64)]
