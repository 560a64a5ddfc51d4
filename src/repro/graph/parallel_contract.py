"""Parallel graph contraction (paper §3.2, "Parallel Graph Contraction").

The paper builds the contracted graph through a concurrent hash table, with
one refinement: edges between two *heavy* blocks are aggregated locally per
worker first and merged afterwards, to avoid synchronization storms on hot
hash cells.  The Python analog: the arc array is split into per-worker
chunks; every worker aggregates its chunk's ``(block_u, block_v) -> weight``
sums privately (numpy sort-based grouping, which releases the GIL for its
hot part); the coordinator then merges the per-chunk aggregates — the
"local aggregation, global merge" structure, applied to *all* pairs.

For small graphs the chunking overhead dominates, so callers should use
:func:`~repro.graph.contract.contract_by_labels` below the documented
threshold — :func:`parallel_contract_by_labels` does that switch itself.
"""

from __future__ import annotations

import threading

import numpy as np

from .contract import contract_by_labels
from .csr import Graph

#: below this many arcs the sequential path is used outright
PARALLEL_CONTRACT_MIN_ARCS = 1 << 15


def parallel_contract_by_labels(
    graph: Graph, labels: np.ndarray, *, workers: int = 4
) -> tuple[Graph, np.ndarray]:
    """Contract ``graph`` by dense ``labels`` using chunked worker aggregation.

    Semantically identical to
    :func:`~repro.graph.contract.contract_by_labels` (tests assert equality);
    only the evaluation strategy differs.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != graph.n:
        raise ValueError("labels length must equal graph.n")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or graph.num_arcs < PARALLEL_CONTRACT_MIN_ARCS:
        return contract_by_labels(graph, labels)

    nc = int(labels.max()) + 1 if len(labels) else 0
    src = labels[graph.arc_sources()]
    dst = labels[graph.adjncy]
    wgt = graph.adjwgt

    bounds = np.linspace(0, graph.num_arcs, workers + 1, dtype=np.int64)
    partials: list[tuple[np.ndarray, np.ndarray] | None] = [None] * workers

    def aggregate_chunk(i: int) -> None:
        try:
            lo, hi = bounds[i], bounds[i + 1]
            s, d, w = src[lo:hi], dst[lo:hi], wgt[lo:hi]
            keep = s != d
            keys = s[keep] * np.int64(nc) + d[keep]
            w = w[keep]
            uniq, inv = np.unique(keys, return_inverse=True)
            sums = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(sums, inv, w)
            partials[i] = (uniq, sums)
        except Exception:  # noqa: BLE001 - handled by the sequential fallback
            partials[i] = None

    threads = [threading.Thread(target=aggregate_chunk, args=(i,)) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if any(p is None for p in partials):
        # unlike CAPFOREST marks, contraction chunks are NOT droppable — a
        # missing chunk's weights would silently corrupt the contracted
        # graph — so any lost chunk degrades the whole call to the
        # (always-correct) sequential path
        return contract_by_labels(graph, labels)

    all_keys = np.concatenate([p[0] for p in partials])
    all_sums = np.concatenate([p[1] for p in partials])
    uniq, inv = np.unique(all_keys, return_inverse=True)
    agg = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(agg, inv, all_sums)

    tails = uniq // nc
    heads = uniq % nc
    counts = np.bincount(tails, minlength=nc).astype(np.int64)
    xadj = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return Graph(xadj, heads, agg), labels
