"""Dynamic graph handle: incremental CSR maintenance under edge updates.

Production traffic mutates graphs.  Rebuilding CSR from the full edge list
on every batch costs ``O(m log m)``; this module instead *splices* a batch
of ``b`` edge insertions/deletions into the existing arc arrays.  The
arrays produced by :mod:`repro.graph.builder` (and by contraction) list
each row's heads in ascending order, so the batch's arcs are found by
searching only the rows they touch (``O(b log b)`` plus those rows), and
each new array is one concatenation of the old array's O(b) untouched runs
with the new arcs between them.  Weight bumps land on the copy, and
``xadj`` follows from the per-row count changes.  What stays ``O(m)`` is
one pass that checks the rows are sorted and the memory copy itself.

The handle also records an :class:`UpdateDelta` per batch — exactly the
information the warm-solve path (:mod:`repro.dynamic.warm`) needs to reseed
λ̂: which vertices were touched, how much weight entered and left, and how
much of it crossed a given cut side.

Semantics (matching the builder's contraction semantics of §2.1):

* **insert** ``(u, v, w)`` — adds ``w`` to edge ``{u, v}``, creating it if
  absent (parallel edges merge with weights summed);
* **delete** ``(u, v)`` — removes edge ``{u, v}`` entirely, whatever its
  weight; deleting an absent edge raises :class:`EdgeUpdateError`;
* ``n`` is fixed for the lifetime of the handle; self-loops are rejected;
  weights must be positive.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..engine.keys import graph_digest
from ..graph.csr import Graph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (warm imports core)
    from .warm import WarmState

__all__ = ["DynamicGraph", "EdgeUpdateError", "UpdateDelta", "apply_updates"]


class EdgeUpdateError(ValueError):
    """An edge-update batch is invalid against the current graph."""


@dataclass(frozen=True)
class UpdateDelta:
    """What one applied batch changed — the warm-solve path's raw material.

    ``inserted_*`` holds the per-edge weight *added* (after in-batch
    merging); ``deleted_*`` holds the full weight *removed*.  All endpoint
    arrays are canonicalised ``lo < hi``.
    """

    n: int
    old_digest: str
    new_digest: str
    version: int
    inserted_lo: np.ndarray = field(repr=False)
    inserted_hi: np.ndarray = field(repr=False)
    inserted_w: np.ndarray = field(repr=False)
    deleted_lo: np.ndarray = field(repr=False)
    deleted_hi: np.ndarray = field(repr=False)
    deleted_w: np.ndarray = field(repr=False)
    touched: np.ndarray = field(repr=False)

    @property
    def num_inserted(self) -> int:
        return len(self.inserted_lo)

    @property
    def num_deleted(self) -> int:
        return len(self.deleted_lo)

    @property
    def inserted_weight(self) -> int:
        """Total weight added across the batch (``W_I``)."""
        return int(self.inserted_w.sum())

    @property
    def deleted_weight(self) -> int:
        """Total weight removed across the batch (``W_D``)."""
        return int(self.deleted_w.sum())

    @property
    def is_noop(self) -> bool:
        return self.old_digest == self.new_digest

    def crossing_weights(self, side: np.ndarray) -> tuple[int, int]:
        """``(inserted, deleted)`` weight crossing the cut mask ``side``.

        This is the incremental re-evaluation of an old cut on the new
        graph: ``c_new(side) = c_old(side) + inserted - deleted`` — O(batch)
        instead of O(m).
        """
        side = np.asarray(side, dtype=bool)
        if len(side) != self.n:
            raise ValueError("side mask length must equal n")
        ins = side[self.inserted_lo] != side[self.inserted_hi]
        dels = side[self.deleted_lo] != side[self.deleted_hi]
        return int(self.inserted_w[ins].sum()), int(self.deleted_w[dels].sum())


def _normalize_inserts(
    n: int, inserts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate and canonicalise an insert batch; merge in-batch duplicates."""
    rows = list(inserts or ())
    if not rows:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    us = np.empty(len(rows), dtype=np.int64)
    vs = np.empty(len(rows), dtype=np.int64)
    ws = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) == 2:
            us[i], vs[i], ws[i] = row[0], row[1], 1
        elif len(row) == 3:
            us[i], vs[i], ws[i] = row
        else:
            raise EdgeUpdateError(f"insert must be (u, v) or (u, v, w), got {row!r}")
    if us.min() < 0 or vs.min() < 0 or us.max() >= n or vs.max() >= n:
        raise EdgeUpdateError(f"insert endpoint out of range [0, {n})")
    if (us == vs).any():
        bad = int(us[us == vs][0])
        raise EdgeUpdateError(f"self-loop insert ({bad}, {bad}) is not allowed")
    if ws.min() <= 0:
        raise EdgeUpdateError("insert weights must be positive")
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    # merge duplicate pairs within the batch, weights summed (builder semantics)
    keys = lo * np.int64(n) + hi
    order = np.argsort(keys, kind="stable")
    keys, ws = keys[order], ws[order]
    uniq_keys, starts = np.unique(keys, return_index=True)
    csum = np.concatenate(([0], np.cumsum(ws, dtype=np.int64)))
    ends = np.concatenate((starts[1:], [len(keys)]))
    return uniq_keys // n, uniq_keys % n, csum[ends] - csum[starts]


def _normalize_deletes(n: int, deletes) -> tuple[np.ndarray, np.ndarray]:
    """Validate and canonicalise a delete batch (duplicates are an error)."""
    rows = list(deletes or ())
    if not rows:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    us = np.empty(len(rows), dtype=np.int64)
    vs = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) < 2:
            raise EdgeUpdateError(f"delete must name an edge (u, v), got {row!r}")
        us[i], vs[i] = row[0], row[1]
    if us.min() < 0 or vs.min() < 0 or us.max() >= n or vs.max() >= n:
        raise EdgeUpdateError(f"delete endpoint out of range [0, {n})")
    if (us == vs).any():
        bad = int(us[us == vs][0])
        raise EdgeUpdateError(f"self-loop delete ({bad}, {bad}) is not allowed")
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    keys = lo * np.int64(n) + hi
    order = np.argsort(keys)
    keys = keys[order]
    if len(keys) > 1 and (keys[1:] == keys[:-1]).any():
        dup = int(keys[np.flatnonzero(keys[1:] == keys[:-1])[0]])
        raise EdgeUpdateError(
            f"duplicate delete of edge ({dup // n}, {dup % n}) in one batch"
        )
    return keys // n, keys % n


def _locate(sorted_keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``searchsorted`` positions plus a found-mask (safe on empty arrays)."""
    pos = np.searchsorted(sorted_keys, query)
    if len(sorted_keys) == 0:
        return pos, np.zeros(len(query), dtype=bool)
    found = (pos < len(sorted_keys)) & (
        sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == query
    )
    return pos, found


def _check_sorted_rows(graph: Graph) -> None:
    """Raise unless every adjacency row lists its heads strictly ascending,
    the order the builder and contraction produce and the splice assumes."""
    adjncy = graph.adjncy
    rising = adjncy[1:] > adjncy[:-1]
    # a row's first arc may sit below the previous row's last
    firsts = graph.xadj[1:-1]
    rising[firsts[(firsts > 0) & (firsts < len(adjncy))] - 1] = True
    if not rising.all():
        raise EdgeUpdateError(
            "graph arc arrays are not in canonical sorted order; rebuild the "
            "graph through repro.graph.builder before attaching a DynamicGraph"
        )


def _row_arcs(
    graph: Graph, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(arcs, lengths, shift)``: the arc positions of ``rows``, row after
    row, each row's length, and each row's arc-array start minus its start
    in ``arcs``."""
    starts = graph.xadj[rows]
    lengths = graph.xadj[rows + 1] - starts
    shift = starts - (np.cumsum(lengths) - lengths)
    return np.repeat(shift, lengths) + np.arange(int(lengths.sum())), lengths, shift


def _find_arcs(
    graph: Graph, tails: np.ndarray, heads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Arc-array position of each arc ``tails[i] -> heads[i]`` (where it
    sits, or where it would be spliced in) and whether it exists.  Reads
    only the rows of ``tails``."""
    n = np.int64(graph.n)
    rows = np.unique(tails)
    arcs, lengths, shift = _row_arcs(graph, rows)
    keys = np.repeat(rows, lengths) * n + graph.adjncy[arcs]
    at, found = _locate(keys, tails * n + heads)
    return shift[np.searchsorted(rows, tails)] + at, found


def row_weights(graph: Graph, rows: np.ndarray) -> np.ndarray:
    """Weighted degrees of ``rows`` alone, in O(their arcs) rather than the
    O(m) of :meth:`Graph.weighted_degrees`."""
    arcs, lengths, _ = _row_arcs(graph, rows)
    csum = np.concatenate(([0], np.cumsum(graph.adjwgt[arcs])))
    ends = np.cumsum(lengths)
    return csum[ends] - csum[ends - lengths]


def _splice(drop: np.ndarray, at: np.ndarray, pairs) -> list[np.ndarray]:
    """For each ``(arr, values)`` of ``pairs``, a new array: ``arr`` without
    its elements at ``drop``, with ``values[i]`` placed before old element
    ``at[i]`` (``at`` ascending).  One concatenation of O(batch) slices per
    array."""
    cuts = np.concatenate((at, drop))
    order = np.argsort(cuts, kind="stable").tolist()  # at a tie, values first
    cuts, k = cuts.tolist(), len(at)
    out = []
    for arr, values in pairs:
        pieces, start = [], 0
        for e in order:
            pieces.append(arr[start:cuts[e]])
            if e < k:
                pieces.append(values[e:e + 1])
                start = cuts[e]
            else:
                start = cuts[e] + 1
        pieces.append(arr[start:])
        out.append(np.concatenate(pieces))
    return out


def apply_updates(
    graph: Graph, inserts=(), deletes=()
) -> tuple[Graph, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Apply one batch to ``graph``, rebuilding CSR incrementally.

    Returns ``(new_graph, ins_lo, ins_hi, ins_w, del_lo, del_hi, del_w)``
    with the canonicalised, in-batch-merged update arrays (``del_w`` is the
    full removed weight per edge, read off the old graph).  ``graph`` is
    never mutated; all failure modes raise before any state changes.
    """
    n = graph.n
    ins_lo, ins_hi, ins_w = _normalize_inserts(n, inserts)
    del_lo, del_hi = _normalize_deletes(n, deletes)

    ins_keys = ins_lo * np.int64(n) + ins_hi
    del_keys = del_lo * np.int64(n) + del_hi
    if len(ins_keys) and len(del_keys) and np.intersect1d(ins_keys, del_keys).size:
        k = int(np.intersect1d(ins_keys, del_keys)[0])
        raise EdgeUpdateError(
            f"edge ({k // n}, {k % n}) both inserted and deleted in one batch; "
            "split into two batches to fix the order"
        )
    if not len(ins_keys) and not len(del_keys):
        empty = np.empty(0, dtype=np.int64)
        return graph, ins_lo, ins_hi, ins_w, del_lo, del_hi, empty
    _check_sorted_rows(graph)

    # Both arc directions of every delete, then of every insert.
    nd = 2 * len(del_lo)
    tails = np.concatenate((del_lo, del_hi, ins_lo, ins_hi))
    heads = np.concatenate((del_hi, del_lo, ins_hi, ins_lo))
    pos, found = _find_arcs(graph, tails, heads)
    if not found[:nd].all():
        miss = int(np.flatnonzero(~found[:nd])[0]) % len(del_lo)
        raise EdgeUpdateError(
            f"delete of absent edge ({int(del_lo[miss])}, {int(del_hi[miss])})"
        )
    del_w = graph.adjwgt[pos[: len(del_lo)]]
    drop = np.sort(pos[:nd])

    # Inserts: arcs that exist get a weight bump, the rest are spliced in
    # (in arc-key order, so their positions ascend).
    wgts = np.concatenate((ins_w, ins_w))
    bump = np.flatnonzero(found[nd:]) + nd
    new = np.flatnonzero(~found[nd:]) + nd
    new = new[np.argsort(tails[new] * np.int64(n) + heads[new])]
    at = pos[new]
    adjncy, adjwgt = _splice(drop, at, ((graph.adjncy, heads[new]),
                                        (graph.adjwgt, wgts[new - nd])))
    old = pos[bump]  # positions before the splice moved them
    adjwgt[old - np.searchsorted(drop, old)
           + np.searchsorted(at, old, side="right")] += wgts[bump - nd]

    rows = np.bincount(tails[new], minlength=n) - np.bincount(tails[:nd], minlength=n)
    xadj = graph.xadj + np.concatenate(([0], np.cumsum(rows)))
    new_graph = Graph(xadj, adjncy, adjwgt)
    return new_graph, ins_lo, ins_hi, ins_w, del_lo, del_hi, del_w


class DynamicGraph:
    """Mutable handle over an immutable CSR :class:`Graph` lineage.

    Each :meth:`apply` produces a *new* ``Graph`` (existing references,
    digests, and shared-memory planes of older versions stay valid) and an
    :class:`UpdateDelta` describing the change.  The handle carries the
    engine's warm-solve state (:attr:`warm`) across versions; all access is
    serialised through :attr:`lock`, which :meth:`apply` takes itself —
    callers composing multi-step read-modify-write sequences (e.g.
    ``SolverEngine.update``) should hold it across the whole sequence.
    """

    def __init__(self, graph: Graph) -> None:
        if graph.n < 2:
            raise ValueError(f"DynamicGraph requires at least 2 vertices, got {graph.n}")
        self._graph = graph
        self._digest = graph_digest(graph)
        self._version = 0
        self.lock = threading.RLock()
        self.warm: WarmState | None = None

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def digest(self) -> str:
        return self._digest

    @property
    def version(self) -> int:
        return self._version

    @property
    def n(self) -> int:
        return self._graph.n

    def apply(self, inserts=(), deletes=()) -> UpdateDelta:
        """Apply one insert/delete batch; returns the :class:`UpdateDelta`.

        Atomic: validation failures raise :class:`EdgeUpdateError` without
        mutating the handle.  A no-op batch returns a delta with
        ``is_noop=True`` and does not bump the version.
        """
        with self.lock:
            old_graph, old_digest = self._graph, self._digest
            new_graph, ins_lo, ins_hi, ins_w, del_lo, del_hi, del_w = apply_updates(
                old_graph, inserts, deletes
            )
            if new_graph is old_graph:
                new_digest = old_digest
            else:
                new_digest = graph_digest(new_graph)
                self._graph = new_graph
                self._digest = new_digest
                self._version += 1
            touched = np.unique(np.concatenate((ins_lo, ins_hi, del_lo, del_hi)))
            return UpdateDelta(
                n=old_graph.n,
                old_digest=old_digest,
                new_digest=new_digest,
                version=self._version,
                inserted_lo=ins_lo,
                inserted_hi=ins_hi,
                inserted_w=ins_w,
                deleted_lo=del_lo,
                deleted_hi=del_hi,
                deleted_w=del_w,
                touched=touched,
            )

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(n={self._graph.n}, m={self._graph.m}, "
            f"version={self._version}, digest={self._digest[:12]})"
        )
