"""Static weighted undirected graph in compressed sparse row (CSR) form.

All solvers in this package operate on this one representation: three
contiguous ``int64`` numpy arrays (``xadj``, ``adjncy``, ``adjwgt``), the
layout used by METIS/KaHIP and by the paper's C++ implementation.  Each
undirected edge ``{u, v}`` is stored as two directed *arcs* ``u->v`` and
``v->u`` with equal weight.  Self-loops are disallowed; parallel edges are
merged (weights summed) at construction time by
:class:`~repro.graph.builder.GraphBuilder`.

Contiguity matters (see the hpc-parallel guides): every kernel walks
``adjncy[xadj[v]:xadj[v+1]]`` slices, which are views, never copies, and the
vectorized contraction/generator code streams over whole arrays.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np


class Graph:
    """Immutable weighted undirected graph over vertices ``{0..n-1}``.

    Parameters
    ----------
    xadj:
        ``int64[n+1]`` arc offsets; arcs of vertex ``v`` live in
        ``[xadj[v], xadj[v+1])``.
    adjncy:
        ``int64[2m]`` arc heads.
    adjwgt:
        ``int64[2m]`` arc weights (positive).

    Use :class:`~repro.graph.builder.GraphBuilder` or
    :func:`~repro.graph.builder.from_edges` rather than constructing
    directly, unless the arrays are already known to satisfy the invariants
    (see :func:`~repro.graph.validate.check_graph`).
    """

    __slots__ = ("xadj", "adjncy", "adjwgt", "_wdeg", "_total_weight", "_xadj_list", "_wdeg_list")

    def __init__(self, xadj: np.ndarray, adjncy: np.ndarray, adjwgt: np.ndarray) -> None:
        self.xadj = np.ascontiguousarray(xadj, dtype=np.int64)
        self.adjncy = np.ascontiguousarray(adjncy, dtype=np.int64)
        self.adjwgt = np.ascontiguousarray(adjwgt, dtype=np.int64)
        if len(self.xadj) == 0:
            raise ValueError("xadj must have at least one entry")
        if len(self.adjncy) != len(self.adjwgt):
            raise ValueError("adjncy and adjwgt must have equal length")
        if self.xadj[-1] != len(self.adjncy):
            raise ValueError("xadj[-1] must equal the number of arcs")
        self._wdeg: np.ndarray | None = None
        self._total_weight: int | None = None
        self._xadj_list: list[int] | None = None
        self._wdeg_list: list[int] | None = None

    # -- sizes ---------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.xadj) - 1

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.adjncy) // 2

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs (``2 * m``)."""
        return len(self.adjncy)

    # -- per-vertex access -----------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        """Arc heads of ``v`` (a view, do not mutate)."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def weights(self, v: int) -> np.ndarray:
        """Arc weights of ``v`` (a view, aligned with :meth:`neighbors`)."""
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        """Number of incident edges (unweighted degree)."""
        return int(self.xadj[v + 1] - self.xadj[v])

    def weighted_degree(self, v: int) -> int:
        """Sum of incident edge weights — ``c(v)`` in the paper."""
        return int(self.weighted_degrees()[v])

    # -- whole-graph queries -----------------------------------------------------

    def degrees(self) -> np.ndarray:
        """Unweighted degree of every vertex (``int64[n]``)."""
        return np.diff(self.xadj)

    def weighted_degrees(self) -> np.ndarray:
        """Weighted degree of every vertex (cached, ``int64[n]``)."""
        if self._wdeg is None:
            # reduceat over the non-empty rows only: an empty slice would
            # yield the element at its offset, and an offset at the array
            # end is rejected, so isolated vertices keep their zero
            wdeg = np.zeros(self.n, dtype=np.int64)
            starts = self.xadj[:-1]
            rows = starts < self.xadj[1:]
            wdeg[rows] = np.add.reduceat(self.adjwgt, starts[rows])
            self._wdeg = wdeg
        return self._wdeg

    def xadj_list(self) -> list[int]:
        """``xadj`` as a cached list of Python ints.

        The scalar CAPFOREST kernels index single offsets millions of times,
        where list access beats numpy scalar access ~3x; every pass (and
        every in-process parallel worker) shares this one conversion.
        Treat as read-only.
        """
        if self._xadj_list is None:
            self._xadj_list = self.xadj.tolist()
        return self._xadj_list

    def weighted_degrees_list(self) -> list[int]:
        """:meth:`weighted_degrees` as a cached list of Python ints
        (same single-element-access rationale as :meth:`xadj_list`)."""
        if self._wdeg_list is None:
            self._wdeg_list = self.weighted_degrees().tolist()
        return self._wdeg_list

    def min_weighted_degree(self) -> tuple[int, int]:
        """``(vertex, weighted degree)`` of a minimum-weighted-degree vertex.

        This is the trivial cut ``({v}, V \\ {v})`` and the classic initial
        upper bound ``λ̂ = δ(G)`` (paper §2.1).
        """
        if self.n == 0:
            raise ValueError("empty graph has no degrees")
        wdeg = self.weighted_degrees()
        v = int(np.argmin(wdeg))
        return v, int(wdeg[v])

    def total_weight(self) -> int:
        """Sum of all edge weights ``c(E)``."""
        if self._total_weight is None:
            self._total_weight = int(self.adjwgt.sum()) // 2
        return self._total_weight

    def arc_sources(self) -> np.ndarray:
        """``int64[2m]`` tail vertex of each arc (computed, not cached)."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.xadj))

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate undirected edges as ``(u, v, w)`` with ``u < v``."""
        xadj, adjncy, adjwgt = self.xadj, self.adjncy, self.adjwgt
        for u in range(self.n):
            for i in range(xadj[u], xadj[u + 1]):
                v = adjncy[i]
                if u < v:
                    yield u, int(v), int(adjwgt[i])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Undirected edge list ``(us, vs, ws)`` with ``us < vs`` (vectorized)."""
        src = self.arc_sources()
        mask = src < self.adjncy
        return src[mask], self.adjncy[mask], self.adjwgt[mask]

    def edge_weight(self, u: int, v: int) -> int:
        """Weight of edge ``{u, v}``, or 0 if absent (linear in deg(u))."""
        nbrs = self.neighbors(u)
        hits = np.flatnonzero(nbrs == v)
        if len(hits) == 0:
            return 0
        return int(self.weights(u)[hits[0]])

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.neighbors(u) == v).any())

    def cut_value(self, side: np.ndarray) -> int:
        """Capacity ``c(A)`` of the cut defined by boolean mask ``side``.

        ``side[v]`` is True for vertices in ``A``.  Used by tests and by
        :class:`~repro.core.api.MinCutResult` to certify reported cuts.
        """
        side = np.asarray(side, dtype=bool)
        if len(side) != self.n:
            raise ValueError("side mask length must equal n")
        src = self.arc_sources()
        crossing = side[src] & ~side[self.adjncy]
        return int(self.adjwgt[crossing].sum())

    # -- misc -----------------------------------------------------------------

    def copy(self) -> "Graph":
        return Graph(self.xadj.copy(), self.adjncy.copy(), self.adjwgt.copy())

    def is_unweighted(self) -> bool:
        """True if every edge has weight 1."""
        return bool((self.adjwgt == 1).all()) if self.num_arcs else True

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, total_weight={self.total_weight()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            np.array_equal(self.xadj, other.xadj)
            and np.array_equal(self.adjncy, other.adjncy)
            and np.array_equal(self.adjwgt, other.adjwgt)
        )

    def __hash__(self) -> int:  # pragma: no cover - Graphs are not dict keys
        return id(self)
