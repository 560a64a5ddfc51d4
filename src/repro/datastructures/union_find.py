"""Sequential union–find (disjoint set union) over integer vertex ids.

This is the bookkeeping structure CAPFOREST uses to *mark* contractible
edges (paper §3.2): marking edge ``(u, v)`` is a ``union(u, v)``; the actual
graph contraction happens later from the resulting partition labels.

Implementation: union by rank with path halving.  Path halving keeps
``find`` a single loop (no recursion, no second pass), which matters because
``find`` sits on the hot path of the contraction kernels.
"""

from __future__ import annotations

import numpy as np


class UnionFind:
    """Array-based disjoint sets over ``{0, ..., n-1}``."""

    __slots__ = ("_parent", "_rank", "_count")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self._parent = np.arange(n, dtype=np.int64)
        self._rank = np.zeros(n, dtype=np.int8)
        self._count = n

    @property
    def n(self) -> int:
        """Number of elements."""
        return len(self._parent)

    @property
    def count(self) -> int:
        """Current number of disjoint sets."""
        return self._count

    def find(self, x: int) -> int:
        """Representative of the set containing ``x`` (path halving)."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of ``x`` and ``y``; True if they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        rank = self._rank
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
        self._count -= 1
        return True

    def same(self, x: int, y: int) -> bool:
        """True if ``x`` and ``y`` are in the same set."""
        return self.find(x) == self.find(y)

    def _roots_of(self, xs: np.ndarray) -> np.ndarray:
        """Roots of every element of ``xs``, resolved by whole-array jumps.

        Each jump also rewrites the walked nodes to their grandparents
        (vectorized path halving) — without it, the chains min-hooking
        builds make repeated resolution quadratic.
        """
        parent = self._parent
        roots = parent[xs]
        while True:
            nxt = parent[roots]
            if np.array_equal(nxt, roots):
                return roots
            grand = parent[nxt]
            # duplicate indices write identical values (same parent state)
            parent[roots] = grand
            roots = grand

    def union_pairs(self, us, vs) -> int:
        """Union ``us[i]`` with ``vs[i]`` for every ``i``; returns sets merged.

        Vectorized min-hooking (Shiloach–Vishkin style): resolve both sides
        to roots with whole-array parent jumps, point each larger root at the
        smaller (``np.minimum.at`` resolves conflicting hooks consistently),
        and repeat until every pair shares a root.  The resulting partition
        — and ``count`` — are exactly those of the equivalent sequence of
        scalar :meth:`union` calls; only the tree shapes (and ranks) differ,
        which no caller observes.  Used by the vector CAPFOREST kernel to
        mark a whole batch of contractible edges per relaxation round.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError("us and vs must have equal shape")
        if us.size == 0:
            return 0
        parent = self._parent
        a, b = self._roots_of(us), self._roots_of(vs)
        live = a != b
        if not live.any():
            return 0
        a, b = a[live], b[live]
        # dedup via a boolean scratch plane when the pair count is within a
        # few factors of n (np.unique's hashing costs more than two O(n)
        # passes there); fall back to unique for tiny batches on big graphs
        n = len(parent)
        seen: np.ndarray | None = None
        if 4 * (len(a) + len(b)) >= n:
            seen = np.zeros(n, dtype=bool)
            seen[a] = True
            seen[b] = True
            touched = np.flatnonzero(seen)
        else:
            touched = np.unique(np.concatenate([a, b]))
        before = len(touched)
        while True:
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            np.minimum.at(parent, hi, lo)
            a, b = self._roots_of(a), self._roots_of(b)
            merged = a == b
            if merged.all():
                break
            a, b = a[~merged], b[~merged]
        roots = self._roots_of(touched)
        parent[touched] = roots  # compress what we walked
        if seen is not None:
            seen[touched] = False
            seen[roots] = True
            after = int(np.count_nonzero(seen))
        else:
            after = len(np.unique(roots))
        self._count -= before - after
        return before - after

    def roots(self) -> np.ndarray:
        """The root of every element (``int64[n]``), compressing the forest."""
        # full path compression, vectorized: iterate parent-jumps to a fixpoint
        roots = self._parent.copy()
        while True:
            nxt = roots[roots]
            if np.array_equal(nxt, roots):
                break
            roots = nxt
        self._parent = roots.copy()  # keep the compressed forest
        return roots

    def labels(self) -> np.ndarray:
        """Dense labels in ``[0, count)``, one per element, canonical for the
        partition: components are numbered by their smallest member.

        The contraction kernels consume this: vertices sharing a set share a
        label, and labels are consecutive so they can index the contracted
        graph's vertex arrays directly.  Numbering by smallest member (not by
        root id) makes the labels a function of the partition *alone* — two
        union–finds built by different hooking strategies (sequential union
        by rank vs the batch min-hooking of :meth:`union_pairs`) agree on
        every label whenever they encode the same sets, which is what makes
        the scalar and vector CAPFOREST kernels bit-comparable.
        """
        roots = self.roots()
        unique_roots, first_idx, labels = np.unique(
            roots, return_index=True, return_inverse=True
        )
        self._count = len(unique_roots)
        # first_idx[i] is the smallest member of unique_roots[i]'s set, so
        # ranking the groups by it numbers components by smallest member
        rank = np.empty(len(unique_roots), dtype=np.int64)
        rank[np.argsort(first_idx)] = np.arange(len(unique_roots))
        return rank[labels]

    def sets(self) -> dict[int, list[int]]:
        """Mapping ``root -> members`` (for tests and small-graph debugging)."""
        out: dict[int, list[int]] = {}
        for x in range(self.n):
            out.setdefault(self.find(x), []).append(x)
        return out
