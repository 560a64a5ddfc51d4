"""Concurrent union–find for the thread executor of parallel CAPFOREST.

The paper uses the wait-free union–find of Anderson & Woll so that all
workers can union into one shared structure without coordination.  CPython
offers no compare-and-swap on arrays, so :class:`LockStripedUnionFind` is
a semantically equivalent substitute (documented in DESIGN.md): ``union``
takes one of ``k`` stripe locks (both stripes, ordered, to avoid
deadlock), and ``find`` is lock-free, because concurrent path-halving
writes only ever replace a parent pointer with an ancestor.  The process
executor shares no forest: its workers' marks come back as pair rows of
the shared-memory plane, which the coordinator replays into a sequential
union–find.
"""

from __future__ import annotations

import threading

import numpy as np

from .union_find import UnionFind


class LockStripedUnionFind:
    """Thread-safe union–find: lock-free finds, striped-lock unions."""

    def __init__(self, n: int, stripes: int = 64) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {stripes}")
        self._parent = np.arange(n, dtype=np.int64)
        self._locks = [threading.Lock() for _ in range(stripes)]
        self._stripes = stripes

    @property
    def n(self) -> int:
        return len(self._parent)

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, x: int, y: int) -> bool:
        # Retry loop: another thread may re-root one side between our find
        # and taking the locks; re-check roots while holding both stripes.
        while True:
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                return False
            if rx > ry:
                rx, ry = ry, rx
            # acquire stripes in *stripe-index* order — root order does not
            # imply stripe order, and inconsistent ordering deadlocks
            si, sj = rx % self._stripes, ry % self._stripes
            if si > sj:
                si, sj = sj, si
            lock_a = self._locks[si]
            lock_b = self._locks[sj]
            if lock_a is lock_b:
                with lock_a:
                    if self._parent[rx] == rx and self._parent[ry] == ry:
                        self._parent[ry] = rx
                        return True
            else:
                with lock_a, lock_b:
                    if self._parent[rx] == rx and self._parent[ry] == ry:
                        self._parent[ry] = rx
                        return True

    def same(self, x: int, y: int) -> bool:
        return self.find(x) == self.find(y)

    def to_sequential(self) -> UnionFind:
        """Snapshot into a sequential UnionFind (call after workers join)."""
        uf = UnionFind(self.n)
        parent = self._parent
        for x in range(self.n):
            p = int(parent[x])
            if p != x:
                uf.union(x, p)
        return uf

    def labels(self) -> np.ndarray:
        return self.to_sequential().labels()

