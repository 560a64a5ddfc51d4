"""Tests for the concurrent union–find variants."""

import threading

import numpy as np
import pytest

from repro.datastructures import LockStripedUnionFind, UnionFind


class TestLockStriped:
    def test_basic_union_find(self):
        uf = LockStripedUnionFind(5)
        assert uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.same(0, 1)
        assert not uf.same(0, 2)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            LockStripedUnionFind(-1)
        with pytest.raises(ValueError):
            LockStripedUnionFind(4, stripes=0)

    def test_labels_match_sequential(self):
        pairs = [(0, 1), (2, 3), (1, 3), (5, 6)]
        striped = LockStripedUnionFind(8)
        seq = UnionFind(8)
        for a, b in pairs:
            striped.union(a, b)
            seq.union(a, b)
        la, lb = striped.labels(), seq.labels()
        mapping: dict[int, int] = {}
        for a, b in zip(la.tolist(), lb.tolist()):
            assert mapping.setdefault(int(a), int(b)) == b

    def test_concurrent_unions_consistent(self):
        """Hammer the structure from 4 threads; the final partition must be
        exactly the union of all requested pairs."""
        n = 200
        rng = np.random.default_rng(0)
        all_pairs = [
            [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(300)]
            for _ in range(4)
        ]
        uf = LockStripedUnionFind(n)

        def worker(pairs):
            for a, b in pairs:
                uf.union(a, b)

        threads = [threading.Thread(target=worker, args=(p,)) for p in all_pairs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        ref = UnionFind(n)
        for pairs in all_pairs:
            for a, b in pairs:
                ref.union(a, b)
        for x in range(n):
            for y in (0, n // 2, n - 1):
                assert uf.same(x, y) == ref.same(x, y)
