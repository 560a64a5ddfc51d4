"""Differential tests: the three priority queues against Python's heapq.

A randomized CAPFOREST-like operation stream (interleaved raises and pops,
priorities clamped at a bound) is replayed against a lazy heapq-based
reference; every pop must return a maximal-key vertex.  Complements the
model check in test_priority_queues.py with much longer streams and a
second, independently written reference.  ``"bqueue-array"`` is the
array-keyed BQueue the vector CAPFOREST kernel runs on.
"""

import heapq
import random

import pytest

from repro.datastructures import make_pq

KINDS = ["bstack", "bqueue", "heap", "bqueue-array"]


def _make(kind, n, bound):
    if kind == "bqueue-array":
        return make_pq("bqueue", n, bound=bound, array_keys=True)
    return make_pq(kind, n, bound=bound)


class HeapqReference:
    """Lazy-deletion max-queue over (vertex, key) built on heapq."""

    def __init__(self, n, bound):
        self._key = [None] * n
        self._heap = []  # (-key, vertex)
        self._bound = bound
        self._size = 0

    def insert_or_raise(self, v, priority):
        new = min(priority, self._bound)
        cur = self._key[v]
        if cur is None:
            self._key[v] = new
            heapq.heappush(self._heap, (-new, v))
            self._size += 1
            return
        if cur >= self._bound or new <= cur:
            return
        self._key[v] = new
        heapq.heappush(self._heap, (-new, v))

    def pop_max(self):
        while True:
            neg, v = heapq.heappop(self._heap)
            if self._key[v] == -neg:
                self._key[v] = None
                self._size -= 1
                return v, -neg
            # stale entry, skip

    def key_of(self, v):
        return self._key[v]

    def __len__(self):
        return self._size


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_long_stream_differential(kind, seed):
    rnd = random.Random(seed)
    n, bound = 400, 50
    pq = _make(kind, n, bound)
    ref = HeapqReference(n, bound)
    for step in range(20_000):
        if len(pq) and (rnd.random() < 0.35 or len(pq) == n):
            v, k = pq.pop_max()
            rv, rk = ref.pop_max()
            # keys must match; vertices may differ among ties, but the
            # popped vertex's reference key must equal the popped key
            assert k == rk
            if v != rv:
                # re-file the reference's vertex under our semantics:
                # both must have held the same (maximal) key
                assert ref.key_of(v) == k or (v == rv)
                # put the reference pop back and remove ours instead
                ref._key[rv] = rk
                heapq.heappush(ref._heap, (-rk, rv))
                ref._size += 1
                assert ref.key_of(v) == k
                ref._key[v] = None
                ref._size -= 1
        else:
            v = rnd.randrange(n)
            p = rnd.randrange(0, 80)
            pq.insert_or_raise(v, p)
            ref.insert_or_raise(v, p)
        assert len(pq) == len(ref)
    # drain both; multiset of popped keys must be identical
    ours, theirs = [], []
    while len(pq):
        ours.append(pq.pop_max()[1])
        theirs.append(ref.pop_max()[1])
    assert ours == theirs


@pytest.mark.parametrize("kind", KINDS)
def test_monotone_drain_is_sorted(kind):
    rnd = random.Random(42)
    pq = _make(kind, 1000, 200)
    for v in range(1000):
        pq.insert_or_raise(v, rnd.randrange(0, 300))
    keys = [pq.pop_max()[1] for _ in range(1000)]
    assert keys == sorted(keys, reverse=True)
    assert max(keys) <= 200  # clamp respected


@pytest.mark.parametrize("kind", KINDS)
def test_interleaved_reinsertion_cycles(kind):
    """Vertices cycle in and out of the queue many times (as they do across
    CAPFOREST rounds on contracted graphs)."""
    pq = _make(kind, 8, 10)
    for cycle in range(50):
        for v in range(8):
            pq.insert_or_raise(v, (v + cycle) % 11)
        drained = sorted(pq.pop_max() for _ in range(8))
        assert len(drained) == 8
        assert len(pq) == 0
