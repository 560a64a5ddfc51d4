"""Addressable binary max-heap with the bottom-up deletion heuristic.

This is the paper's "Heap" variant (§3.1.3): a Williams binary heap made
addressable through a position array, using Wegener's bottom-up heuristic
for ``pop_max`` — the hole left by the maximum is sifted all the way down
along the path of larger children, then the displaced last element is
re-inserted there and sifted up.  On random inputs this performs roughly
half the comparisons of the classic top-down deletion because the last
element usually belongs near the bottom.

Supports the same optional priority bound ``λ̂`` as the bucket queues:
effective keys are clamped to the bound and update requests for vertices
already at the bound are skipped (Lemma 3.1).  Unlike bucket queues, the
heap also works unbounded — that configuration is the paper's baseline
``NOI-HNSS``.
"""

from __future__ import annotations

from .pq import PQStats

_ABSENT = -1


class HeapPQ:
    """Addressable integer-keyed binary max-heap over ``{0..n-1}``."""

    __slots__ = ("_n", "_bound", "_key", "_pos", "_heap", "stats")

    def __init__(self, n: int, bound: int | None = None) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if bound is not None and bound < 0:
            raise ValueError(f"bound must be non-negative, got {bound}")
        self._n = n
        self._bound = bound
        self._key = [0] * n
        self._pos = [_ABSENT] * n  # _pos[v] == _ABSENT  <=>  v not in heap
        self._heap: list[int] = []
        self.stats = PQStats()

    @property
    def bound(self) -> int | None:
        return self._bound

    # -- sift operations ------------------------------------------------------

    def _sift_up(self, i: int) -> None:
        heap, key, pos = self._heap, self._key, self._pos
        v = heap[i]
        kv = key[v]
        while i > 0:
            parent = (i - 1) >> 1
            p = heap[parent]
            if key[p] >= kv:
                break
            heap[i] = p
            pos[p] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _sift_down_bottom_up(self, hole: int) -> None:
        """Move the hole at ``hole`` to a leaf along max-children, then place
        the last heap element into it and sift up (Wegener's heuristic)."""
        heap, key, pos = self._heap, self._key, self._pos
        last = heap.pop()
        size = len(heap)
        if size == 0 or hole == size:
            # heap emptied, or the hole was the last slot: nothing to re-insert
            return
        # walk the hole down along the larger child
        i = hole
        while True:
            child = 2 * i + 1
            if child >= size:
                break
            right = child + 1
            if right < size and key[heap[right]] > key[heap[child]]:
                child = right
            heap[i] = heap[child]
            pos[heap[i]] = i
            i = child
        # drop the last element into the final hole and repair upwards
        heap[i] = last
        pos[last] = i
        self._sift_up(i)

    # -- public interface -------------------------------------------------------

    def insert_or_raise(self, v: int, priority: int) -> None:
        if priority < 0:
            raise ValueError(f"priority must be non-negative, got {priority}")
        bound = self._bound
        new = priority if bound is None or priority < bound else bound
        pos = self._pos[v]
        if pos == _ABSENT:
            self._key[v] = new
            self._heap.append(v)
            self._pos[v] = len(self._heap) - 1
            self._sift_up(len(self._heap) - 1)
            self.stats.pushes += 1
            return
        cur = self._key[v]
        if bound is not None and cur >= bound:
            self.stats.skipped_updates += 1
            return
        if new <= cur:
            return
        self._key[v] = new
        self._sift_up(pos)
        self.stats.updates += 1

    def pop_max(self) -> tuple[int, int]:
        if not self._heap:
            raise IndexError("pop from empty priority queue")
        v = self._heap[0]
        k = self._key[v]
        self._pos[v] = _ABSENT
        self._sift_down_bottom_up(0)
        self.stats.pops += 1
        return v, k

    def key_of(self, v: int) -> int:
        """Current key of ``v``; raises KeyError if absent."""
        if self._pos[v] == _ABSENT:
            raise KeyError(v)
        return self._key[v]

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, v: int) -> bool:
        return self._pos[v] != _ABSENT

    def _check_heap_property(self) -> bool:
        """Invariant check used by tests: every parent >= both children and
        the position array is consistent."""
        heap, key, pos = self._heap, self._key, self._pos
        for i, v in enumerate(heap):
            if pos[v] != i:
                return False
            child = 2 * i + 1
            if child < len(heap) and key[heap[child]] > key[v]:
                return False
            if child + 1 < len(heap) and key[heap[child + 1]] > key[v]:
                return False
        return True
