"""Bounded bucket priority queues (paper §3.1.3).

Keys are integers in ``[0, bound]`` (the bound is the minimum-cut upper
bound ``λ̂``).  One bucket per key; the queue tracks the highest non-empty
bucket ("top bucket").  ``pop_max`` may scan down from the previous top
bucket, which is the only non-constant operation.

The two variants differ only in which end of the top bucket ``pop_max``
takes, and that difference is behaviourally important (paper §3.1.3/§4):

* :class:`BStackPQ` ("BStack", ``std::vector`` in the paper): push to back,
  pop from back.  The scan keeps revisiting the vertex whose priority it
  just raised — a depth-first-ish local exploration.
* :class:`BQueuePQ` ("BQueue", ``std::deque`` in the paper): push to back,
  pop from front.  The scan explores vertices discovered earliest first —
  closer to breadth-first — which the paper finds best for the *parallel*
  algorithm (regions grow roundly, reducing overlap).

Buckets are plain deques with *lazy deletion*: raising a key appends the
vertex to its new bucket and simply abandons the old entry, which is
recognised as stale (``key[v] != bucket``) and discarded when a pop or
drain next walks over it.  Every entry is appended once and discarded at
most once, so all operations stay amortised O(1) — and, unlike the
intrusive doubly-linked buckets this replaces, a raise does *no* unlink
work and the vector CAPFOREST kernel can apply a whole batch of
relaxations with one ``deque.extend`` per destination bucket.

Lazy deletion never changes what ``pop_max`` returns: an entry is taken
only if its vertex currently holds exactly that key, and taking it
invalidates the vertex's other entries, so keys are always current and no
vertex pops twice.  The one observable difference is FIFO *tie order* in a
corner case CAPFOREST cannot reach (popped vertices are visited and never
relaxed again): a vertex re-inserted after a pop, at a key whose bucket
still holds one of its stale entries, resumes that entry's queue position
instead of the back.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat

import numpy as np

from .pq import PQStats

_ABSENT = -1


class _BucketPQBase:
    """Common machinery; subclasses choose which end of the top bucket to pop."""

    __slots__ = ("_n", "_bound", "_key", "_buckets", "_top", "_size", "stats")

    def __init__(self, n: int, bound: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if bound < 0:
            raise ValueError(f"bound must be non-negative, got {bound}")
        self._n = n
        self._bound = int(bound)
        # _key[v] == _ABSENT  <=>  v is not in the queue; otherwise v's
        # newest entry sits in bucket _key[v] and older entries are stale
        self._key = [_ABSENT] * n
        self._buckets: list[deque | None] = [None] * (self._bound + 1)
        self._top = -1
        self._size = 0
        self.stats = PQStats()

    # -- public interface ---------------------------------------------------

    @property
    def bound(self) -> int:
        return self._bound

    def insert_or_raise(self, v: int, priority: int) -> None:
        if priority < 0:
            raise ValueError(f"priority must be non-negative, got {priority}")
        bound = self._bound
        cur = self._key[v]
        new = priority if priority < bound else bound
        if cur == _ABSENT:
            self._key[v] = new
            dq = self._buckets[new]
            if dq is None:
                dq = self._buckets[new] = deque()
            dq.append(v)
            self._size += 1
            if new > self._top:
                self._top = new
            self.stats.pushes += 1
            return
        if cur >= bound:
            # Lemma 3.1: vertices already at the bound are never updated.
            self.stats.skipped_updates += 1
            return
        if new <= cur:
            return
        self._key[v] = new  # the entry in bucket ``cur`` goes stale
        dq = self._buckets[new]
        if dq is None:
            dq = self._buckets[new] = deque()
        dq.append(v)
        if new > self._top:
            self._top = new
        self.stats.updates += 1

    def pop_max(self) -> tuple[int, int]:  # pragma: no cover - abstract
        raise NotImplementedError

    def top_key(self) -> int:  # pragma: no cover - abstract
        """Key of the current maximum without popping it (-1 if empty)."""
        raise NotImplementedError

    def key_of(self, v: int) -> int:
        """Current key of ``v``; raises KeyError if absent."""
        k = self._key[v]
        if k == _ABSENT:
            raise KeyError(v)
        return k

    # -- batch interface (vector CAPFOREST kernel) --------------------------

    def apply_relaxations(
        self,
        vs: np.ndarray,
        old_keys: np.ndarray | None,
        new_keys: np.ndarray,
        *,
        n_pushes: int | None = None,
    ) -> None:
        """Bulk-apply precomputed insert-or-raise outcomes, in event order.

        ``old_keys[i] == -1`` means ``vs[i]`` is absent (a push); any other
        value marks a raise (lazy deletion makes the old bucket itself
        irrelevant).  A caller that already knows how many of the vertices
        are pushes may pass ``n_pushes`` (and ``old_keys=None``) to skip the
        counting pass.  Vertices must be distinct.  Stats are *not* touched:
        the vector kernel accounts for every logical event itself —
        including the intermediate moves this bulk form elides (a vertex
        raised several times in one batch is appended once, to its final
        bucket) — so its counters stay identical to the scalar kernel's.
        """
        buckets = self._buckets
        vs = np.asarray(vs, dtype=np.int64)
        new_keys = np.asarray(new_keys, dtype=np.int64)
        self._set_keys(vs, new_keys)
        if n_pushes is None:
            n_pushes = int((np.asarray(old_keys) < 0).sum())
        self._size += n_pushes
        if not len(vs):
            return
        lo_k = int(new_keys.min())
        hi_k = int(new_keys.max())
        if lo_k == hi_k:
            # single destination bucket (at the priority clamp this is the
            # overwhelmingly common batch): one extend, no sorting at all
            dq = buckets[hi_k]
            if dq is None:
                dq = buckets[hi_k] = deque()
            dq.extend(vs.tolist())
        else:
            # group appends by destination bucket; the stable sort preserves
            # event order within each bucket, so FIFO/LIFO order is exact
            # (narrowed to int16 when the bound allows: numpy's stable sort
            # is then a radix sort, an order of magnitude faster)
            sort_keys = new_keys
            if self._bound <= 32767:
                sort_keys = new_keys.astype(np.int16, copy=False)
            order = np.argsort(sort_keys, kind="stable")
            nk_s = new_keys[order]
            vs_l = vs[order].tolist()
            starts = np.flatnonzero(np.diff(nk_s)) + 1
            bounds = [0, *starts.tolist(), len(vs_l)]
            # destination keys as plain ints up front: the loop below then
            # runs on list slices only (no numpy scalars per bucket)
            group_keys = nk_s[np.concatenate(([0], starts))].tolist()
            for i, b in enumerate(group_keys):
                dq = buckets[b]
                if dq is None:
                    dq = buckets[b] = deque()
                dq.extend(vs_l[bounds[i] : bounds[i + 1]])
        if hi_k > self._top:
            self._top = hi_k

    def insert_many(self, vs: np.ndarray, priorities: np.ndarray) -> None:
        """Vectorized :meth:`insert_or_raise` over distinct vertices.

        Equivalent to calling the scalar method once per position, in array
        order (so FIFO/LIFO tie-breaking is preserved bit-for-bit), but the
        no-op majority — vertices already at the bound, or not actually
        raised — is filtered with array expressions before any bucket
        appends happen.
        """
        vs = np.asarray(vs, dtype=np.int64)
        priorities = np.asarray(priorities, dtype=np.int64)
        if vs.size == 0:
            return
        bound = self._bound
        cur = self._get_keys(vs)
        new = np.minimum(priorities, bound)
        push = cur == _ABSENT
        skip = (~push) & (cur >= bound)
        raise_ = (~push) & (~skip) & (new > cur)
        st = self.stats
        st.pushes += int(push.sum())
        st.skipped_updates += int(skip.sum())
        st.updates += int(raise_.sum())
        moved = push | raise_
        if moved.any():
            old = np.where(push, -1, cur)
            self.apply_relaxations(vs[moved], old[moved], new[moved])

    # paper-facing alias: CAPFOREST priorities only ever increase
    increase_many = insert_many

    def _set_keys(self, vs: np.ndarray, new_keys: np.ndarray) -> None:
        # bulk scatter into the key list at C speed (consume the map fully)
        deque(map(self._key.__setitem__, vs.tolist(), new_keys.tolist()), maxlen=0)

    def _get_keys(self, vs: np.ndarray) -> np.ndarray:
        return np.fromiter(map(self._key.__getitem__, vs.tolist()), dtype=np.int64,
                           count=len(vs))

    def __len__(self) -> int:
        return self._size

    def __contains__(self, v: int) -> bool:
        return self._key[v] != _ABSENT


class BStackPQ(_BucketPQBase):
    """Bucket queue popping the *most recently pushed* element of the top bucket."""

    __slots__ = ()

    def pop_max(self) -> tuple[int, int]:
        if self._size == 0:
            raise IndexError("pop from empty priority queue")
        key = self._key
        buckets = self._buckets
        b = self._top
        while True:
            dq = buckets[b]
            if dq:
                v = dq.pop()
                if key[v] == b:
                    break
            else:
                b -= 1
        self._top = b
        key[v] = _ABSENT
        self._size -= 1
        self.stats.pops += 1
        return v, b

    def top_key(self) -> int:
        if self._size == 0:
            return -1
        key = self._key
        buckets = self._buckets
        b = self._top
        while True:
            dq = buckets[b]
            if dq:
                if key[dq[-1]] == b:
                    self._top = b
                    return b
                dq.pop()
            else:
                b -= 1


class BQueuePQ(_BucketPQBase):
    """Bucket queue popping the *earliest pushed* element of the top bucket."""

    __slots__ = ()

    def pop_max(self) -> tuple[int, int]:
        if self._size == 0:
            raise IndexError("pop from empty priority queue")
        key = self._key
        buckets = self._buckets
        b = self._top
        while True:
            dq = buckets[b]
            if dq:
                v = dq.popleft()
                if key[v] == b:
                    break
            else:
                b -= 1
        self._top = b
        key[v] = _ABSENT
        self._size -= 1
        self.stats.pops += 1
        return v, b

    def top_key(self) -> int:
        if self._size == 0:
            return -1
        key = self._key
        buckets = self._buckets
        b = self._top
        while True:
            dq = buckets[b]
            if dq:
                if key[dq[0]] == b:
                    self._top = b
                    return b
                dq.popleft()
            else:
                b -= 1

    def top_may_reach(self, b: int) -> bool:
        """False guarantees the top key is below ``b`` — without settling.

        ``_top`` only ever overestimates the true top bucket (stale entries
        are discarded lazily), so this is a constant-time negative filter
        the vector kernel runs before the real :meth:`top_key` peek.
        """
        return self._top >= b

    def top_bucket_len(self) -> int:
        """Entry count of the top bucket, *including* stale entries.

        A fast upper bound on what :meth:`drain_top_bucket` would return,
        used by the vector kernel to decide whether draining pays.  At the
        priority clamp the bound is exact in CAPFOREST use: nothing can be
        raised out of the bound bucket, so its entries only leave by being
        popped — which removes them physically.
        """
        if self._size == 0:
            return 0
        self.top_key()  # discards leading stale entries, settles _top
        dq = self._buckets[self._top]
        return len(dq) if dq is not None else 0

    def drain_top_bucket(self) -> list[int]:
        """Pop *every* element of the top bucket, in FIFO order.

        Exactly equivalent to repeated :meth:`pop_max` while the top bucket
        lasts, because relaxing a drained vertex can never re-enter a
        *higher* bucket (keys are clamped to the bound) and FIFO order means
        later arrivals to this bucket are popped after the current members
        anyway.  This equivalence is BQueue-specific — BStack pops the most
        recent arrival, so draining would reorder its scan — which is why
        the vector kernel's cross-pop batching engages for BQueue only.
        """
        if self._size == 0:
            raise IndexError("pop from empty priority queue")
        key = self._key
        buckets = self._buckets
        b = self._top
        while True:
            dq = buckets[b]
            if dq:
                if key[dq[0]] == b:
                    break
                dq.popleft()
            else:
                b -= 1
        self._top = b
        out = self._take_live(dq, b)
        dq.clear()
        self._size -= len(out)
        self.stats.pops += len(out)
        return out

    def _take_live(self, dq: deque, b: int) -> list[int]:
        """The entries of bucket ``b`` still keyed ``b``, marked popped."""
        # the filter drops stale entries; the C-level map marks the live
        # ones popped in bulk
        key = self._key
        out = [v for v in dq if key[v] == b]
        deque(map(key.__setitem__, out, repeat(_ABSENT)), maxlen=0)
        return out


class BQueueArrayPQ(BQueuePQ):
    """BQueue with the per-vertex key table in an int64 numpy array.

    Every batch operation touches the key table in single vectorized
    passes: :meth:`apply_relaxations` scatters all key updates at once and
    :meth:`drain_top_bucket` filters staleness with one gather + compare.
    The inherited scalar operations index a ``memoryview`` of the same
    buffer, whose items are plain ints, so they run the list-backed code
    of :class:`BQueuePQ` unchanged at close to its speed (a numpy scalar
    read and compare costs several times more).  This is the backing the
    vector CAPFOREST kernel selects; the scalar kernel keeps the
    plain-list variant, whose per-call costs are lowest on its all-scalar
    operation mix.
    """

    __slots__ = ("_key_arr",)

    def __init__(self, n: int, bound: int) -> None:
        super().__init__(n, bound)
        self._key_arr = np.full(n, _ABSENT, dtype=np.int64)
        self._key = memoryview(self._key_arr)

    def _set_keys(self, vs: np.ndarray, new_keys: np.ndarray) -> None:
        self._key_arr[vs] = new_keys  # one scatter replaces the per-vertex write loop

    def _get_keys(self, vs: np.ndarray) -> np.ndarray:
        return self._key_arr[vs]  # one gather replaces the per-vertex read loop

    def _take_live(self, dq: deque, b: int) -> list[int]:
        arr = np.array(dq, dtype=np.int64)
        key = self._key_arr
        live = arr[key[arr] == b]
        key[live] = _ABSENT  # marks popped and drops stale entries in bulk
        return live.tolist()
