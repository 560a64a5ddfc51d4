"""Zero-copy shared-memory plane for the CSR graph and worker results.

The ``processes`` executor used to rely on ``fork`` semantics: workers
inherited the coordinator's CSR arrays as copy-on-write pages, and marked
pairs travelled back through a pickle queue.  That breaks down twice —
``spawn`` (the only start method on some platforms, and the default on
macOS/Windows) re-imports the world and would pickle the whole graph per
worker, and the pair queue serialises O(marks) tuples per round.

This module replaces both channels with named ``multiprocessing.shared_memory``
segments:

* :class:`SharedGraph` — one segment holding a small header plus the three
  CSR arrays (``xadj``, ``adjncy``, ``adjwgt``).  Workers :meth:`attach
  <SharedGraph.attach>` by name and rebuild a :class:`~repro.graph.csr.Graph`
  whose arrays are *views into the segment* — zero copies under fork **and**
  spawn.
* :class:`SharedPairsBuffer` — one int64 slot holding the pass's shared
  bound ``λ̂``, then a ``p × (2(n-1)+1)`` int64 plane of
  ``[count, u0, v0, u1, v1, ...]`` rows.  Each worker writes its
  (locally deduplicated, hence ≤ n-1) marked pairs into its own row; the
  coordinator reads survivors' rows directly instead of unpickling tuples.
* :class:`SharedBytes` — a plain byte plane for the shared visited table
  ``T`` (indexable like a ``bytearray`` through ``.buf``).

Lifecycle: the **coordinator** creates the segments, workers attach and
never unlink.  ``attach`` suppresses ``resource_tracker`` registration —
Python's per-process tracker would otherwise claim ownership in every
worker and either double-unlink segments the coordinator still owns or spam
``KeyError`` warnings when a worker dies.  Cleanup is supervisor-owned: the
executor unlinks in a ``finally`` block, so even a round whose workers were
all killed leaves no segment behind (see ``tests/test_shm_graph.py``).
"""

from __future__ import annotations

import numpy as np

from .csr import Graph

_INT = np.int64
_ITEM = 8  # sizeof(int64)
#: header slots of a SharedGraph segment: n, num_arcs
_HEADER = 2


def _attach_untracked(name: str):
    """Open an existing segment without registering it with resource_tracker.

    ``SharedMemory(name=...)`` on CPython ≤ 3.12 unconditionally registers
    the mapping with the per-process resource tracker, which assumes
    ownership.  A worker is a *borrower*: if it registered, the tracker
    would unlink the coordinator's segment when the worker exits (or warn
    about the name it never unlinked).  Monkey-patching the registration
    away for the duration of the open is the documented workaround until
    ``track=False`` (3.13) is the floor.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _create(size: int):
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(create=True, size=max(size, 1))


class _Segment:
    """Common create/attach/close/unlink plumbing over one segment."""

    __slots__ = ("_shm", "_owner")

    def __init__(self, shm, owner: bool) -> None:
        self._shm = shm
        self._owner = owner

    @property
    def name(self) -> str:
        """Segment name workers use to attach."""
        return self._shm.name

    def close(self) -> None:
        """Release this process's mapping (safe to call twice)."""
        if self._shm is not None:
            self._drop_views()
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Remove the segment from the system (owner only, idempotent)."""
        if not self._owner or self._shm is None:
            return
        self._drop_views()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass  # already gone (e.g. an earlier explicit unlink)
        self._shm.close()
        self._shm = None

    def _drop_views(self) -> None:  # pragma: no cover - overridden
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()


class SharedGraph(_Segment):
    """A CSR graph exported into one named shared-memory segment.

    Layout (all ``int64``): ``[n, num_arcs, xadj..., adjncy..., adjwgt...]``.
    """

    __slots__ = ("n", "num_arcs", "_graph")

    def __init__(self, shm, owner: bool) -> None:
        super().__init__(shm, owner)
        header = np.frombuffer(shm.buf, dtype=_INT, count=_HEADER)
        self.n = int(header[0])
        self.num_arcs = int(header[1])
        self._graph: Graph | None = None

    @classmethod
    def export(cls, graph: Graph) -> "SharedGraph":
        """Copy ``graph``'s CSR arrays into a fresh segment (coordinator)."""
        n, na = graph.n, graph.num_arcs
        shm = _create(_ITEM * (_HEADER + (n + 1) + 2 * na))
        flat = np.frombuffer(shm.buf, dtype=_INT)
        flat[0] = n
        flat[1] = na
        o = _HEADER
        flat[o : o + n + 1] = graph.xadj
        o += n + 1
        flat[o : o + na] = graph.adjncy
        o += na
        flat[o : o + na] = graph.adjwgt
        del flat  # views pin the buffer; keep only graph() views alive
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedGraph":
        """Map an exported graph by segment name (worker side, zero-copy)."""
        return cls(_attach_untracked(name), owner=False)

    def graph(self) -> Graph:
        """The :class:`Graph` whose arrays are views into the segment.

        The arrays are writable in principle (shared memory has no
        read-only mode before Python 3.13) but must be treated as
        immutable, like any :class:`Graph`.
        """
        if self._graph is None:
            if self._shm is None:
                raise ValueError("shared graph segment is closed")
            n, na = self.n, self.num_arcs
            o = _HEADER
            xadj = np.frombuffer(self._shm.buf, dtype=_INT, count=n + 1, offset=_ITEM * o)
            o += n + 1
            adjncy = np.frombuffer(self._shm.buf, dtype=_INT, count=na, offset=_ITEM * o)
            o += na
            adjwgt = np.frombuffer(self._shm.buf, dtype=_INT, count=na, offset=_ITEM * o)
            self._graph = Graph(xadj, adjncy, adjwgt)
        return self._graph

    def _drop_views(self) -> None:
        # numpy views pin shm.buf; close() would raise BufferError while
        # any are alive, so forget the cached Graph first
        self._graph = None


class SharedPairsBuffer(_Segment):
    """A pass's shared bound slot plus its marked-pair return plane.

    Slot 0 of the segment holds the pass's ``λ̂`` (:attr:`bound`); row
    ``i`` that follows is ``[count, u0, v0, ..., u_{count-1}, v_{count-1}]``;
    with worker-side union–find deduplication ``count ≤ n-1`` always fits.
    """

    __slots__ = ("p", "n", "_rows", "_bound")

    def __init__(self, shm, owner: bool, p: int, n: int) -> None:
        super().__init__(shm, owner)
        self.p = p
        self.n = n
        self._rows = np.frombuffer(
            shm.buf, dtype=_INT, count=p * self.row_len(n), offset=_ITEM
        ).reshape(p, self.row_len(n))
        # at offset 0 of a page-aligned mapping the slot is 8-byte aligned,
        # so a store to it is one machine word and a read is never torn
        self._bound = shm.buf[:_ITEM].cast("q")
        if owner:
            self._rows[:, 0] = 0

    @property
    def bound(self) -> memoryview:
        """The pass's shared ``λ̂``: a one-element int64 view (``bound[0]``)
        read and written as a Python ``int``."""
        return self._bound

    @staticmethod
    def row_len(n: int) -> int:
        """int64 slots per row: a count plus up to ``n-1`` vertex pairs."""
        return 1 + 2 * max(n - 1, 0)

    @classmethod
    def create(cls, p: int, n: int) -> "SharedPairsBuffer":
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        shm = _create(_ITEM * (1 + p * cls.row_len(n)))
        return cls(shm, owner=True, p=p, n=n)

    @classmethod
    def attach(cls, name: str, p: int, n: int) -> "SharedPairsBuffer":
        return cls(_attach_untracked(name), owner=False, p=p, n=n)

    def write_pairs(self, worker_id: int, pairs) -> None:
        """Publish one worker's pair list ``[(u, v), ...]`` into its row.

        The count is written *last* so a reader never sees a count covering
        slots that are still being filled (the supervisor only reads rows
        of workers that completed their queue handshake anyway).
        """
        row = self._rows[worker_id]
        k = len(pairs)
        if 1 + 2 * k > len(row):
            raise ValueError(
                f"worker {worker_id}: {k} pairs exceed the deduplicated bound {self.n - 1}"
            )
        if k:
            row[1 : 1 + 2 * k] = np.asarray(pairs, dtype=_INT).reshape(-1)
        row[0] = k

    def read_pairs(self, worker_id: int) -> np.ndarray:
        """One worker's pairs as an ``int64[count, 2]`` array (a copy).

        Values are *not* validated here — the coordinator range-checks them
        (exactly as it would queue-delivered pairs) so a corrupt worker is
        detected and discarded, never merged.
        """
        row = self._rows[worker_id]
        k = int(row[0])
        k = min(max(k, 0), (len(row) - 1) // 2)  # clamp a corrupt count
        return row[1 : 1 + 2 * k].reshape(-1, 2).copy()

    def _drop_views(self) -> None:
        self._rows = None
        if self._bound is not None:
            self._bound.release()
            self._bound = None


class SharedBytes(_Segment):
    """A zero-initialised shared byte plane (the visited table ``T``).

    ``buf`` is indexable/assignable like a ``bytearray`` and single-byte
    writes are atomic at the hardware level, which is all the benign-race
    claim table of the paper needs.
    """

    __slots__ = ("size",)

    def __init__(self, shm, owner: bool, size: int) -> None:
        super().__init__(shm, owner)
        self.size = size
        if owner:
            shm.buf[:size] = bytes(size)

    @classmethod
    def create(cls, size: int) -> "SharedBytes":
        return cls(_create(size), owner=True, size=size)

    @classmethod
    def attach(cls, name: str, size: int) -> "SharedBytes":
        return cls(_attach_untracked(name), owner=False, size=size)

    @property
    def buf(self):
        if self._shm is None:
            raise ValueError("shared byte segment is closed")
        return self._shm.buf
