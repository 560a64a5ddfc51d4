"""Priority queues and union–find structures used by the min-cut solvers."""

from .binary_heap import HeapPQ
from .bucket_pq import BQueuePQ, BStackPQ
from .concurrent_union_find import LockStripedUnionFind
from .pq import PQ_NAMES, MaxPriorityQueue, PQStats, make_pq
from .union_find import UnionFind

__all__ = [
    "HeapPQ",
    "BQueuePQ",
    "BStackPQ",
    "LockStripedUnionFind",
    "PQ_NAMES",
    "MaxPriorityQueue",
    "PQStats",
    "make_pq",
    "UnionFind",
]
