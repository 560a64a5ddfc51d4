"""Priority queues and union–find structures used by the min-cut solvers."""

from .binary_heap import HeapPQ
from .bucket_pq import BQueuePQ, BStackPQ
from .pq import PQ_NAMES, MaxPriorityQueue, PQStats, make_pq
from .union_find import UnionFind

__all__ = [
    "HeapPQ",
    "BQueuePQ",
    "BStackPQ",
    "PQ_NAMES",
    "MaxPriorityQueue",
    "PQStats",
    "make_pq",
    "UnionFind",
]
