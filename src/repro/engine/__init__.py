"""Persistent solver engine: pooled workers, batching, result cache.

See :mod:`repro.engine.engine` for the architecture overview.  The usual
entry point is::

    from repro.engine import SolverEngine

    with SolverEngine(pool_size=4) as engine:
        results = engine.solve_many(graphs, algorithm="parcut", seed=0)
"""

from .cache import ResultCache
from .engine import (
    DEFAULT_MAX_RECYCLES,
    EngineClosed,
    EngineFuture,
    RequestCancelled,
    SolverEngine,
)
from .keys import UnkeyableRequest, graph_digest, request_key
from .planes import PlaneRegistry

__all__ = [
    "DEFAULT_MAX_RECYCLES",
    "EngineClosed",
    "EngineFuture",
    "PlaneRegistry",
    "RequestCancelled",
    "ResultCache",
    "SolverEngine",
    "UnkeyableRequest",
    "graph_digest",
    "request_key",
]
