"""Mincut-as-a-service: hardened asyncio HTTP/JSON front end.

The network layer the ROADMAP's "serves heavy traffic" north star asks
for, built robustness-first on :class:`~repro.engine.SolverEngine`::

    from repro.engine import SolverEngine
    from repro.service import MinCutService, ServiceConfig

    engine = SolverEngine(pool_size=4)
    service = MinCutService(engine, ServiceConfig(port=8377))
    # inside an event loop: await service.start(); ... await service.drain()

or, as a process, ``python -m repro.service --port 8377 --pool-size 4``.

Endpoints: ``POST /v1/solve``, ``POST /v1/update`` (dynamic graphs),
``POST /v1/solve_many``, ``POST /v1/batch`` (server-side manifest),
``GET /v1/healthz``, ``GET /v1/stats``.  See
:mod:`repro.service.server` for the admission-control, deadline,
retry, and graceful-drain semantics.
"""

from .admission import Admission, AdmissionController
from .client import ServiceClient, fire_concurrent, graph_payload
from .http import HttpError
from .server import (
    ClientDisconnected,
    MinCutService,
    ServiceConfig,
    classify_failure,
    graph_from_json,
)

__all__ = [
    "Admission",
    "AdmissionController",
    "ClientDisconnected",
    "HttpError",
    "MinCutService",
    "ServiceClient",
    "ServiceConfig",
    "classify_failure",
    "fire_concurrent",
    "graph_from_json",
    "graph_payload",
]
