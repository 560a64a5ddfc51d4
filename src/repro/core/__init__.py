"""The paper's contribution: CAPFOREST engineering, NOI driver, ParCut."""

from .api import ALGORITHMS, EXACT_ALGORITHMS, minimum_cut
from .capforest import KERNELS, CapforestResult, capforest
from .connectivity import (
    edge_connectivity,
    enumerate_minimum_cuts,
    is_k_edge_connected,
    k_edge_connected_subgraphs,
)
from .mincut import parallel_mincut
from .noi import noi_mincut
from .parallel_capforest import (
    EXECUTORS,
    ParallelCapforestResult,
    WorkerReport,
    parallel_capforest,
)
from .result import MinCutResult

__all__ = [
    "ALGORITHMS",
    "EXACT_ALGORITHMS",
    "minimum_cut",
    "KERNELS",
    "CapforestResult",
    "capforest",
    "edge_connectivity",
    "enumerate_minimum_cuts",
    "is_k_edge_connected",
    "k_edge_connected_subgraphs",
    "parallel_mincut",
    "noi_mincut",
    "EXECUTORS",
    "ParallelCapforestResult",
    "WorkerReport",
    "parallel_capforest",
    "MinCutResult",
]
