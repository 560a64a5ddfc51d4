"""Dynamic graphs: incremental CSR updates and warm re-solving.

Entry points:

* :class:`DynamicGraph` — a handle over a CSR graph lineage; applies
  insert/delete edge batches by splicing them into the sorted arc arrays
  (O(b log b) work plus one copy of the arrays per batch) instead of
  rebuilding from the edge list.
* :func:`repro.engine.SolverEngine.update` — applies a batch through the
  engine and re-solves *warm*: the previous solve's λ̂, side, and strict
  CAPFOREST certificate seed the next solve (see :mod:`repro.dynamic.warm`
  for the exactness argument), and the result cache is invalidated by
  digest lineage instead of wholesale.
"""

from .graph import DynamicGraph, EdgeUpdateError, UpdateDelta, apply_updates
from .warm import WARMABLE_ALGORITHMS, WarmState, make_warm_state, warm_solve

__all__ = [
    "DynamicGraph",
    "EdgeUpdateError",
    "UpdateDelta",
    "WARMABLE_ALGORITHMS",
    "WarmState",
    "apply_updates",
    "make_warm_state",
    "warm_solve",
]
