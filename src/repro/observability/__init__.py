"""Structured observability: tracing, metrics, and record schemas.

The solvers are instrumented at *round/pass* granularity with an optional
:class:`Tracer` — round boundaries, λ̂ updates with provenance, contraction
ratios, per-worker events, executor degradations, and priority-queue
counter deltas — with an in-memory ring plus an optional JSONL sink.  When
no tracer is passed (the default) the instrumentation is a single ``None``
check per round, and the per-edge hot loops are untouched either way.

Entry points:

* :class:`Tracer` — create with ``Tracer()`` (ring only) or
  ``Tracer(sink=path)`` (ring + JSONL), pass as ``tracer=`` to
  ``minimum_cut`` / ``parallel_mincut`` / ``noi_mincut`` / ``viecut``.
* CLI: ``repro-mincut --trace PATH --metrics-json PATH``.
* Validation: :func:`~repro.observability.schema.validate_trace_file`,
  :func:`~repro.observability.schema.validate_bench_file`, or
  ``python -m repro.observability.validate`` (used by CI).

See ``docs/IMPLEMENTATION_NOTES.md`` §13 for the event taxonomy, the
stats schema contract, and the overhead budget.
"""

from .schema import (
    BENCH_SCHEMA_VERSION,
    EVENT_KINDS,
    LAMBDA_PROVENANCE,
    PARCUT_PHASES,
    PARCUT_STATS_KEYS,
    STATS_SCHEMA_VERSION,
    SchemaError,
    validate_bench_file,
    validate_bench_payload,
    validate_event,
    validate_parcut_stats,
    validate_trace_events,
    validate_trace_file,
)
from .tracer import Tracer, jsonable

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "EVENT_KINDS",
    "LAMBDA_PROVENANCE",
    "PARCUT_PHASES",
    "PARCUT_STATS_KEYS",
    "STATS_SCHEMA_VERSION",
    "SchemaError",
    "Tracer",
    "jsonable",
    "validate_bench_file",
    "validate_bench_payload",
    "validate_event",
    "validate_parcut_stats",
    "validate_trace_events",
    "validate_trace_file",
]
