"""Event taxonomy and record schemas for the observability subsystem.

Three machine-readable contracts live here, each with a validator so CI and
downstream tooling (benchmark collectors, figure scripts, dashboards) can
consume solver output without key-existence guessing:

* **Trace events** (:data:`EVENT_KINDS`) — the structured records a
  :class:`~repro.observability.Tracer` emits.  Every event carries a
  strictly increasing ``seq``, a relative timestamp ``t`` (seconds since
  the tracer was created), and a ``kind`` from the taxonomy; λ̂ updates
  additionally carry a ``provenance`` from :data:`LAMBDA_PROVENANCE`
  naming which mechanism produced the bound.
* **Solver stats** (:data:`STATS_SCHEMA_VERSION`,
  :data:`PARCUT_STATS_KEYS`) — :func:`repro.core.mincut.parallel_mincut`
  returns the *same* key set on every return path (including the
  disconnected-graph and two-vertex early exits), with
  ``stats["stats_schema"] ==`` :data:`STATS_SCHEMA_VERSION` so consumers
  can branch on shape.
* **Benchmark records** (:data:`BENCH_SCHEMA_VERSION`) — every
  ``BENCH_*.json`` file written by the benchmark suite is an object with
  ``schema_version`` / ``benchmark`` / ``graph`` / ``records``, and every
  record names its ``variant`` / ``kernel`` / ``executor`` — so records
  stay machine-parseable across PRs.
"""

from __future__ import annotations

import json

#: version of the ``MinCutResult.stats`` contract documented here.  v1 was
#: the historical ad-hoc dict whose keys differed between return paths;
#: v2 is the normalized schema (every path emits every key); v3 drops the
#: kernel-fallback note with the retired ``"compiled"`` kernel name; v4
#: drops tree packing's executor keys with its process fan-out.
STATS_SCHEMA_VERSION = 4

#: version of the ``BENCH_*.json`` record contract.
BENCH_SCHEMA_VERSION = 1

#: every event kind a tracer may emit.
EVENT_KINDS = frozenset(
    {
        "solve_start",  # once, before any work: algorithm, n, m, config
        "solve_end",  # once, last event: final value, rounds, seconds
        "round_start",  # per NOI/ParCut round, counted from 1: round, n, m, λ̂ in
        "round_end",  # per round: λ̂ out, marks, n_after/n_before, PQ deltas
        "lambda_update",  # best-known bound improved: value + provenance
        "viecut_start",  # VieCut seeding began
        "viecut_level",  # one VieCut multilevel round: n before/after
        "viecut_end",  # VieCut seeding done: value, levels, remnant size
        "capforest_pass",  # one *sequential* CAPFOREST pass (incl. fallbacks)
        "parallel_pass",  # one parallel CAPFOREST pass: work, λ̂, marks
        "worker_report",  # per-worker counters from a parallel pass
        "worker_event",  # a worker was lost/crashed/timed out/corrupt
        "degradation",  # executor stepped down the ladder
        # -- engine-level kinds (repro.engine): the request-granularity view
        "engine_start",  # once per engine: pool size, cache size, start method
        "engine_stop",  # once, on close: request counters, cache hit/miss
        "request_start",  # per submitted request: digest, algorithm, n, m
        "request_end",  # per request: status (ok/cached/timeout/...), seconds
        "cache_hit",  # a request was served from the result cache
        "pool_recycle",  # a pool worker was respawned, or the pool abandoned
        # -- dynamic-graph kinds (repro.dynamic): the update-stream view
        "graph_update",  # an edge batch was applied: digests, sizes, weights
        "warm_solve",  # a warm re-solve ran: mode, seed bound, seconds
        # -- service-level kinds (repro.service): the network front-end view
        "service_start",  # once per server: host, port, admission budgets
        "service_stop",  # once, on shutdown: request counters
        "request_admitted",  # an HTTP request passed admission control
        "request_shed",  # an HTTP request was load-shed: shed_reason, queue_depth
        "request_done",  # an HTTP request finished: status code, seconds
        "client_disconnect",  # a client vanished mid-request; work was cancelled
        "drain_begin",  # graceful drain started: inflight count at entry
        "drain_end",  # graceful drain finished: drained/cancelled counts
        # -- cactus kinds (repro.cactus): the all-min-cuts view
        "cactus_build_start",  # construction began: n, m, lam
        "cactus_build_end",  # done: contracted n, cut/node/cycle counts, seconds
        "cactus_query",  # a query ran on the structure: query name + answer
        # -- tree-packing kinds (repro.treepack): the karger-nlt view
        "treepack_round",  # one pack+evaluate round: packing bound, λ̂, certificate
        "treepack_tree",  # one tree examined: 1-/2-respecting minima, best value
    }
)

#: where a ``lambda_update`` bound came from.  ``disconnected`` covers the
#: value-0 early return (one component versus the rest); ``treepack`` is a
#: 1- or 2-respecting cut of a packed spanning tree (``karger-nlt``); the
#: other four are the mechanisms of Algorithm 2.
LAMBDA_PROVENANCE = (
    "viecut",
    "scan-cut",
    "min-degree",
    "seq-fallback",
    "disconnected",
    "treepack",
)

#: the wall-time phases profiled by ``parallel_mincut`` — always all
#: present in ``stats["phase_seconds"]`` (0.0 when a phase never ran).
PARCUT_PHASES = ("viecut", "capforest", "seq_fallback", "contract")

#: canonical key set of ``parallel_mincut(...).stats`` under the stats
#: schema.  Every return path emits exactly these keys.
PARCUT_STATS_KEYS = frozenset(
    {
        "stats_schema",
        "pq_kind",
        "executor",
        "kernel",
        "kernel_resolved",
        "workers",
        "rounds",
        "seq_fallback_rounds",
        "total_work",
        "makespan_work",
        "edges_scanned",
        "vertices_scanned",
        "pq_pushes",
        "pq_updates",
        "pq_skipped_updates",
        "pq_pops",
        "viecut_value",
        "worker_events",
        "degradations",
        "start_method",
        "final_executor",
        "modeled_speedup",
        "contraction_ratios",
        "phase_seconds",
    }
)


#: the wall-time phases profiled by ``karger_nlt_mincut`` — always all
#: present in ``stats["phase_seconds"]`` (0.0 when a phase never ran).
TREEPACK_PHASES = ("packing", "dp")

#: canonical key set of ``karger_nlt_mincut(...).stats`` under the stats
#: schema.  Every return path (including disconnected early exit) emits
#: exactly these keys.
TREEPACK_STATS_KEYS = frozenset(
    {
        "stats_schema",
        "seed",
        "rounds",
        "trees_packed",
        "trees_evaluated",
        "distinct_trees",
        "packing_value_lb",
        "certified",
        "min_degree_bound",
        "one_respect_min",
        "two_respect_min",
        "phase_seconds",
    }
)


class SchemaError(ValueError):
    """A trace event, stats dict, or benchmark record violates its schema."""


def validate_event(event: dict) -> dict:
    """Check one trace event against the taxonomy; return it unchanged."""
    if not isinstance(event, dict):
        raise SchemaError(f"event is not an object: {event!r}")
    for key in ("seq", "t", "kind"):
        if key not in event:
            raise SchemaError(f"event missing required key {key!r}: {event!r}")
    kind = event["kind"]
    if kind not in EVENT_KINDS:
        raise SchemaError(f"unknown event kind {kind!r}")
    if kind == "lambda_update":
        if "value" not in event:
            raise SchemaError(f"lambda_update without value: {event!r}")
        prov = event.get("provenance")
        if prov not in LAMBDA_PROVENANCE:
            raise SchemaError(
                f"lambda_update provenance {prov!r} not in {LAMBDA_PROVENANCE}"
            )
    return event


def validate_trace_events(events) -> dict:
    """Validate an iterable of trace events (already-parsed dicts).

    Checks every event against the taxonomy, requires strictly increasing
    ``seq``, and — when a ``solve_end`` event is present — requires its
    ``value`` to equal the last ``lambda_update``'s value (the λ̂
    trajectory must land on the reported minimum cut).

    Returns a summary dict: event count, count per kind, the λ̂ trajectory,
    and the final λ̂.
    """
    last_seq = None
    by_kind: dict[str, int] = {}
    lambda_trajectory: list[int] = []
    solve_end_value = None
    count = 0
    for ev in events:
        validate_event(ev)
        count += 1
        if last_seq is not None and ev["seq"] <= last_seq:
            raise SchemaError(
                f"event seq not strictly increasing: {ev['seq']} after {last_seq}"
            )
        last_seq = ev["seq"]
        by_kind[ev["kind"]] = by_kind.get(ev["kind"], 0) + 1
        if ev["kind"] == "lambda_update":
            lambda_trajectory.append(ev["value"])
        elif ev["kind"] == "solve_end":
            solve_end_value = ev.get("value")
    if count == 0:
        raise SchemaError("trace contains no events")
    if solve_end_value is not None and lambda_trajectory:
        if solve_end_value != lambda_trajectory[-1]:
            raise SchemaError(
                f"solve_end value {solve_end_value} != final lambda_update "
                f"{lambda_trajectory[-1]}"
            )
    return {
        "events": count,
        "by_kind": by_kind,
        "lambda_trajectory": lambda_trajectory,
        "final_lambda": lambda_trajectory[-1] if lambda_trajectory else None,
    }


def validate_trace_file(path) -> dict:
    """Parse and validate one JSONL trace file; return the summary."""

    def lines():
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{path}:{lineno}: not valid JSON: {exc}") from None

    return validate_trace_events(lines())


def validate_parcut_stats(stats: dict) -> dict:
    """Check a ``parallel_mincut`` stats dict against the stats schema."""
    if not isinstance(stats, dict):
        raise SchemaError("stats is not a dict")
    if stats.get("stats_schema") != STATS_SCHEMA_VERSION:
        raise SchemaError(
            f"stats_schema is {stats.get('stats_schema')!r}, "
            f"expected {STATS_SCHEMA_VERSION}"
        )
    missing = PARCUT_STATS_KEYS - set(stats)
    if missing:
        raise SchemaError(f"stats missing keys: {sorted(missing)}")
    phases = stats["phase_seconds"]
    if set(phases) != set(PARCUT_PHASES):
        raise SchemaError(
            f"phase_seconds keys {sorted(phases)} != {sorted(PARCUT_PHASES)}"
        )
    return stats


def validate_treepack_stats(stats: dict) -> dict:
    """Check a ``karger_nlt_mincut`` stats dict against the stats schema."""
    if not isinstance(stats, dict):
        raise SchemaError("stats is not a dict")
    if stats.get("stats_schema") != STATS_SCHEMA_VERSION:
        raise SchemaError(
            f"stats_schema is {stats.get('stats_schema')!r}, "
            f"expected {STATS_SCHEMA_VERSION}"
        )
    missing = TREEPACK_STATS_KEYS - set(stats)
    if missing:
        raise SchemaError(f"stats missing keys: {sorted(missing)}")
    extra = set(stats) - TREEPACK_STATS_KEYS
    if extra:
        raise SchemaError(f"stats has unknown keys: {sorted(extra)}")
    phases = stats["phase_seconds"]
    if set(phases) != set(TREEPACK_PHASES):
        raise SchemaError(
            f"phase_seconds keys {sorted(phases)} != {sorted(TREEPACK_PHASES)}"
        )
    return stats


#: keys every ``BENCH_*.json`` top-level object must carry.
BENCH_TOP_KEYS = ("schema_version", "benchmark", "graph", "records")

#: keys every entry in ``records`` must carry.
BENCH_RECORD_KEYS = ("variant", "kernel", "executor", "wall_s")


def validate_bench_payload(payload: dict) -> dict:
    """Check one benchmark JSON document against the bench-record schema.

    ``headline_metric``, when present, must name a numeric top-level key —
    it is what the generic bench gate compares when no ``--metric`` is
    passed, so a dangling or non-numeric pointer is a schema error.
    """
    if not isinstance(payload, dict):
        raise SchemaError("benchmark payload is not an object")
    for key in BENCH_TOP_KEYS:
        if key not in payload:
            raise SchemaError(f"benchmark payload missing {key!r}")
    headline = payload.get("headline_metric")
    if headline is not None:
        if not isinstance(headline, str) or headline not in payload:
            raise SchemaError(
                f"headline_metric {headline!r} does not name a top-level key"
            )
        if not isinstance(payload[headline], (int, float)) or isinstance(
            payload[headline], bool
        ):
            raise SchemaError(
                f"headline_metric {headline!r} points at a non-numeric value: "
                f"{payload[headline]!r}"
            )
    if payload["schema_version"] != BENCH_SCHEMA_VERSION:
        raise SchemaError(
            f"benchmark schema_version is {payload['schema_version']!r}, "
            f"expected {BENCH_SCHEMA_VERSION}"
        )
    records = payload["records"]
    if not isinstance(records, list) or not records:
        raise SchemaError("benchmark payload has no records")
    for i, rec in enumerate(records):
        for key in BENCH_RECORD_KEYS:
            if key not in rec:
                raise SchemaError(f"record {i} missing {key!r}: {rec!r}")
        if not (isinstance(rec["wall_s"], (int, float)) and rec["wall_s"] > 0):
            raise SchemaError(f"record {i} wall_s not positive: {rec['wall_s']!r}")
    return payload


def validate_bench_file(path) -> dict:
    """Parse and validate one ``BENCH_*.json`` file; return the payload."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    return validate_bench_payload(payload)
