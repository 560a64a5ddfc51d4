"""Validate observability artifacts from the command line.

Used by the CI trace-smoke and bench-smoke steps::

    python -m repro.observability.validate trace.jsonl
    python -m repro.observability.validate trace.jsonl --metrics metrics.json
    python -m repro.observability.validate --bench BENCH_parcut.json

Exit code 0 when every named artifact validates, 1 otherwise (with the
schema violation on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from .schema import (
    STATS_SCHEMA_VERSION,
    SchemaError,
    validate_bench_file,
    validate_parcut_stats,
    validate_trace_file,
    validate_treepack_stats,
)

#: stats keys that ``minimum_cut(all_cuts=True)`` adds to a solver's own
_CACTUS_STATS_KEYS = ("num_min_cuts", "most_balanced")


def validate_metrics_file(path) -> dict:
    """Check a ``--metrics-json`` document written by the CLI.

    A ParCut (``parcut-*``) or ``karger-nlt`` document's ``stats`` must
    also match that solver's stats schema.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    for key in ("schema_version", "algorithm", "n", "m", "value", "seconds", "stats"):
        if key not in payload:
            raise SchemaError(f"metrics document missing {key!r}")
    if payload["schema_version"] != STATS_SCHEMA_VERSION:
        raise SchemaError(
            f"metrics schema_version is {payload['schema_version']!r}, "
            f"expected {STATS_SCHEMA_VERSION}"
        )
    algorithm, stats = payload["algorithm"], payload["stats"]
    if str(algorithm).startswith("parcut"):
        validate_parcut_stats(stats)
    elif algorithm == "karger-nlt":
        if isinstance(stats, dict):
            stats = {key: value for key, value in stats.items()
                     if key not in _CACTUS_STATS_KEYS}
        validate_treepack_stats(stats)
    return payload


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.observability.validate", description=__doc__
    )
    ap.add_argument("trace", nargs="?", help="JSONL trace file to validate")
    ap.add_argument("--metrics", help="metrics JSON document (CLI --metrics-json output)")
    ap.add_argument("--bench", help="BENCH_*.json benchmark record to validate")
    args = ap.parse_args(argv)
    if not (args.trace or args.metrics or args.bench):
        ap.error("nothing to validate: pass a trace file, --metrics, or --bench")

    try:
        if args.trace:
            summary = validate_trace_file(args.trace)
            print(
                f"{args.trace}: {summary['events']} events ok, "
                f"final lambda {summary['final_lambda']}"
            )
        if args.metrics:
            payload = validate_metrics_file(args.metrics)
            print(
                f"{args.metrics}: schema v{payload['schema_version']} ok, "
                f"value {payload['value']}"
            )
        if args.bench:
            payload = validate_bench_file(args.bench)
            print(
                f"{args.bench}: schema v{payload['schema_version']} ok, "
                f"{len(payload['records'])} records"
            )
    except (OSError, SchemaError, json.JSONDecodeError) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
