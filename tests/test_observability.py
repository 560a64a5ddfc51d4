"""Observability subsystem tests: tracer, event taxonomy, schema contracts.

Five acceptance properties from the issue:

1. Event ordering — a multi-round solve emits ``solve_start`` first,
   ``solve_end`` last, with strictly increasing ``seq``.
2. λ̂ provenance — the final ``lambda_update`` equals the returned minimum
   cut, and the JSONL sink validates against the taxonomy.
3. Fault visibility — a :class:`~repro.runtime.FaultPlan` that degrades a
   round produces ``worker_event``/``degradation`` trace events matching
   ``stats``.
4. Zero overhead when disabled — a ``tracer=None`` run adds no stats keys,
   returns bit-identical results, and trace event volume is independent of
   edge count (round/pass granularity, never per edge).
5. Stats schema — ``parallel_mincut`` returns the identical key set on
   every return path, including the early exits that used to skip the tail.
"""

import json

import numpy as np
import pytest

from repro.core.api import TRACEABLE_ALGORITHMS, minimum_cut
from repro.core.capforest import capforest
from repro.core.mincut import parallel_mincut
from repro.experiments.harness import make_sequential_variants, time_variant
from repro.generators import connected_gnm, rhg
from repro.graph import from_edges
from repro.observability import (
    BENCH_SCHEMA_VERSION,
    EVENT_KINDS,
    LAMBDA_PROVENANCE,
    PARCUT_STATS_KEYS,
    STATS_SCHEMA_VERSION,
    SchemaError,
    Tracer,
    validate_bench_payload,
    validate_parcut_stats,
    validate_trace_events,
    validate_trace_file,
)
from repro.runtime import FaultPlan

from .conftest import oracle_mincut


@pytest.fixture(scope="module")
def trace_graph():
    g = connected_gnm(120, 420, rng=3, weights=(1, 6))
    return g, oracle_mincut(g)


def two_path_graph():
    """4-cycle, mincut 2 — collapses almost immediately."""
    return from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0], [1, 1, 1, 1])


def disconnected_graph():
    return from_edges(4, [0, 2], [1, 3], [3, 3])


class TestEventStream:
    def test_ordering_and_span_structure(self, trace_graph):
        g, truth = trace_graph
        tr = Tracer()
        res = parallel_mincut(g, workers=3, rng=0, tracer=tr)
        assert res.value == truth
        evs = tr.events()
        assert evs[0]["kind"] == "solve_start"
        assert evs[-1]["kind"] == "solve_end"
        seqs = [e["seq"] for e in evs]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert all(e["kind"] in EVENT_KINDS for e in evs)
        # every round span is bracketed: round_start <= round_end counts
        starts = tr.events("round_start")
        ends = tr.events("round_end")
        assert len(starts) == len(ends) == res.stats["rounds"]
        # timestamps are monotone (non-decreasing; perf_counter rounding)
        ts = [e["t"] for e in evs]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_final_lambda_matches_result(self, trace_graph):
        g, truth = trace_graph
        tr = Tracer()
        res = parallel_mincut(g, workers=3, rng=1, tracer=tr)
        lam_events = tr.events("lambda_update")
        assert lam_events, "a solve must emit at least the min-degree bound"
        assert lam_events[-1]["value"] == res.value == truth
        assert all(e["provenance"] in LAMBDA_PROVENANCE for e in lam_events)
        # the trajectory is non-increasing: bounds only ever improve
        vals = [e["value"] for e in lam_events]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        summary = validate_trace_events(tr.events())
        assert summary["final_lambda"] == res.value

    def test_jsonl_sink_validates(self, trace_graph, tmp_path):
        g, truth = trace_graph
        path = tmp_path / "trace.jsonl"
        with Tracer(sink=path) as tr:
            res = parallel_mincut(g, workers=2, rng=2, tracer=tr)
        summary = validate_trace_file(path)
        assert summary["final_lambda"] == res.value == truth
        assert summary["events"] == tr.n_emitted
        assert summary["by_kind"]["solve_start"] == 1
        assert summary["by_kind"]["solve_end"] == 1

    @pytest.mark.parametrize("algorithm", TRACEABLE_ALGORITHMS)
    def test_every_traceable_algorithm_emits(self, trace_graph, algorithm):
        g, truth = trace_graph
        tr = Tracer()
        res = minimum_cut(g, algorithm=algorithm, rng=0, tracer=tr)
        assert res.value == truth
        assert tr.n_emitted > 0
        validate_trace_events(tr.events())

    def test_unknown_kind_and_provenance_rejected(self):
        tr = Tracer()
        with pytest.raises(ValueError, match="unknown event kind"):
            tr.emit("made_up_kind")
        with pytest.raises(ValueError, match="provenance"):
            tr.lambda_update(3, "vibes")

    def test_ring_bounded_seq_keeps_counting(self):
        tr = Tracer(ring_size=4)
        for i in range(10):
            tr.emit("round_start", round=i)
        assert tr.n_emitted == 10
        evs = tr.events()
        assert len(evs) == 4
        assert [e["round"] for e in evs] == [6, 7, 8, 9]


class TestFaultVisibility:
    def test_degraded_round_appears_in_trace(self, trace_graph):
        g, truth = trace_graph
        plan = FaultPlan.kill(range(3), executors=("processes",))
        tr = Tracer()
        res = parallel_mincut(
            g, workers=3, executor="processes", rng=0, fault_plan=plan, tracer=tr,
            timeout=30.0,
        )
        assert res.value == truth
        assert res.stats["degradations"], "the plan kills every process worker"
        degr = tr.events("degradation")
        assert degr, "degradation must be visible in the trace, not only stats"
        assert degr[0]["from_executor"] == "processes"
        assert degr[0]["to_executor"] == "serial"
        assert res.stats["final_executor"] == "serial"
        # the final solve_end names the executor that actually finished
        assert tr.last("solve_end")["final_executor"] == "serial"

    def test_worker_events_mirrored(self, trace_graph):
        g, truth = trace_graph
        plan = FaultPlan.kill([1], after_pops=3, executors=("processes",))
        tr = Tracer()
        res = parallel_mincut(
            g, workers=3, executor="processes", rng=0, fault_plan=plan, tracer=tr,
            timeout=30.0,
        )
        assert res.value == truth
        traced = tr.events("worker_event")
        assert traced, "lost workers must surface as worker_event records"
        # stats keeps the raw supervisor dicts; the trace renames their
        # "kind" to "event" (the tracer's own kind is "worker_event")
        stats_kinds = sorted(ev["kind"] for ev in res.stats["worker_events"])
        trace_kinds = sorted(ev["event"] for ev in traced)
        assert stats_kinds == trace_kinds


class TestZeroOverheadWhenDisabled:
    def test_no_trace_keys_in_stats(self, trace_graph):
        g, _ = trace_graph
        res = parallel_mincut(g, workers=2, rng=0)
        assert set(res.stats) == PARCUT_STATS_KEYS

    def test_capforest_parity_with_and_without_tracer(self, trace_graph):
        g, _ = trace_graph
        lam = g.min_weighted_degree()[1]
        plain = capforest(g, lam, pq_kind="bqueue", rng=0)
        traced = capforest(g, lam, pq_kind="bqueue", rng=0, tracer=Tracer())
        assert plain.lambda_hat == traced.lambda_hat
        assert plain.n_marked == traced.n_marked
        assert plain.scan_order == traced.scan_order
        assert plain.edges_scanned == traced.edges_scanned
        assert np.array_equal(plain.uf.labels(), traced.uf.labels())

    def test_event_volume_independent_of_edge_count(self):
        """Pass granularity: 4x the edges must not mean more trace events."""
        counts = {}
        for m in (300, 1200):
            g = connected_gnm(100, m, rng=5, weights=(1, 4))
            tr = Tracer()
            capforest(g, g.min_weighted_degree()[1], pq_kind="bqueue", rng=0, tracer=tr)
            counts[m] = tr.n_emitted
        assert counts[300] == counts[1200] == 1

    def test_parallel_mincut_parity_with_and_without_tracer(self, trace_graph):
        g, _ = trace_graph
        plain = parallel_mincut(g, workers=3, rng=4)
        traced = parallel_mincut(g, workers=3, rng=4, tracer=Tracer())
        assert plain.value == traced.value
        for key in ("rounds", "total_work", "pq_pops", "edges_scanned"):
            assert plain.stats[key] == traced.stats[key]


class TestRoundEventShape:
    """NOI and ParCut run one round loop, so their round events share one
    shape: rounds count from 1, and ``contraction_ratio`` is
    n_after/n_before, the ratio ``stats["contraction_ratios"]`` records."""

    @pytest.mark.parametrize("solver", ["default", "parcut"])
    def test_rounds_and_contraction_ratios(self, solver):
        g = rhg(256, 16, rng=0)
        tr = Tracer()
        if solver == "default":
            res = minimum_cut(g, rng=0, tracer=tr)
        else:
            res = parallel_mincut(g, workers=3, executor="serial", rng=0, tracer=tr)
        rounds = res.stats["rounds"]
        assert rounds >= 2, "the case needs a multi-round solve"
        assert [ev["round"] for ev in tr.events("round_start")] == list(range(1, rounds + 1))
        ends = tr.events("round_end")
        assert [ev["round"] for ev in ends] == list(range(1, rounds + 1))
        for ev, recorded in zip(ends, res.stats["contraction_ratios"], strict=True):
            ratio = round(ev["n_after"] / ev["n_before"], 6)
            assert ev["contraction_ratio"] == ratio == recorded
        validate_trace_events(tr.events())


class TestStatsSchemaV2:
    def every_return_path(self, trace_graph):
        g, _ = trace_graph
        return {
            "multi-round": parallel_mincut(g, workers=3, rng=0),
            "no-viecut": parallel_mincut(g, workers=3, rng=0, use_viecut=False),
            "disconnected": parallel_mincut(disconnected_graph(), rng=0),
            "tiny": parallel_mincut(two_path_graph(), rng=0),
        }

    def test_key_set_identical_on_every_path(self, trace_graph):
        results = self.every_return_path(trace_graph)
        key_sets = {name: frozenset(res.stats) for name, res in results.items()}
        assert all(ks == PARCUT_STATS_KEYS for ks in key_sets.values()), key_sets
        for res in results.values():
            validate_parcut_stats(res.stats)
            assert res.stats["stats_schema"] == STATS_SCHEMA_VERSION

    def test_early_exits_carry_finalized_fields(self, trace_graph):
        results = self.every_return_path(trace_graph)
        for name, res in results.items():
            # the fields that used to be missing on the early exits
            assert res.stats["final_executor"] == "serial", name
            assert "modeled_speedup" in res.stats, name
            assert set(res.stats["phase_seconds"]) == {
                "viecut", "capforest", "seq_fallback", "contract"
            }, name
        assert results["disconnected"].value == 0
        assert results["disconnected"].stats["rounds"] == 0

    def test_phase_seconds_account_for_work(self):
        # round 1 keeps about 200 of these 256 vertices, so the seed runs
        g = rhg(256, 32, rng=1)
        res = parallel_mincut(g, workers=3, rng=0)
        phases = res.stats["phase_seconds"]
        assert all(v >= 0.0 for v in phases.values())
        assert phases["viecut"] > 0.0
        if res.stats["rounds"]:
            assert phases["capforest"] > 0.0

    def test_validator_rejects_missing_keys(self, trace_graph):
        g, _ = trace_graph
        stats = dict(parallel_mincut(g, rng=0).stats)
        del stats["modeled_speedup"]
        with pytest.raises(SchemaError, match="modeled_speedup"):
            validate_parcut_stats(stats)
        stats = dict(parallel_mincut(g, rng=0).stats)
        stats["stats_schema"] = 1
        with pytest.raises(SchemaError, match="stats_schema"):
            validate_parcut_stats(stats)


class TestRegistryDifferentiation:
    def test_cgkls_and_hnss_are_distinct_configurations(self, trace_graph):
        """The registry bug: both closures were byte-identical.  They now pin
        different kernels (same algorithm, different implementation tuning,
        mirroring the two paper codes) — equal values, distinct configs."""
        g, truth = trace_graph
        variants = make_sequential_variants()
        cgkls = variants["NOI-CGKLS"](g, 0)
        hnss = variants["NOI-HNSS"](g, 0)
        assert cgkls.value == hnss.value == truth
        assert cgkls.stats["kernel"] == "vector"
        assert hnss.stats["kernel"] == "scalar"
        # same algorithm ⇒ identical operation counts (kernel parity)
        for key in ("pq_pops", "pq_pushes", "edges_scanned", "rounds"):
            assert cgkls.stats[key] == hnss.stats[key]
        # both remain the unbounded-heap baseline (figure 3's comparison
        # against the bounded variants depends on this)
        assert cgkls.stats["bounded"] is False
        assert hnss.stats["bounded"] is False

    def test_time_variant_trace_summary(self, trace_graph):
        g, truth = trace_graph
        variants = make_sequential_variants()
        rec = time_variant("NOI-HNSS", variants["NOI-HNSS"], g, "t", trace=True)
        assert rec.value == truth
        assert rec.trace_summary is not None
        assert rec.trace_summary["final_lambda"] == truth
        # untraced records stay clean
        rec = time_variant("NOI-HNSS", variants["NOI-HNSS"], g, "t")
        assert rec.trace_summary is None

    def test_ho_variant_tolerates_tracer(self, trace_graph):
        g, truth = trace_graph
        variants = make_sequential_variants()
        rec = time_variant("HO-CGKLS", variants["HO-CGKLS"], g, "t", trace=True)
        assert rec.value == truth
        assert rec.trace_summary == {
            "events": 0, "by_kind": {}, "lambda_trajectory": [], "final_lambda": None,
        }


class TestBenchSchema:
    def good_payload(self):
        return {
            "schema_version": BENCH_SCHEMA_VERSION,
            "benchmark": "capforest-kernels",
            "graph": {"name": "g"},
            "records": [
                {"variant": "capforest", "kernel": "scalar",
                 "executor": "sequential", "wall_s": 0.5},
            ],
        }

    def test_valid_payload_passes(self):
        validate_bench_payload(self.good_payload())

    def test_missing_fields_rejected(self):
        payload = self.good_payload()
        del payload["schema_version"]
        with pytest.raises(SchemaError, match="schema_version"):
            validate_bench_payload(payload)
        payload = self.good_payload()
        del payload["records"][0]["variant"]
        with pytest.raises(SchemaError, match="variant"):
            validate_bench_payload(payload)
        payload = self.good_payload()
        payload["records"][0]["wall_s"] = 0.0
        with pytest.raises(SchemaError, match="wall_s"):
            validate_bench_payload(payload)

    def test_committed_bench_record_validates(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_parcut.json"
        if not path.exists():
            pytest.skip("no committed benchmark record")
        payload = validate_bench_payload(json.loads(path.read_text()))
        assert {rec["kernel"] for rec in payload["records"]} == {"scalar", "vector"}


class TestCli:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import write_metis

        g = connected_gnm(80, 240, rng=1, weights=(1, 5))
        write_metis(g, tmp_path / "g.graph")
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        rc = main([
            "--algorithm", "parcut", "--workers", "2",
            "--trace", str(trace), "--metrics-json", str(metrics),
            str(tmp_path / "g.graph"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        value = int(out.split("mincut")[1].split()[0])
        summary = validate_trace_file(trace)
        assert summary["final_lambda"] == value
        doc = json.loads(metrics.read_text())
        assert doc["schema_version"] == STATS_SCHEMA_VERSION
        assert doc["value"] == value
        assert doc["trace_summary"]["final_lambda"] == value
        validate_parcut_stats(doc["stats"])

    @pytest.mark.parametrize("algorithm, flags, break_stats, error", [
        ("parcut", [], lambda stats: stats.pop("modeled_speedup"),
         "stats missing keys: ['modeled_speedup']"),
        # the all-cuts keys are the facade's, not a schema violation
        ("karger-nlt", ["--all-cuts"], lambda stats: stats.update(executor="serial"),
         "stats has unknown keys: ['executor']"),
    ], ids=["parcut", "karger-nlt"])
    def test_metrics_validation_checks_the_stats(self, tmp_path, capsys, algorithm,
                                                 flags, break_stats, error):
        from repro.cli import main
        from repro.graph.io import write_metis
        from repro.observability.validate import main as validate

        write_metis(connected_gnm(40, 120, rng=2, weights=(1, 5)), tmp_path / "g.graph")
        metrics = tmp_path / "metrics.json"
        assert main(["--algorithm", algorithm, "--seed", "0", *flags,
                     "--metrics-json", str(metrics), str(tmp_path / "g.graph")]) == 0
        assert validate(["--metrics", str(metrics)]) == 0
        doc = json.loads(metrics.read_text())
        break_stats(doc["stats"])
        metrics.write_text(json.dumps(doc))
        capsys.readouterr()
        assert validate(["--metrics", str(metrics)]) == 1
        assert error in capsys.readouterr().err

    def test_trace_rejected_for_untraceable_algorithm(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import write_metis

        write_metis(connected_gnm(20, 40, rng=0), tmp_path / "g.graph")
        rc = main([
            "--algorithm", "stoer-wagner", "--trace", str(tmp_path / "t.jsonl"),
            str(tmp_path / "g.graph"),
        ])
        assert rc == 2
        assert "traceable" in capsys.readouterr().err
