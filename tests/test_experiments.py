"""Smoke tests for the experiment harness and the figure/table scripts.

Each figure script runs end-to-end at miniature scale, emits the expected
row shape, and — where the paper's qualitative claims are scale-free —
asserts the *shape* (e.g. bounded queues never do more PQ work; exact
variants all agree)."""

import numpy as np
import pytest

from repro.core.mincut import parallel_mincut
from repro.experiments import (
    make_parallel_variants,
    make_sequential_variants,
    run_matrix,
    time_variant,
)
from repro.experiments.figure3 import REFERENCE, slowdown_rows, speedup_summary
from repro.experiments.figure4 import profile_columns
from repro.generators import connected_gnm, rhg
from repro.observability import Tracer


def seeds_first(tracer) -> bool:
    """VieCut started before the first round: Algorithm 2's order."""
    kinds = [ev["kind"] for ev in tracer.events()]
    return kinds.index("viecut_start") < kinds.index("round_start")


@pytest.fixture(scope="module")
def small_records():
    variants = make_sequential_variants()
    rng = np.random.default_rng(0)
    instances = [
        (f"g{i}", connected_gnm(60, 180, rng=rng, weights=(1, 4))) for i in range(2)
    ]
    return run_matrix(variants, instances, seed=0)


class TestHarness:
    def test_variant_registry_names(self):
        names = set(make_sequential_variants())
        assert names == {
            "HO-CGKLS",
            "NOI-CGKLS",
            "NOI-HNSS",
            "NOIlam-BStack",
            "NOIlam-BQueue",
            "NOIlam-Heap",
            "NOI-HNSS-VieCut",
            "NOIlam-Heap-VieCut",
        }
        assert set(make_parallel_variants(2)) == {
            "ParCutlam-BStack",
            "ParCutlam-BQueue",
            "ParCutlam-Heap",
        }

    def test_run_matrix_records(self, small_records):
        assert len(small_records) == 16  # 8 variants x 2 instances
        for rec in small_records:
            assert rec.seconds > 0
            assert rec.ns_per_edge > 0

    def test_exact_agreement_enforced(self, small_records):
        values = {}
        for rec in small_records:
            values.setdefault(rec.instance, set()).add(rec.value)
        assert all(len(v) == 1 for v in values.values())

    def test_time_variant_repetitions(self):
        variants = make_sequential_variants()
        rng = np.random.default_rng(1)
        g = connected_gnm(30, 60, rng=rng)
        rec = time_variant("NOIlam-Heap", variants["NOIlam-Heap"], g, "x", repetitions=2)
        assert rec.algorithm == "NOIlam-Heap"

    def test_bounded_never_more_pq_work(self, small_records):
        """Paper §3.1.2 shape: the λ̂ clamp cannot increase PQ update work."""
        by = {(r.algorithm, r.instance): r for r in small_records}
        for inst in {r.instance for r in small_records}:
            unbounded = by[("NOI-HNSS", inst)].stats
            bounded = by[("NOIlam-Heap", inst)].stats
            # identical seeds -> identical round structure; updates can only shrink
            assert (
                bounded["pq_updates"] <= unbounded["pq_updates"]
            ), f"bounding increased updates on {inst}"


class TestFigureScripts:
    def test_figure2_runs(self):
        from repro.experiments.figure2 import run

        panels = run((9,), (3,), seed=0)
        assert set(panels) == {3}
        assert len(panels[3]) == 8

    def test_figure3_rows_and_speedups(self, small_records):
        rows = slowdown_rows(small_records)
        assert len(rows) == len(small_records)
        ref_rows = [r for r in rows if r[3] == REFERENCE]
        assert all(abs(r[4] - 1.0) < 1e-9 for r in ref_rows)
        summary = speedup_summary(small_records)
        assert len(summary) == 6

    def test_figure4_profile(self, small_records):
        headers, rows = profile_columns(small_records)
        assert headers[0] == "rank"
        assert len(headers) == 9
        # every ratio in (0, 1]
        for row in rows:
            for cell in row[1:]:
                assert cell is None or 0 < cell <= 1.0

    def test_figure5_runs(self):
        from repro.experiments.figure5 import run

        rows = run(workers=(1, 2), scale=0.2, count=1, executor="serial", seed=0)
        assert len(rows) == 6  # 3 pq kinds x 2 worker counts
        for r in rows:
            if r["p"] == 2:
                assert r["modeled_speedup"] >= 1.0

    def test_figure5_seeds_first(self, monkeypatch):
        """Figure 5 keeps Algorithm 2's order, where the library's ParCut
        seeds after its first round."""
        from repro.experiments import figure5, harness

        tracers = []

        def traced(graph, *, tracer=None, **kw):
            tracers.append(Tracer())
            return parallel_mincut(graph, tracer=tracers[-1], **kw)

        monkeypatch.setattr(harness, "parallel_mincut", traced)
        figure5.run(workers=(2,), scale=0.2, count=1, executor="serial", seed=0)
        assert len(tracers) == 3  # one ParCut solve per queue
        assert all(seeds_first(t) for t in tracers)

    def test_parallel_variants_seed_first(self):
        g = rhg(256, 32, rng=1)
        for name, variant in make_parallel_variants(2).items():
            tracer = Tracer()
            variant(g, 0, tracer=tracer)
            assert seeds_first(tracer), name
        tracer = Tracer()
        parallel_mincut(g, workers=2, rng=0, tracer=tracer)
        assert not seeds_first(tracer)

    def test_table1_runs(self):
        from repro.experiments.table1 import run

        rows = run(scale=0.2, seed=0)
        assert rows
        for row in rows:
            lam, delta = row[6], row[7]
            assert lam <= delta  # λ never exceeds the minimum degree


class TestInstances:
    def test_rhg_instance_cached(self):
        from repro.experiments.instances import rhg_instance

        a = rhg_instance(9, 3, 0)
        b = rhg_instance(9, 3, 0)
        assert a is b

    def test_largest_web_instances_sorted(self):
        from repro.experiments.instances import largest_web_instances

        got = largest_web_instances(3, scale=0.2)
        sizes = [g.m for _, g in got]
        assert sizes == sorted(sizes, reverse=True)
