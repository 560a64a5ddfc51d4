"""Tests for the kernel registry (`repro.kernels`) and its `compiled` alias.

Two concerns:

* **registry centralization** — `KERNELS` / `check_kernel` live in one
  place and every consumer (capforest, parallel_capforest, CLI, API)
  uses that copy, so the advertised set cannot drift; every advertised
  kernel actually solves a fixture through the public API.
* **fallback** — `kernel="compiled"`, the name of the retired JIT tier,
  runs as the vector kernel *visibly*: `kernel_fallback` stats key and
  one `kernel_fallback` trace event per solve.
"""

from __future__ import annotations

import pytest

from repro.core.api import minimum_cut
from repro.core.mincut import parallel_mincut
from repro.core.noi import noi_mincut
from repro.generators.gnm import connected_gnm
from repro.kernels import COMPILED_FALLBACK, KERNELS, check_kernel, resolve_kernel
from repro.observability import Tracer
from repro.observability.schema import (
    EVENT_KINDS,
    PARCUT_STATS_KEYS,
    validate_parcut_stats,
    validate_trace_events,
)


# ---------------------------------------------------------------------------
# registry centralization
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_single_source_of_truth(self):
        # `repro.core.capforest` the *attribute* is the capforest function
        # (re-exported by the package), so import the names directly
        from repro.core.capforest import KERNELS as cf_kernels
        from repro.core.capforest import check_kernel as cf_check
        from repro.core.mincut import resolve_kernel as parcut_resolve

        assert KERNELS == ("scalar", "vector", "compiled")
        assert cf_kernels is KERNELS
        assert cf_check is check_kernel
        assert parcut_resolve is resolve_kernel

    def test_cli_choices_come_from_registry(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        kernel_action = next(
            a for a in parser._actions
            if isinstance(a, argparse.Action) and a.dest == "kernel"
        )
        assert tuple(kernel_action.choices) == KERNELS

    def test_check_kernel_rejects_unknowns(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            check_kernel("simd")
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("simd")

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("algorithm", ["noi", "parcut", "noi-viecut"])
    def test_every_advertised_kernel_solves(self, kernel, algorithm):
        # a compiled request resolves to vector and still solves
        g = connected_gnm(60, 180, rng=2, weights=(1, 7))
        expected = minimum_cut(g, algorithm="stoer-wagner")
        res = minimum_cut(g, algorithm=algorithm, rng=4, kernel=kernel)
        assert res.value == expected.value


# ---------------------------------------------------------------------------
# resolution and fallback visibility
# ---------------------------------------------------------------------------


class TestFallback:
    def test_resolve_passthrough(self):
        assert resolve_kernel("scalar") == ("scalar", None)
        assert resolve_kernel("vector") == ("vector", None)

    def test_resolve_degrades_without_tier(self):
        resolved, reason = resolve_kernel("compiled")
        assert resolved == COMPILED_FALLBACK == "vector"
        assert reason is not None and "compiled tier unavailable" in reason

    def test_fallback_event_is_in_taxonomy(self):
        assert "kernel_fallback" in EVENT_KINDS

    def test_noi_stats_and_trace_surface_fallback(self):
        g = connected_gnm(50, 140, rng=1)
        tr = Tracer()
        res = noi_mincut(g, rng=3, kernel="compiled", tracer=tr)
        assert res.stats["kernel"] == "compiled"
        assert res.stats["kernel_resolved"] == "vector"
        assert res.stats["kernel_fallback"] is not None
        events = tr.events("kernel_fallback")
        assert len(events) == 1  # resolved once per solve, not per round
        assert events[0]["requested"] == "compiled"
        assert events[0]["resolved"] == "vector"
        validate_trace_events(tr.events())

    @pytest.mark.parametrize(
        "algorithm", ["noi", "noi-hnss", "noi-viecut", "parcut", "viecut"]
    )
    def test_one_fallback_event_per_solve(self, algorithm):
        # noi-viecut runs VieCut and then NOI, and each used to report the
        # fallback: every algorithm that takes kernel= reports it once
        g = connected_gnm(60, 200, rng=1)
        tr = Tracer()
        res = minimum_cut(g, algorithm=algorithm, rng=0, kernel="compiled", tracer=tr)
        assert len(tr.events("kernel_fallback")) == 1
        assert res.stats["kernel"] == "compiled"
        assert res.stats["kernel_resolved"] == "vector"
        assert res.stats["kernel_fallback"] is not None

    def test_parcut_stats_schema_covers_kernel_keys(self):
        g = connected_gnm(80, 250, rng=5, weights=(1, 5))
        assert {"kernel_resolved", "kernel_fallback"} <= PARCUT_STATS_KEYS
        res = parallel_mincut(g, workers=2, rng=7, kernel="compiled")
        validate_parcut_stats(res.stats)
        assert res.stats["kernel"] == "compiled"
        assert res.stats["kernel_resolved"] == "vector"
        assert res.stats["kernel_fallback"] is not None
        # a native-kernel run emits the same keys with a null fallback
        res2 = parallel_mincut(g, workers=2, rng=7, kernel="vector")
        validate_parcut_stats(res2.stats)
        assert res2.stats["kernel_resolved"] == "vector"
        assert res2.stats["kernel_fallback"] is None

    def test_resolved_runs_match_requested_fallback(self):
        # compiled-with-fallback must equal an explicit vector run exactly
        g = connected_gnm(90, 300, rng=8, weights=(1, 9))
        a = parallel_mincut(g, workers=3, rng=2, kernel="vector")
        b = parallel_mincut(g, workers=3, rng=2, kernel="compiled")
        assert a.value == b.value
        assert a.stats["pq_pops"] == b.stats["pq_pops"]
        assert a.stats["total_work"] == b.stats["total_work"]
