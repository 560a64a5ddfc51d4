"""Tests for the kernel registry (`KERNELS` and `check_kernel` in
`repro.core.capforest`).

* **one registry** — every consumer (the solvers, the CLI, the API) uses
  the one copy, so the advertised set cannot drift, and every advertised
  kernel solves a fixture through the public API;
* **`compiled` is gone** — the name of the retired JIT tier fails on entry,
  as any unknown kernel does.
"""

from __future__ import annotations

import pytest

from repro.core.api import minimum_cut
from repro.core.capforest import KERNELS, check_kernel
from repro.generators.gnm import connected_gnm


# ---------------------------------------------------------------------------
# one registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_single_source_of_truth(self):
        # the solvers check kernels with the registry's own function
        from repro.core import KERNELS as core_kernels
        from repro.core.mincut import check_kernel as parcut_check
        from repro.core.noi import check_kernel as noi_check

        assert KERNELS == ("scalar", "vector")
        assert core_kernels is KERNELS
        assert parcut_check is noi_check is check_kernel

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
        with pytest.raises(ValueError, match="unknown kernel 'simd'"):
            check_kernel("simd")
        # the retired tier's name is unknown too
        with pytest.raises(ValueError, match=r"unknown kernel 'compiled'; expected one of"):
            check_kernel("compiled")
        assert check_kernel("scalar") == "scalar"

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("algorithm", ["noi", "parcut", "noi-viecut"])
    def test_every_advertised_kernel_solves(self, kernel, algorithm):
        g = connected_gnm(60, 180, rng=2, weights=(1, 7))
        expected = minimum_cut(g, algorithm="stoer-wagner")
        res = minimum_cut(g, algorithm=algorithm, rng=4, kernel=kernel)
        assert res.value == expected.value
