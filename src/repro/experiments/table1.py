"""Table 1 — instance statistics for the (synthetic) web-like suite.

The paper's Table 1 lists, per base graph and per chosen k: the original
size, the k-core size, the core's minimum cut λ and its minimum degree δ.
This script regenerates the same table over the synthetic suite, computing
λ exactly (the default ``noi-viecut``) — and flags the cores where λ < δ, the
paper's selection criterion ("cores in which the minimum cut is not equal
to the minimum degree").

Usage::

    python -m repro.experiments.table1 [--scale 0.5] [--csv]
"""

from __future__ import annotations

import argparse

from ..core.api import minimum_cut
from ..generators.worlds import DEFAULT_WORLDS, build_instances
from .report import format_csv, format_table


def run(*, scale: float = 0.5, seed: int = 0) -> list[list[object]]:
    rows: list[list[object]] = []
    for spec in DEFAULT_WORLDS:
        for inst in build_instances(spec, scale=scale):
            g = inst.graph
            delta = int(g.weighted_degrees().min())
            lam = minimum_cut(g, algorithm="noi-viecut", rng=seed, compute_side=False).value
            rows.append(
                [
                    inst.world,
                    inst.base_n,
                    inst.base_m,
                    inst.k,
                    g.n,
                    g.m,
                    lam,
                    delta,
                    "yes" if lam < delta else "no",
                ]
            )
    return rows


HEADERS = ["graph", "n", "m", "k", "core_n", "core_m", "lambda", "delta", "nontrivial"]


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", action="store_true")
    args = ap.parse_args(argv)
    rows = run(scale=args.scale, seed=args.seed)
    print("== Table 1: k-core instance statistics ==")
    print((format_csv if args.csv else format_table)(HEADERS, rows))


if __name__ == "__main__":
    main()
