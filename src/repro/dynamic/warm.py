"""Warm re-solve after an edge-update batch: λ̂ reseeding + certificate reuse.

The NOI framework leaves three reusable artefacts after an exact solve of
``G_old``: the exact value ``λ_old``, a certified side mask, and (one extra
strict CAPFOREST pass) edge certificates ``q(e) ≥ λ_old + 1`` whose
union–find blocks have pairwise connectivity ``≥ λ_old + 1``.  All three
survive an update batch in weakened form, and together they usually make
the re-solve much cheaper than a cold one:

**Bounds.** Let ``W_D`` be the total deleted weight.  Every cut loses at
most ``W_D``, so ``λ_new ≥ max(0, λ_old − W_D)`` (a certified *lower*
bound).  The old side is still a real cut; its new capacity is
``λ_old + inserted_crossing − deleted_crossing``, computable in O(batch)
from the delta.  Together with the trivial cuts ``({v}, V∖{v})`` of the
touched vertices this gives a certified *upper* bound ``λ̂_seed`` backed by
a concrete side.

**Fast path.** When ``λ̂_seed ≤ λ_old − W_D`` the two bounds meet:
``λ_new = λ̂_seed`` and the candidate side is a proven minimum cut — no
solve at all.  This covers the common streaming cases exactly: inserts that
do not cross the old cut, deletes that do, and disconnecting deletes
(bound 0).

**Seeded solve.** Otherwise run NOI with ``initial_bound = λ̂_seed`` and
the candidate side — exact by Lemma 3.1, since the seed is the capacity of
a real cut of the new graph (the same contract VieCut seeding uses).

**Certificate survival.** The strict-certificate blocks of ``G_old`` have
pairwise connectivity ``≥ cert_bound`` there; deleting total weight ``W_D``
lowers any pairwise connectivity by at most ``W_D``, so on the new graph
they are ``≥ cert_bound − W_D`` connected.  If that survives above the seed
(``cert_bound − W_D ≥ λ̂_seed``), every cut of value ``< λ̂_seed`` keeps
each block whole, so contracting the blocks preserves the minimum cut
whenever it beats the seed — and when nothing beats the seed the seed
itself is already optimal.  Either way ``min(λ̂_seed, λ(G/blocks))`` is
exact, which is precisely what a seeded NOI run on the contracted graph
returns.  The seed side must not split a kept block (the old side never
does — blocks are ``> λ_old``-connected, so they sit on one side of every
minimum cut of ``G_old``); if a trivial-cut candidate would, contraction is
skipped for that update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..core.capforest import DEFAULT_KERNEL, DEFAULT_PQ_KIND, capforest
from ..core.noi import noi_mincut
from ..core.result import MinCutResult
from ..graph.contract import contract_by_labels
from ..graph.csr import Graph
from .graph import UpdateDelta

__all__ = ["WarmState", "make_warm_state", "warm_solve", "WARMABLE_ALGORITHMS"]

#: algorithms the warm path can re-solve with a seeded NOI run; anything else
#: falls back to a cold solve (and still benefits from digest-lineage cache
#: invalidation).  Maps registry name -> NOI configuration; ``pq_kind=None``
#: is the queue :func:`~repro.core.capforest.check_queue` resolves (the
#: default solve's BQueue when bounded, the heap when not).
WARMABLE_ALGORITHMS: dict[str, dict] = {
    "noi": {"pq_kind": None, "bounded": True},
    "noi-viecut": {"pq_kind": None, "bounded": True},
    "noi-hnss": {"pq_kind": "heap", "bounded": False},
}


@dataclass
class WarmState:
    """Solver state carried across updates of one :class:`DynamicGraph`.

    ``cert_labels``/``cert_bound`` certify that vertices sharing a label had
    pairwise connectivity ``≥ cert_bound`` when the certificate was computed;
    ``cert_bound`` is decayed by ``W_D`` on every applied batch so the claim
    stays valid on the current graph without recomputation.
    """

    digest: str
    value: int
    side: np.ndarray | None = field(repr=False)
    cert_labels: np.ndarray | None = field(default=None, repr=False)
    cert_bound: int = 0


def make_warm_state(
    graph: Graph,
    digest: str,
    result: MinCutResult,
    *,
    certify: bool = True,
    kernel: str = DEFAULT_KERNEL,
) -> WarmState:
    """Build the carry-forward state from a fresh exact solve.

    The certificate is one strict CAPFOREST pass at fixed bound
    ``λ + 1`` (the same pass :mod:`repro.cactus.build` uses), on the
    default solve's queue and kernel: every union merges endpoints with
    ``q(e) ≥ λ + 1``, hence connectivity ``≥ λ + 1``.
    """
    side = None if result.side is None else np.asarray(result.side, dtype=bool).copy()
    state = WarmState(digest=digest, value=int(result.value), side=side)
    if certify and result.value > 0 and graph.n > 2:
        res = capforest(
            graph, int(result.value) + 1, pq_kind=DEFAULT_PQ_KIND,
            fixed_bound=True, start=0, rng=0, kernel=kernel,
        )
        labels = res.uf.labels()
        if int(labels.max()) + 1 < graph.n:  # at least one merge happened
            state.cert_labels = labels
            state.cert_bound = int(result.value) + 1
    return state


def _candidate_seed(
    state: WarmState, delta: UpdateDelta, new_graph: Graph
) -> tuple[int, np.ndarray, bool]:
    """Best certified upper bound after the batch: ``(value, side, is_trivial)``.

    Candidates: the old side re-priced incrementally, and the trivial cuts
    of every touched vertex (deletes can only expose new minima there —
    untouched vertices kept their degrees, which were already ``≥ λ_old``).
    """
    ins_cross, del_cross = delta.crossing_weights(state.side)
    best = state.value + ins_cross - del_cross
    best_side = state.side
    trivial = False
    if len(delta.touched):
        wdeg = new_graph.weighted_degrees()[delta.touched]
        i = int(np.argmin(wdeg))
        if int(wdeg[i]) < best:
            best = int(wdeg[i])
            best_side = np.zeros(new_graph.n, dtype=bool)
            best_side[int(delta.touched[i])] = True
            trivial = True
    return int(best), best_side, trivial


def warm_solve(
    new_graph: Graph,
    state: WarmState,
    delta: UpdateDelta,
    *,
    algorithm: str,
    kwargs: dict | None = None,
) -> tuple[MinCutResult, dict] | None:
    """Re-solve ``new_graph`` warm from ``state`` after ``delta``.

    Returns ``(result, info)`` — ``info`` feeds the ``warm_solve`` trace
    event and ``result.stats["warm"]`` — or ``None`` when this algorithm
    (or a side-less state) cannot be warmed and the caller must solve cold.
    The caller is responsible for refreshing the warm state afterwards
    (:func:`make_warm_state`), and for decaying ``state.cert_bound`` by
    ``delta.deleted_weight`` if it keeps the old certificate.
    """
    config = WARMABLE_ALGORITHMS.get(algorithm)
    if config is None or state.side is None:
        return None
    kwargs = dict(kwargs or {})
    kernel = kwargs.get("kernel", DEFAULT_KERNEL)
    t0 = perf_counter()

    lower = max(0, state.value - delta.deleted_weight)
    seed_value, seed_side, seed_trivial = _candidate_seed(state, delta, new_graph)
    info: dict = {
        "mode": "fast-path",
        "seed_value": seed_value,
        "lower_bound": lower,
        "previous_value": state.value,
        "inserted_weight": delta.inserted_weight,
        "deleted_weight": delta.deleted_weight,
        "contracted_n": None,
    }

    if seed_value <= lower:
        # Bounds meet: seed_side is a certified minimum cut, no solve needed.
        stats = {
            "warm": info,
            "kernel": kernel,
            "rounds": 0,
        }
        res = MinCutResult(
            seed_value, seed_side.copy(), new_graph.n, _warm_label(algorithm), stats
        )
        info["seconds"] = perf_counter() - t0
        return res, info

    # Certificate-survival precontraction: blocks stay ≥ cert_bound − W_D
    # connected; usable when that still clears the seed and the seed side
    # does not split a block.
    h = new_graph
    labels = None
    seed_side_h = None
    surviving_bound = state.cert_bound - delta.deleted_weight
    if (
        state.cert_labels is not None
        and surviving_bound >= seed_value
        and not seed_trivial
    ):
        cand = state.cert_labels
        nc = int(cand.max()) + 1
        if 2 <= nc < new_graph.n:
            side_h = np.zeros(nc, dtype=bool)
            side_h[cand[seed_side]] = True
            # old side never splits a block (blocks are co-side in every
            # minimum cut of G_old); verify cheaply anyway for safety
            if (side_h[cand] == seed_side).all():
                h, labels = contract_by_labels(new_graph, cand)
                seed_side_h = side_h
    info["contracted_n"] = h.n if labels is not None else None
    info["mode"] = "seeded-contracted" if labels is not None else "seeded"

    rng = kwargs.pop("rng", None)
    res_h = noi_mincut(
        h,
        pq_kind=kwargs.pop("pq_kind", config["pq_kind"]),
        bounded=kwargs.pop("bounded", config["bounded"]),
        kernel=kernel,
        initial_bound=seed_value,
        initial_side=seed_side if labels is None else seed_side_h,
        rng=rng,
    )
    side = res_h.side if labels is None else res_h.side[labels]
    stats = dict(res_h.stats)
    stats["warm"] = info
    res = MinCutResult(
        int(res_h.value), None if side is None else side.copy(), new_graph.n,
        _warm_label(algorithm), stats,
    )
    info["seconds"] = perf_counter() - t0
    return res, info


def _warm_label(algorithm: str) -> str:
    return f"{algorithm}+warm"
