"""Canonical request keying: graph digests and solve-configuration keys.

The engine's result cache and shared-memory plane registry are both keyed
by a **canonical graph digest** — SHA-256 over the exact CSR byte content
(``n`` plus the three arrays), truncated to 128 bits (32 hex characters).
Every solve request and every ``/v1/update`` write hashes its whole graph
once, so the hash sits on the request path.  SHA-256 is the faster choice
there because OpenSSL runs it on the CPU's SHA instructions (x86 SHA-NI,
ARMv8 SHA2), which blake2b cannot use: over the 0.5 MB CSR of a graph with
n=770 and m=15,274, on a 2-core x86 host with SHA-NI, it takes 0.41 ms
against blake2b's 0.91 ms.  128 bits keep an accidental collision out of
reach for any cache.  Two :class:`~repro.graph.csr.Graph` objects digest
equal iff they are the same graph with the same vertex numbering and arc
ordering:

* the digest covers the *arrays*, not the edge *set* — an isomorphic graph
  with permuted vertex ids, or the same edge set inserted in a different
  order through :class:`~repro.graph.builder.GraphBuilder`, digests
  differently (a conservative miss, never a wrong hit);
* graphs are immutable by contract (``csr.py``); a caller that mutates the
  arrays behind a digest voids the cache the same way it voids every other
  invariant in the package.

A **request key** extends the digest with the algorithm name and the
canonicalised solve kwargs, so solves that could differ in value, side, or
stats shape never alias in the cache.
"""

from __future__ import annotations

import hashlib
import json

from ..graph.csr import Graph


def graph_digest(graph: Graph) -> str:
    """Hex digest canonically identifying ``graph``'s exact CSR content."""
    h = hashlib.sha256(graph.n.to_bytes(8, "little"))
    for arr in (graph.xadj, graph.adjncy, graph.adjwgt):
        h.update(arr)  # the array's buffer: contiguous int64, no copy
    return h.hexdigest()[:32]


class UnkeyableRequest(TypeError):
    """A solve kwarg cannot be canonicalised into a cache key."""


def request_key(
    digest: str, algorithm: str, kwargs: dict, options: dict | None = None
) -> str:
    """One string key per (graph, algorithm, solve configuration, output shape).

    Kwargs are canonicalised through sorted-key JSON, so dict ordering
    never splits the cache.  Values must be JSON-representable scalars or
    nested lists/dicts thereof — live objects (tracers, RNG generators,
    fault plans) have no canonical form and raise :class:`UnkeyableRequest`;
    the engine rejects them at submit time for the same reason it cannot
    ship them to a pooled worker process.

    ``options`` carries **output-shape** requests (``all_cuts``,
    ``most_balanced``) that change what the result object carries without
    changing the solve configuration.  They key a separate dimension: a
    value-only cached result must never be served to a request that needs
    the cactus, and vice versa.  Falsy/None options key identically to the
    historical 3-segment form, so existing cache entries stay addressable.
    """
    try:
        blob = json.dumps(kwargs, sort_keys=True, separators=(",", ":"))
        # Options are output-shape *flags*: coerce truthy values to bool so
        # all_cuts=1 and all_cuts=True serialise identically (`true`) and
        # never split the cache; falsy values still drop out entirely,
        # keeping the historical 3-segment key byte-stable.
        opts = {k: bool(v) for k, v in (options or {}).items() if v}
        opt_blob = (
            ":" + json.dumps(opts, sort_keys=True, separators=(",", ":"))
            if opts
            else ""
        )
    except (TypeError, ValueError) as exc:
        raise UnkeyableRequest(
            f"solve kwargs are not canonicalisable for caching/pooling: {exc}"
        ) from None
    return f"{digest}:{algorithm}:{blob}{opt_blob}"
