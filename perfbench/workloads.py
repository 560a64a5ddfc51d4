"""The four benchmark workloads.

Each workload has a set-up step (inputs, reference answers, service start
and warm-up) and a measured window of ``seconds``.  ``measure`` returns the
end-to-end metrics; ``trace`` runs one untraced and one traced window and
returns the per-layer metrics.  Every answer is compared with its
reference; a wrong answer is counted in ``failed`` and makes the run
incorrect.

``suite-solve``
    Closed loop, one in-process ``minimum_cut(g)`` at a time, over the
    synthetic Table-1 k-core suite plus the Figure-2 RHG grid.
``parcut-p2``
    The five largest suite instances solved with ``algorithm="parcut",
    workers=2, executor="processes"``.
``service-mix``
    ``python -m repro.service`` under closed-loop capacity passes and then
    an open loop at half the saturation throughput those passes measured,
    over two keep-alive connections: large suite
    graphs and small gnm graphs, some repeated (cache hits), the rest never
    seen before.
``update-stream``
    One registered graph driven through ``/v1/update`` by one closed-loop
    client on the benchmark's own thread: small insert/delete batches
    (writes), each followed by an empty batch (a read served from the
    engine cache).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import tracing
from calibrate import BURST, Calibrator, StealMeter
from repro import minimum_cut
from service import Connection, ServiceProcess, closed_loop, open_loop, tree_hwm_mb

ROOT = Path(__file__).resolve().parent.parent

#: workload sizes; ``tiny`` is the smoke-test mode used by the tests
SIZES = {
    "full": {
        "scale": 0.5, "rhg_n": (10, 11), "rhg_deg": (3, 4, 5), "parcut_count": 5,
        "setup_repeats": 3,
        "large_count": 4, "large_edges": (6_000, 25_000), "small": (64, 192), "rate": 27.0,
        "capacity_passes": 8, "capacity_requests": 40, "warmup_requests": 12,
        "update_edges": (8_000, 16_000), "batch": 4, "cycles": 2,
    },
    "tiny": {
        "scale": 0.08, "rhg_n": (8,), "rhg_deg": (3,), "parcut_count": 2,
        "setup_repeats": 1,
        "large_count": 1, "large_edges": (100, 5_000), "small": (16, 40), "rate": 20.0,
        "capacity_passes": 2, "capacity_requests": 8, "warmup_requests": 6,
        "update_edges": (100, 5_000), "batch": 2, "cycles": 1,
    },
}

#: service-mix: share of requests that repeat a recent graph (cache hits),
#: and share of the fresh graphs that are large suite graphs
HIT_SHARE = 0.3
LARGE_SHARE = 0.25

#: service-mix: the open loop's offered rate as a share of the saturation
#: throughput the window's capacity passes measured (``rate`` in SIZES only
#: sizes the open-loop schedule: about half the window's seconds at it)
OPEN_LOAD = 0.5

#: calibration samples behind each solve's speed factor (about half a second)
RECENT_SAMPLES = 15

#: candidate tail percentiles, highest first; the median when none qualifies
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: per-layer metrics: name -> unit.  Times are self time in milliseconds per
#: workload operation; counts are per operation unless named a ratio.
LAYER_METRICS = {
    "service.wire_ms": "ms", "service.decode_ms": "ms", "service.server_ms": "ms",
    "service.shed_ratio": "ratio",
    "engine.digest_ms": "ms", "engine.cache_hit_ratio": "ratio", "engine.overhead_ms": "ms",
    "engine.plane_exports": "count", "engine.plane_reuses": "count",
    "engine.queue_depth_max": "count", "engine.cache_invalidated": "count",
    "dynamic.apply_ms": "ms", "dynamic.warm_solve_ms": "ms",
    "dynamic.fast_path_ratio": "ratio", "dynamic.seeded_ratio": "ratio",
    "dynamic.cold_ratio": "ratio",
    "viecut.ms": "ms", "viecut.exact_ratio": "ratio",
    "core.capforest_ms": "ms", "core.capforest_calls": "count",
    "core.edges_scanned": "count", "core.pq_pops": "count", "core.rounds": "count",
    "core.contraction_ratio": "ratio", "core.parallel_capforest_ms": "ms",
    "core.modeled_speedup": "ratio",
    "graph.contract_ms": "ms", "graph.shm_export_ms": "ms",
    "runtime.supervise_ms": "ms", "runtime.worker_spawns": "count",
    "runtime.worker_events": "count", "runtime.speedup_p2": "ratio",
    "trace.overhead_s": "s", "trace.unaccounted_ratio": "ratio",
}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms",
    "peak_rss_mb": "MB",
}


# -- shared helpers ----------------------------------------------------------

def tail(values) -> tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile with at least
    ten samples beyond it, and the mean of the samples beyond it.

    The mean, not the percentile itself: in a closed loop over a fixed set
    of instances the samples cluster by instance, and a single order
    statistic jumped between the two slowest clusters from run to run.
    """
    n = len(values)
    p = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), 50.0)
    beyond = max(1, int(n * (100.0 - p) / 100.0))
    return p, float(np.mean(np.sort(values)[-beyond:]))


def tree_rss_mb() -> float:
    """Peak RSS of the benchmark process plus every live process under it
    (the service and its pool, or ParCut workers)."""
    return tree_hwm_mb(os.getpid())


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


@dataclass
class Tally:
    """Operations attempted, failed (error status or wrong answer), wrong."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok_status: bool, value, expected, what: str) -> None:
        self.attempted += 1
        if not ok_status:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"{what}: failed")
        elif value != expected:
            self.failed += 1
            self.wrong += 1
            if len(self.notes) < 5:
                self.notes.append(f"{what}: got {value}, expected {expected}")


class PeakSampler:
    """The largest value ``probe()`` returns, called now, every ``every_s``
    on a thread of its own, and once more at :meth:`stop`."""

    def __init__(self, probe, every_s: float) -> None:
        self._probe = probe
        self._every = every_s
        self._stop = threading.Event()
        self.peak = probe()
        self._thread = threading.Thread(target=self._run)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._every):
            self.peak = max(self.peak, self._probe())

    def stop(self):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._probe())
        return self.peak


def latency_summary(values_s: list[float]) -> dict:
    ms = [1e3 * v for v in values_s]
    p, value = tail(ms) if ms else (50.0, 0.0)
    return {"p50_ms": median(ms), "tail_ms": value, "tail_percentile": p, "samples": len(ms)}


def host_facts() -> dict:
    import os
    import platform
    from importlib.util import find_spec

    from repro.generators import connected_gnm

    probe = minimum_cut(connected_gnm(16, 40, rng=0))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": find_spec("numba") is not None,
        "default_kernel_resolved": probe.stats.get("kernel_resolved"),
    }


def normalise(metrics: dict, factor: float) -> dict:
    """Scale measured times (and rates) to nominal host speed."""
    out = dict(metrics)
    for name, value in metrics.items():
        unit = END_TO_END_UNITS.get(name) or LAYER_METRICS.get(name)
        if unit in ("s", "ms"):
            out[name] = value * factor
        elif unit == "1/s":
            out[name] = value / factor
    return out


def solver_layers(snap: dict, results: list, ops: int, wall_s: float) -> dict:
    """Per-layer metrics of in-process solves from spans and ``result.stats``."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    ms = tracing.self_ms
    out["viecut.ms"] = ms(snap, "viecut", ops)
    out["core.capforest_ms"] = ms(snap, "core.capforest", ops)
    out["core.capforest_calls"] = tracing.calls(snap, "core.capforest") / ops
    out["core.parallel_capforest_ms"] = ms(snap, "core.parallel_capforest", ops)
    out["graph.contract_ms"] = ms(snap, "graph.contract", ops)
    out["graph.shm_export_ms"] = ms(snap, "graph.shm_export", ops)
    out["runtime.supervise_ms"] = ms(snap, "runtime.supervise", ops)
    counts = snap["counts"]
    out["runtime.worker_spawns"] = counts.get("runtime.worker_spawns", 0.0) / ops
    out["runtime.worker_events"] = counts.get("runtime.worker_events", 0.0) / ops
    if counts.get("contract.calls"):
        out["core.contraction_ratio"] = counts["contract.ratio_sum"] / counts["contract.calls"]
    stats = [r.stats for r in results]
    exact = [r.stats["viecut_value"] == r.value for r in results
             if r.stats.get("viecut_value") is not None]
    out["viecut.exact_ratio"] = sum(exact) / len(exact) if exact else 0.0
    for key, name in (("edges_scanned", "core.edges_scanned"), ("pq_pops", "core.pq_pops"),
                      ("rounds", "core.rounds")):
        out[name] = sum(s.get(key, 0) for s in stats) / ops
    speedups = [s["modeled_speedup"] for s in stats if s.get("modeled_speedup")]
    out["core.modeled_speedup"] = sum(speedups) / len(speedups) if speedups else 0.0
    out["trace.unaccounted_ratio"] = 1.0 - tracing.accounted_s(snap) / wall_s
    return out


class Workload:
    """Set-up shared by every workload.

    ``load`` generates the inputs and lists in ``ref_graphs`` the graphs
    that need a reference answer; ``attach`` hands the answers back;
    ``start`` readies the program (warm-up solve, or service start-up and
    warm-up).  Set-up runs ``setup_repeats`` times and reports the median
    of load plus start.  References are computed once per run, untimed:
    they are the benchmark's own check, not work the program does.
    """

    name = ""
    svc: ServiceProcess | None = None
    #: the power of a phase's unstolen share (``calibrate.StealMeter``) its
    #: times are scaled by.  Fitted on the development host, where steal
    #: ran from none to 40%: a single in-process solving thread ran no
    #: slower in passes with steal (0), two ParCut workers slowed in
    #: proportion to it (1), and service-mix requests, which spend part of
    #: their time waiting on other processes, by its 0.5 (p50) to 0.9
    #: (tail) power (0.7).  update-stream saw too little steal to fit and
    #: keeps the proportional default.
    steal_exponent = 1.0

    def __init__(self, seed: int, size: dict) -> None:
        self.seed = seed
        self.size = size
        self.ref_values: list[int] | None = None

    def load(self) -> None:
        raise NotImplementedError

    def attach(self, refs: list[int]) -> None:
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        if self.svc is not None:
            self.svc.stop()
            self.svc = None

    def setup(self, repeats: int) -> float:
        """Median set-up time over ``repeats``, at nominal host speed.

        The host's speed is sampled before each set-up and after the last,
        while nothing else runs.
        """
        times = []
        cal = Calibrator()
        for _ in range(repeats):
            self.stop()
            cal.sample(BURST)
            inputs.clear_caches()
            t0 = time.perf_counter()
            self.load()
            loaded = time.perf_counter() - t0
            if self.ref_values is None:
                self.ref_values = inputs.references(self.ref_graphs)
            self.attach(self.ref_values)
            t0 = time.perf_counter()
            self.start()
            times.append(loaded + time.perf_counter() - t0)
        cal.sample(BURST)
        return median(times) * cal.factor()


# -- in-process solve workloads ----------------------------------------------

class SolveLoop(Workload):
    """Closed loop of in-process solves over a fixed instance list.

    Pass ``p`` solves variant ``p % VARIANTS`` of every instance: another
    seeded relabeling, with another solver seed.  A run then averages over
    the variants instead of resting on one labeling, whose effect on a
    single instance's solve time (up to ±20%) would otherwise differ from
    seed to seed.
    """

    VARIANTS = 4
    solver_kwargs: dict = {}

    def pick(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def load(self) -> None:
        self.instances = self.pick()
        self.ref_graphs = [g for _, g in self.instances]
        self.variants = [
            [graph] + [inputs.relabel(graph, inputs.sub_seed(self.seed, "variant", name, k))
                       for k in range(1, self.VARIANTS)]
            for name, graph in self.instances
        ]

    def attach(self, refs: list[int]) -> None:
        self.refs = refs

    def start(self) -> None:
        minimum_cut(self.instances[-1][1], rng=0, **self.solver_kwargs)  # warm-up

    def solve(self, graph, variant: int):
        return minimum_cut(graph, rng=inputs.sub_seed(self.seed, "solve", variant),
                           **self.solver_kwargs)

    def window(self, seconds: float, tally: Tally, keep: list | None = None) -> dict:
        """Passes over every instance until ``seconds`` have elapsed, in
        whole rounds of ``VARIANTS`` passes, so every variant counts alike.

        ``wall_s`` is one pass's wall time with each instance's solve time
        taken as its median over the passes, which keeps a burst of host
        noise in one pass out of the figure.  The host's speed is sampled
        before every solve, and each solve time is scaled to nominal speed
        by the median of the latest samples, which follows drift within the
        window, and by the pass's steal time.
        """
        per_instance: list[list[float]] = [[] for _ in self.instances]
        cal = Calibrator()
        steal = StealMeter()
        raw_s = 0.0
        passes = 0
        start = time.perf_counter()
        while passes % self.VARIANTS or time.perf_counter() - start < seconds:
            k = passes % self.VARIANTS
            steal.start()
            took = []
            for (name, _), variants, ref in zip(self.instances, self.variants, self.refs):
                cal.sample()
                t0 = time.perf_counter()
                res = self.solve(variants[k], k)
                t = time.perf_counter() - t0
                raw_s += t
                took.append(t * cal.factor(RECENT_SAMPLES))
                tally.check(True, int(res.value), ref, name)
                if keep is not None:
                    keep.append(res)
            unstolen = steal.stop() ** self.steal_exponent
            for times, t in zip(per_instance, took):
                times.append(t * unstolen)
            passes += 1
        wall = sum(median(times) for times in per_instance)
        return {"passes": passes, "latencies": [t for times in per_instance for t in times],
                "wall_s": wall, "ops_per_s": len(self.instances) / wall,
                "factor": cal.factor(), "unstolen": steal.unstolen(), "raw_s": raw_s}

    def details(self) -> dict:
        return {
            "instances": [{"name": name, "n": g.n, "m": g.m, "lambda": ref}
                          for (name, g), ref in zip(self.instances, self.refs)],
        }

    def memory_pass(self, tally: Tally) -> float:
        """Peak RSS of the process tree over one untimed pass.

        ParCut workers live for one CAPFOREST pass, so they are seen only
        while they run: the tree is polled every 10 ms, outside the timed
        window, and the largest sum of its members' peaks is kept.
        """
        sampler = PeakSampler(tree_rss_mb, 0.01)
        try:
            for (name, _), variants, ref in zip(self.instances, self.variants, self.refs):
                tally.check(True, int(self.solve(variants[0], 0).value), ref, name)
        finally:
            peak = sampler.stop()
        return peak

    def measure(self, seconds: float, tally: Tally) -> tuple[dict, dict]:
        setup_s = self.setup(self.size["setup_repeats"])
        w = self.window(seconds, tally)
        lat = latency_summary(w["latencies"])
        metrics = {
            "setup_s": setup_s,
            "wall_s": w["wall_s"],
            "ops_per_s": w["ops_per_s"],
            "p50_ms": lat["p50_ms"],
            "tail_ms": lat["tail_ms"],
            "peak_rss_mb": self.memory_pass(tally),
        }
        return metrics, {**self.details(), "latency": lat, "passes": w["passes"],
                         "speed_factor": w["factor"], "unstolen": w["unstolen"]}

    def trace(self, seconds: float, tally: Tally) -> tuple[dict, dict]:
        self.setup(1)
        extra = self.before_trace(tally)
        plain = self.window(seconds, tally)
        rec = tracing.Recorder().install(tracing.SOLVER_PATCHES, tracing.SOLVER_OBSERVERS)
        results: list = []
        try:
            traced = self.window(seconds, tally, keep=results)
        finally:
            rec.restore()
        snap = rec.snapshot()
        # spans are raw times; the window's latencies are already normalised
        layers = solver_layers(snap, results, len(traced["latencies"]), traced["raw_s"])
        layers = normalise(layers, traced["factor"] * traced["unstolen"] ** self.steal_exponent)
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        layers.update(extra)
        return layers, {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
                        **self.details()}

    def before_trace(self, tally: Tally) -> dict:
        return {}


class SuiteSolve(SolveLoop):
    name = "suite-solve"
    steal_exponent = 0.0

    def pick(self) -> list[tuple[str, object]]:
        s = self.size
        return inputs.suite(self.seed, s["scale"]) + inputs.rhg_grid(
            self.seed, s["rhg_n"], s["rhg_deg"])


class ParcutP2(SolveLoop):
    name = "parcut-p2"
    solver_kwargs = {"algorithm": "parcut", "workers": 2, "executor": "processes"}

    def pick(self) -> list[tuple[str, object]]:
        s = self.size
        return inputs.largest(inputs.suite(self.seed, s["scale"]), s["parcut_count"])

    def before_trace(self, tally: Tally) -> dict:
        """One p=1 serial pass against one p=2 pass, for ``runtime.speedup_p2``."""
        walls = {}
        for label, kwargs in (("p1", {"algorithm": "parcut", "workers": 1,
                                      "executor": "serial"}),
                              ("p2", self.solver_kwargs)):
            t0 = time.perf_counter()
            for (name, graph), ref in zip(self.instances, self.refs):
                res = minimum_cut(graph, rng=inputs.sub_seed(self.seed, "solve"), **kwargs)
                tally.check(True, int(res.value), ref, f"{name} {label}")
            walls[label] = time.perf_counter() - t0
        return {"runtime.speedup_p2": walls["p1"] / walls["p2"]}


# -- service workloads -------------------------------------------------------

def stats_delta(before: dict, after: dict) -> dict:
    """Counter differences between two ``/v1/stats`` documents."""
    svc = {k: after["service"][k] - before["service"][k] for k in ("admitted", "shed")}
    eng = {k: after["engine"][k] - before["engine"][k]
           for k in ("cache_invalidated", "updates")}
    cache = {k: after["engine"]["cache"][k] - before["engine"]["cache"][k]
             for k in ("hits", "misses")}
    planes = {k: after["engine"]["planes"][k] - before["engine"]["planes"][k]
              for k in ("exports", "reuses")}
    return {"service": svc, "engine": eng, "cache": cache, "planes": planes}


def service_layers(snap: dict, delta: dict, ops: int, client_s: float, wire_s: float,
                   server_s: float) -> dict:
    """Per-layer metrics of a traced service window."""
    out = solver_layers(snap, [], ops, client_s)
    ms = tracing.self_ms
    out["service.wire_ms"] = 1e3 * wire_s / ops
    out["service.decode_ms"] = ms(snap, "service.json", ops) + ms(snap, "service.graph", ops)
    out["service.server_ms"] = 1e3 * server_s / ops
    asked = delta["service"]["admitted"] + delta["service"]["shed"]
    out["service.shed_ratio"] = delta["service"]["shed"] / asked if asked else 0.0
    out["engine.digest_ms"] = ms(snap, "engine.digest", ops)
    looked = delta["cache"]["hits"] + delta["cache"]["misses"]
    out["engine.cache_hit_ratio"] = delta["cache"]["hits"] / looked if looked else 0.0
    out["engine.plane_exports"] = delta["planes"]["exports"] / ops
    out["engine.plane_reuses"] = delta["planes"]["reuses"] / ops
    out["engine.cache_invalidated"] = delta["engine"]["cache_invalidated"] / ops
    out["dynamic.apply_ms"] = ms(snap, "dynamic.apply", ops)
    out["dynamic.warm_solve_ms"] = ms(snap, "dynamic.warm_solve", ops)
    # the request's time outside `seconds` is the wire share; the JSON
    # decode span lies inside it, so it is not counted twice
    spans = tracing.accounted_s(snap) - (snap["spans"].get("service.json") or [0, 0, 0])[2]
    out["trace.unaccounted_ratio"] = 1.0 - (wire_s + spans) / client_s
    return out


def span_delta(before: dict, after: dict) -> dict:
    spans = {}
    for name, (calls, total, own) in after["spans"].items():
        b = before["spans"].get(name, [0, 0.0, 0.0])
        spans[name] = [calls - b[0], total - b[1], own - b[2]]
    counts = {k: v - before["counts"].get(k, 0.0) for k, v in after["counts"].items()}
    return {"spans": spans, "counts": counts}


class ServiceWorkload(Workload):
    """A workload that drives ``python -m repro.service`` over HTTP.

    Subclasses provide ``window`` (one measured window, which samples the
    host's speed into the calibrator it is given while the service is
    idle), ``summary`` (its end-to-end metrics, including ``wall_s``),
    ``client_server`` (client and server-reported seconds of each
    successful request) and ``layer_extras`` (layer metrics only the
    workload can see).

    ``speed_exponent`` is the power of the calibrator's factor applied to
    times measured through the service.  A request spends part of its time
    in CPU work that follows the host's speed, and part waiting on sockets,
    pipes and process wake-ups, which does not.  On the development host
    the full factor over-corrected service-mix (a window the kernel timed
    35% faster read 10-15% slower after scaling), and its square root kept
    it within a few percent across host states three times apart in the
    factor's reading; update-stream, one request at a time, followed the
    full factor (a log-log slope of -1.0 to -1.1 for its pass and write
    times against the factor).
    """

    speed_exponent = 1.0

    def service_factor(self, cal: Calibrator) -> float:
        return cal.factor() ** self.speed_exponent

    def measure(self, seconds: float, tally: Tally) -> tuple[dict, dict]:
        self.seconds = seconds
        cal = Calibrator()
        try:
            setup_s = self.setup(self.size["setup_repeats"])
            w = self.window(seconds, tally, cal)
            metrics, details = self.summary(w)
            metrics = normalise(metrics, self.service_factor(cal))
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = tree_rss_mb()
        finally:
            self.stop()
        return metrics, {**details, **self.details(), "speed_factor": cal.factor(),
                         "unstolen": w["unstolen"]}

    def trace(self, seconds: float, tally: Tally) -> tuple[dict, dict]:
        """An untraced window, then the same window against a traced service."""
        self.seconds = seconds
        try:
            self.setup(1)
            cal = Calibrator()
            w = self.window(seconds, tally, cal)
            plain = normalise(self.summary(w)[0], self.service_factor(cal))
        finally:
            self.stop()
        out_dir = ROOT / ".perfbench" / f"{self.name}-{time.time_ns()}"
        out_dir.mkdir(parents=True)
        try:
            self.start(out_dir)
            span0, stats0 = self.svc.spans(), self.svc.stats()
            cal = Calibrator()
            with self.svc.connect() as conn:
                sampler = PeakSampler(
                    lambda: conn.get("/v1/stats")["engine"]["queue_depth"], 0.2)
                try:
                    traced_window = self.window(seconds, tally, cal)
                finally:
                    depth = sampler.stop()
            span1, stats1 = self.svc.spans(), self.svc.stats()
            svc = self.svc
            self.stop()
            # the service's own trace: worker replacements in its pool
            recycles = sum(ev["kind"] == "pool_recycle" for ev in svc.events())
        finally:
            self.stop()
            shutil.rmtree(out_dir, ignore_errors=True)
        factor = self.service_factor(cal)
        traced, details = self.summary(traced_window)
        traced = normalise(traced, factor)
        rows = self.client_server(traced_window)
        client = sum(c for c, _ in rows)
        server = sum(s for _, s in rows)
        layers = service_layers(span_delta(span0, span1), stats_delta(stats0, stats1),
                                len(rows), client, client - server, server)
        layers.update(self.layer_extras(traced_window))
        layers = normalise(layers, factor * traced_window["unstolen"] ** self.steal_exponent)
        layers["engine.queue_depth_max"] = depth
        layers["runtime.worker_events"] = recycles / len(rows)
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return layers, {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
                        "traced_requests": len(rows), **details, **self.details()}

    def layer_extras(self, w: dict) -> dict:
        return {}


class ServiceMix(ServiceWorkload):
    """Open loop into the service over a hit/miss, large/small graph mix."""

    name = "service-mix"
    speed_exponent = 0.5
    steal_exponent = 0.7

    def load(self) -> None:
        s = self.size
        lo, hi = s["large_edges"]
        pool = sorted((g for _, g in inputs.suite(self.seed, s["scale"])
                       if lo <= g.m <= hi), key=lambda g: g.m)
        if not pool:
            raise RuntimeError("no suite instance within the large-graph size range")
        picks = np.linspace(0, len(pool) - 1, min(s["large_count"], len(pool))).round()
        bases = [pool[int(i)] for i in picks]
        self.ref_graphs = list(bases)
        rng = np.random.default_rng(inputs.sub_seed(self.seed, "mix"))
        n_small, m_small = s["small"]
        self.graphs: list[dict] = []  # distinct graphs: body, reference slot, kind

        def new_graph(large: bool, turn: int) -> int:
            if large:  # the bases take turns, so each gets an equal share
                slot = turn % len(bases)
                g = inputs.relabel(bases[slot], rng)
            else:
                g = inputs.gnm_graph(self.seed, len(self.graphs), n_small, m_small)
                slot = len(self.ref_graphs)
                self.ref_graphs.append(g)
            self.graphs.append({"body": inputs.solve_body(g), "slot": slot, "large": large,
                                "n": g.n, "m": g.m})
            return len(self.graphs) - 1

        def evenly(share: float, index: int) -> bool:
            """Whether item ``index`` of a sequence is one of an evenly spaced
            ``share`` of its items."""
            return int((index + 1) * share) > int(index * share)

        def schedule(count: int) -> list[int]:
            """Graph indices with the shares spread evenly, so every seed
            sends the same sequence of kinds and of large bases, and the
            seed draws only the relabelings and which recent graph a hit
            repeats.  A hit repeats one of the most recent distinct graphs
            of its kind in this list, skipping the two newest graphs (maybe
            still in flight); the first five requests are fresh."""
            out, distinct = [], []
            large_made = hits = 0
            for pos in range(count):
                if pos >= 5 and evenly(HIT_SHARE, pos - 5):
                    large = evenly(LARGE_SHARE, hits)
                    hits += 1
                    recent = distinct[-16:-2]
                    recent = [i for i in recent if self.graphs[i]["large"] == large] or recent
                    out.append(recent[int(rng.integers(len(recent)))])
                else:
                    large = evenly(LARGE_SHARE, len(distinct))
                    distinct.append(new_graph(large, large_made))
                    large_made += large
                    out.append(distinct[-1])
            return out

        self.warmup = schedule(s["warmup_requests"])
        # each capacity pass sends graphs the service has not seen yet
        self.capacity = [schedule(s["capacity_requests"]) for _ in range(s["capacity_passes"])]
        self.open = schedule(max(4, int(s["rate"] * self.seconds * 0.5)))

    def attach(self, refs: list[int]) -> None:
        for g in self.graphs:
            g["ref"] = refs[g["slot"]]

    def start(self, traced_dir: Path | None = None) -> None:
        self.svc = ServiceProcess(ROOT, traced_dir=traced_dir)
        closed_loop(self.svc.port, self.bodies(self.warmup), 2)

    def bodies(self, order: list[int]) -> list[bytes]:
        return [self.graphs[i]["body"] for i in order]

    def check(self, tally: Tally, order: list[int], status: int, reply: dict, pos: int) -> None:
        value = reply.get("value") if status == 200 else None
        tally.check(status == 200, value, self.graphs[order[pos]]["ref"], f"request {pos}")

    def window(self, seconds: float, tally: Tally, cal: Calibrator) -> dict:
        """Closed-loop capacity passes, then the open loop at ``OPEN_LOAD``
        of the saturation throughput the passes measured.

        Offering a share of this window's own saturation keeps the open loop
        below saturation when the host runs slow: a fixed rate then turned
        into a growing backlog, and latencies ten times their usual value.
        The host's speed is sampled before the first pass, after each, and
        after the open loop: whenever every request has been answered.
        """
        port = self.svc.port
        walls, capacity, shares = [], [], []
        steal = StealMeter()
        cal.sample(BURST)
        for order in self.capacity:
            steal.start()
            wall, records = closed_loop(port, self.bodies(order), 2)
            shares.append(steal.stop() ** self.steal_exponent)
            cal.sample(BURST)
            walls.append(wall)
            capacity.append(records)
            for pos, status, reply, _ in records:
                self.check(tally, order, status, reply, pos)
            tally.attempted += len(order) - len(records)
            tally.failed += len(order) - len(records)
        rate = OPEN_LOAD * self.size["capacity_requests"] / median(walls)
        steal.start()
        records = open_loop(port, self.bodies(self.open), rate, 2)
        open_share = steal.stop() ** self.steal_exponent
        cal.sample(BURST)
        for pos, rec in enumerate(records):
            if rec is None:
                tally.check(False, None, None, f"request {pos}")
            else:
                self.check(tally, self.open, rec[0], rec[1], pos)
        return {"capacity_walls": walls, "capacity": capacity, "capacity_unstolen": shares,
                "rate": rate, "open": [r for r in records if r is not None],
                "open_unstolen": open_share, "unstolen": steal.unstolen()}

    def summary(self, w: dict) -> tuple[dict, dict]:
        # every request of the window, timed from when it was due: in the
        # closed-loop passes, when a connection came free to send it; each
        # scaled by the steal time of its phase
        lat = latency_summary(
            [r[2] * w["open_unstolen"] for r in w["open"]]
            + [r[3] * share for records, share in zip(w["capacity"], w["capacity_unstolen"])
               for r in records])
        late = [r[3] for r in w["open"]]
        quarter = max(1, len(late) // 4)
        wall = median([t * share for t, share in zip(w["capacity_walls"],
                                                     w["capacity_unstolen"])])
        metrics = {
            "wall_s": wall,
            "ops_per_s": self.size["capacity_requests"] / wall,
            "p50_ms": lat["p50_ms"],
            "tail_ms": lat["tail_ms"],
        }
        details = {
            "latency": lat,
            "rate_per_s": w["rate"],
            "generator_late_p50_ms": 1e3 * median(late),
            "generator_late_max_ms": 1e3 * max(late, default=0.0),
            "backlog_growing": median(late[-quarter:]) > median(late[:quarter])
            + 1.0 / w["rate"],
            "requests": {"capacity": sum(map(len, self.capacity)), "open": len(self.open)},
        }
        return metrics, details

    def details(self) -> dict:
        large = [g for g in self.graphs if g["large"]]
        small = [g for g in self.graphs if not g["large"]]
        return {
            "distinct_graphs": len(self.graphs),
            "large": {"count": len(large),
                      "n": sorted({g["n"] for g in large}), "m": sorted({g["m"] for g in large}),
                      "body_bytes": sorted({len(g["body"]) for g in large})},
            "small": {"count": len(small), "n": self.size["small"][0],
                      "m": self.size["small"][1],
                      "body_bytes_max": max((len(g["body"]) for g in small), default=0)},
        }

    def client_server(self, w: dict) -> list[tuple[float, float]]:
        rows = [(latency, reply["seconds"]) for records in w["capacity"]
                for _, status, reply, latency in records if status == 200]
        rows += [(latency - late, reply["seconds"]) for status, reply, latency, late in w["open"]
                 if status == 200]
        return rows

    def layer_extras(self, w: dict) -> dict:
        return {"engine.overhead_ms": self.engine_overhead_ms()}

    def engine_overhead_ms(self) -> float:
        """``SolverEngine.solve(g, cache=False)`` minus inline ``minimum_cut``
        on the same large graphs, medians of three each."""
        from repro.engine import SolverEngine
        from repro.service.server import graph_from_json

        graphs = [graph_from_json(json.loads(g["body"])["graph"])
                  for g in self.graphs if g["large"]][:3]
        diffs = []
        with SolverEngine() as engine:
            engine.solve(graphs[0], cache=False)  # pool warm-up
            for g in graphs:
                pooled, inline = [], []
                for _ in range(3):
                    t0 = time.perf_counter()
                    engine.solve(g, cache=False)
                    pooled.append(time.perf_counter() - t0)
                    t0 = time.perf_counter()
                    minimum_cut(g)
                    inline.append(time.perf_counter() - t0)
                diffs.append(median(pooled) - median(inline))
        return 1e3 * median(diffs)


class UpdateStream(ServiceWorkload):
    """One registered graph and one closed-loop update client.

    A second concurrent client made every latency depend on how the two
    interleaved in the service, and the medians wandered by a quarter from
    run to run.
    """

    name = "update-stream"
    GRAPH_ID = "g0"

    def load(self) -> None:
        s = self.size
        lo, hi = s["update_edges"]
        pool = sorted(((name, g) for name, g in inputs.suite(self.seed, s["scale"])
                       if lo <= g.m <= hi and 4 * g.m < g.n * (g.n - 1)),
                      key=lambda item: item[1].m)
        if not pool:
            raise RuntimeError("no suite instance within the update size range")
        self.graph_name, g = pool[-1]  # the largest
        rng = np.random.default_rng(inputs.sub_seed(self.seed, "updates"))
        script, states = update_script(g, rng, s["batch"], s["cycles"])
        # states[0] and every state after a delete batch are `g` itself
        slots: dict[int, int] = {}
        self.ref_graphs = []
        for state in states:
            if id(state) not in slots:
                slots[id(state)] = len(self.ref_graphs)
                self.ref_graphs.append(state)
        self.slots = [slots[id(state)] for state in states]
        self.n, self.m = g.n, g.m
        gid = self.GRAPH_ID
        self.register = json.dumps({"graph_id": gid, "graph": json.loads(
            inputs.solve_body(g))["graph"]}).encode()
        self.writes = [json.dumps(dict(b, graph_id=gid)).encode() for b in script]
        self.read = json.dumps({"graph_id": gid}).encode()

    def attach(self, refs: list[int]) -> None:
        self.refs = [refs[k] for k in self.slots]

    def start(self, traced_dir: Path | None = None) -> None:
        self.svc = ServiceProcess(ROOT, traced_dir=traced_dir)
        with self.svc.connect() as conn:
            status, reply = conn.post("/v1/update", self.register)
        if status != 200 or reply["value"] != self.refs[0]:
            raise RuntimeError(f"registering {self.graph_name} failed: {status} {reply}")

    def window(self, seconds: float, tally: Tally, cal: Calibrator) -> dict:
        """Whole passes over the update script until ``seconds`` have elapsed.

        Every write is followed by a read.  The host's speed is sampled
        before each pass, when the service has answered everything, and the
        steal time over each pass is kept for its writes and reads.
        """
        writes, reads, passes, modes, shares = [], [], [], [], []
        steal = StealMeter()
        stop_at = time.perf_counter() + seconds
        with Connection(self.svc.port) as conn:
            while not passes or time.perf_counter() < stop_at:
                cal.sample(2)
                steal.start()
                t_pass = time.perf_counter()
                for k, (body, ref) in enumerate(zip(self.writes, self.refs[1:])):
                    t0 = time.perf_counter()
                    status, reply = conn.post("/v1/update", body)
                    t1 = time.perf_counter()
                    status_r, reply_r = conn.post("/v1/update", self.read)
                    t2 = time.perf_counter()
                    tally.check(status == 200, reply.get("value"), ref, f"write {k}")
                    tally.check(status_r == 200, reply_r.get("value"), ref, f"read {k}")
                    writes.append((t1 - t0, reply.get("seconds", 0.0)))
                    reads.append((t2 - t1, reply_r.get("seconds", 0.0)))
                    modes.append((reply.get("warm") or {}).get("mode"))
                passes.append(time.perf_counter() - t_pass)
                shares.append(steal.stop() ** self.steal_exponent)
        return {"writes": writes, "reads": reads, "passes": passes, "modes": modes,
                "pass_unstolen": shares, "unstolen": steal.unstolen()}

    def summary(self, w: dict) -> tuple[dict, dict]:
        shares = w["pass_unstolen"]

        def scaled(rows):  # each pass's requests scaled by its steal time
            per_pass = len(self.writes)
            return [x * shares[i // per_pass] for i, (x, _) in enumerate(rows)]

        writes = latency_summary(scaled(w["writes"]))
        reads = latency_summary(scaled(w["reads"]))
        wall = median([t * share for t, share in zip(w["passes"], shares)])
        metrics = {
            "wall_s": wall,
            "ops_per_s": 2 * len(self.writes) / wall,
            "p50_ms": writes["p50_ms"],
            "tail_ms": writes["tail_ms"],
        }
        return metrics, {"writes": writes, "reads": reads,
                         "read_p50_ms": reads["p50_ms"], "write_p50_ms": writes["p50_ms"]}

    def details(self) -> dict:
        return {"graph": {"name": self.graph_name, "n": self.n, "m": self.m,
                          "register_body_bytes": len(self.register),
                          "writes_per_pass": len(self.writes)}}

    def client_server(self, w: dict) -> list[tuple[float, float]]:
        return w["writes"] + w["reads"]

    def layer_extras(self, w: dict) -> dict:
        modes = w["modes"]
        seeded = sum(m in ("seeded", "seeded-contracted") for m in modes)
        return {
            "dynamic.fast_path_ratio": modes.count("fast-path") / len(modes),
            "dynamic.seeded_ratio": seeded / len(modes),
            "dynamic.cold_ratio": modes.count("cold") / len(modes),
        }


def update_script(graph, rng: np.random.Generator, batch: int, cycles: int):
    """Write batches and the graphs they produce, starting from ``graph``.

    Each cycle inserts three batches of ``batch`` new unit edges, then
    deletes all of them, returning to ``graph``.  New edges join hubs (the
    tenth of the vertices with the highest weighted degree), which sit on
    the large side of the small cuts of these graphs, so the warm path can
    certify the three inserts without solving, while the delete batch
    needs a seeded solve.  Returns ``(batches, states)`` where
    ``states[0]`` is ``graph`` and ``states[k + 1]`` the graph after batch
    ``k``.
    """
    from repro.graph.builder import from_edges

    us, vs, ws = graph.edge_arrays()
    present = set(zip(us.tolist(), vs.tolist()))
    order = np.argsort(graph.weighted_degrees(), kind="stable")[::-1]
    hubs = max(8, graph.n // 10)
    while True:  # widen the hub set until it has enough non-adjacent pairs
        top = sorted(int(v) for v in order[:hubs])
        free = [(u, v) for i, u in enumerate(top) for v in top[i + 1:]
                if (u, v) not in present]
        if len(free) >= 3 * batch or hubs >= graph.n:
            break
        hubs *= 2
    if len(free) < 3 * batch:
        raise RuntimeError("graph too dense for the update script")
    batches, states = [], [graph]
    for _ in range(cycles):
        picks = rng.choice(len(free), size=3 * batch, replace=False)
        added = [free[int(i)] for i in picks]
        for k in range(3):
            batches.append({"inserts": [[u, v, 1] for u, v in added[k * batch:(k + 1) * batch]]})
            au, av = (np.array(x, dtype=np.int64) for x in zip(*added[:(k + 1) * batch]))
            states.append(from_edges(graph.n, np.concatenate((us, au)), np.concatenate((vs, av)),
                                     np.concatenate((ws, np.ones(len(au), np.int64)))))
        batches.append({"deletes": [[u, v] for u, v in added]})
        states.append(graph)
    return batches, states


WORKLOADS = {w.name: w for w in (SuiteSolve, ParcutP2, ServiceMix, UpdateStream)}
