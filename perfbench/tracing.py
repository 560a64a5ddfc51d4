"""Layer spans recorded from outside the program.

A :class:`Recorder` replaces public entry points with timing wrappers,
patching the attribute each caller looks up (a module global such as
``repro.core.noi.capforest``, or a class attribute such as
``SharedGraph.export``).  Spans nest per thread, so each span's self time
excludes the spans it encloses: contraction inside ``viecut`` is charged to
``graph.contract``, not to ``viecut``.  Totals stay in memory and are read
once when the traced window ends.  :meth:`Recorder.restore` puts every
original back.
"""

from __future__ import annotations

import importlib
import threading
from time import perf_counter

#: in-process solver layers: (module, attribute, span).  Every caller of
#: these functions imports them at module level or at call time from the
#: module named here.
SOLVER_PATCHES = (
    ("repro.viecut.viecut", "viecut", "viecut"),
    ("repro.viecut.viecut", "contract_by_labels", "graph.contract"),
    ("repro.viecut.viecut", "contract_by_union_find", "graph.contract"),
    ("repro.core.noi", "capforest", "core.capforest"),
    ("repro.core.noi", "contract_by_union_find", "graph.contract"),
    ("repro.core.mincut", "capforest", "core.capforest"),
    ("repro.core.mincut", "parallel_capforest", "core.parallel_capforest"),
    ("repro.core.mincut", "parallel_contract_by_labels", "graph.contract"),
    ("repro.core.parallel_capforest", "supervise_processes", "runtime.supervise"),
    ("repro.graph.shm:SharedGraph", "export", "graph.shm_export"),
)

#: layers a request passes through inside the service process
SERVICE_PATCHES = (
    ("repro.service.http:Request", "json", "service.json"),
    ("repro.service.server", "graph_from_json", "service.graph"),
    ("repro.engine.engine", "graph_digest", "engine.digest"),
    ("repro.engine.engine:SolverEngine", "submit", "engine.submit"),
    ("repro.engine.engine:EngineFuture", "result", "engine.wait"),
    ("repro.dynamic.graph:DynamicGraph", "apply", "dynamic.apply"),
    ("repro.dynamic", "warm_solve", "dynamic.warm_solve"),
    ("repro.dynamic.warm", "capforest", "core.capforest"),
    ("repro.dynamic.warm", "contract_by_labels", "graph.contract"),
)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Recorder:
    """Per-span call counts, total time and self time, plus counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def _timed(self, name: str, fn, observe, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            with self._lock:
                entry = self.spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[0]
        if observe is not None:
            observe(self, args, kwargs, result)
        return result

    def patch(self, target: str, attr: str, name: str, observe=None) -> None:
        owner = _resolve(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        timed = self._timed
        if isinstance(raw, classmethod):
            fn = raw.__func__

            def cls_wrapper(cls, *args, **kwargs):
                return timed(name, fn, observe, (cls, *args), kwargs)

            replacement = classmethod(cls_wrapper)
        else:
            def wrapper(*args, **kwargs):
                return timed(name, raw, observe, args, kwargs)

            replacement = wrapper
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self, patches, observers: dict | None = None) -> "Recorder":
        observers = observers or {}
        for target, attr, name in patches:
            self.patch(target, attr, name, observers.get((target, attr)))
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
            }


def observe_contract(rec: Recorder, args, kwargs, result) -> None:
    """Contraction ratio n_after / n_before of one contraction call."""
    before = args[0].n
    if before:
        rec.add("contract.ratio_sum", result[0].n / before)
        rec.add("contract.calls")


def observe_supervise(rec: Recorder, args, kwargs, result) -> None:
    """Worker processes supervised in one ParCut pass, and lost workers."""
    rec.add("runtime.worker_spawns", len(args[0]))
    rec.add("runtime.worker_events", len(result.events))


SOLVER_OBSERVERS = {
    ("repro.core.noi", "contract_by_union_find"): observe_contract,
    ("repro.core.mincut", "parallel_contract_by_labels"): observe_contract,
    ("repro.core.parallel_capforest", "supervise_processes"): observe_supervise,
}


def self_ms(snapshot: dict, span: str, ops: int) -> float:
    """Self time of ``span`` in milliseconds per workload operation."""
    entry = snapshot["spans"].get(span)
    return 1e3 * entry[2] / ops if entry else 0.0


def calls(snapshot: dict, span: str) -> int:
    entry = snapshot["spans"].get(span)
    return entry[0] if entry else 0


def accounted_s(snapshot: dict) -> float:
    """Total self time of every span: the part of the wall layers explain."""
    return sum(entry[2] for entry in snapshot["spans"].values())
