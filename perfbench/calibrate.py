"""Host-speed calibration for a measured window.

The benchmark host is a shared virtual machine, and other tenants slow it
down in two ways.  They contend for the cores' caches and execution units,
so the same code runs up to a third slower or faster from one minute to
the next; and for minutes at a time the hypervisor runs other guests on
this one's virtual CPUs, which the guest sees as steal time (a fifth to
almost half of the time its CPUs wanted to run, on the development host),
and every wall time stretches with it.  Left alone, either moves every
timing by more than any bound worth enforcing.

A :class:`Calibrator` times a fixed kernel (an interpreter loop plus a
numpy sort, the solver's two kinds of work) in-line, only at points where
the program under test is idle: before every solve when the workload runs
in the benchmark's own thread, and otherwise in bursts of ``BURST`` between
the phases of a window, once the service has answered everything sent to
it.  A kernel timed beside the program's own work would slow down with
that work and cancel part of any change in it.  It records thread CPU
time, so waiting for a core does not count.  ``factor()`` is ``NOMINAL_S``
over the median sample (of the whole window, or of the latest few):
multiplying a time measured then by it gives the time at the host's
nominal speed.

A :class:`StealMeter` reads the steal time of all CPUs from ``/proc/stat``
over the periods it is running.  ``unstolen()`` is the share of the time
the CPUs wanted to run that they did run; multiplying a wall time measured
then by a power of it (``Workload.steal_exponent``, fitted per workload)
gives the time on a host that steals nothing.  The benchmark reports
normalised times; the window's factors go to the details line.
"""

from __future__ import annotations

import time

import numpy as np

#: thread CPU time of one :func:`kernel` call at nominal host speed
NOMINAL_S = 0.0015
#: samples taken at each idle point between the phases of a window
BURST = 8

_KEYS = np.random.default_rng(0).integers(0, 1 << 30, 8_000)


def kernel() -> float:
    """Thread CPU seconds of a fixed dictionary loop and a numpy sort."""
    t0 = time.thread_time()
    table = dict.fromkeys(range(1024), 0)
    acc = 0
    for i in range(5_000):
        table[i & 1023] = i
        acc += table[(i * 7) & 1023] ^ i
    np.argsort(_KEYS, kind="stable")
    return time.thread_time() - t0


def _stat_ticks() -> tuple[int, int]:
    """``(stolen, wanted)`` clock ticks of all CPUs since boot: wanted is
    the time they ran (user, nice, system, irq, softirq) plus steal."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return steal, user + nice + system + irq + softirq + steal


class StealMeter:
    """Steal time over the periods between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.stolen = 0
        self.wanted = 0
        self._mark: tuple[int, int] | None = None

    def start(self) -> "StealMeter":
        self._mark = _stat_ticks()
        return self

    def stop(self) -> float:
        """Ends a period; returns that period's unstolen share."""
        stolen, wanted = _stat_ticks()
        stolen -= self._mark[0]
        wanted -= self._mark[1]
        self.stolen += stolen
        self.wanted += wanted
        return 1.0 - stolen / wanted if wanted > 0 else 1.0

    def unstolen(self) -> float:
        """Share of the CPUs' wanted time they ran, over every period."""
        return 1.0 - self.stolen / self.wanted if self.wanted > 0 else 1.0


class Calibrator:
    """Samples of :func:`kernel`, taken in-line by :meth:`sample`."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        self.samples.extend(kernel() for _ in range(count))

    def factor(self, recent: int | None = None) -> float:
        """``NOMINAL_S`` over the median sample, or over the median of the
        latest ``recent`` samples."""
        window = self.samples[-recent:] if recent else self.samples
        if not window:
            return 1.0
        ordered = sorted(window)
        return NOMINAL_S / ordered[len(ordered) // 2]
