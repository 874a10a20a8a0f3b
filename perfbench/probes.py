"""Machine-speed sampling: small fixed kernels owned by the benchmark.

The benchmark runs on shared virtual machines whose speed changes under
it.  There is no steal time (a process's CPU time equals its wall
time); other tenants slow the core it runs on.  The slow and the fast
state alternate within a second, and the share of time spent in each
drifts over minutes, so the median wall time of a run followed the
machine, not the program: the middle half of ten runs of the same code
spread by 0.2 to 0.5 of their median.

So while a timed region runs, a ``SpeedSampler`` times a probe, a
kernel of about a millisecond, every 20 ms (from a SIGALRM handler,
which Python runs between bytecodes of the main thread), and once at
each end.  The region's own time is its wall time less the probe runs
inside it, and it is reported rescaled to the probe's reference speed:

    reported = (wall - probe time inside) * probe.ref_s / mean probe time

that is, seconds on a machine where the probe takes ``ref_s``.  A probe
is a small copy of the hot loop style of the code it measures, written
here so that no change to lgsieve changes it:

- ``walk``: the prefix walk over a smallest-prime-factor array, one
  Python-level step per prime factor, as in lgsieve's coverage walk and
  in the interpreter-bound set-up (construct, choose_cutoff);
- ``residues``: numpy residue histograms of a 20000-element array, as
  in lgsieve's discrepancy loops over the moduli;
- ``mixed``: half of each, for code that spends its time in both.

Interpreter-bound and numpy-bound code slow down by different amounts,
so each workload names the probe that matches where its time goes.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _spf(n: int) -> np.ndarray:
    spf = np.arange(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            tail = spf[p * p :: p]
            np.minimum(tail, p, out=tail)
    return spf


_WALK_SPF = _spf(5000)


def _walk(top: int = 800) -> int:
    spf = _WALK_SPF
    acc = 0
    for m in range(2, top):
        k = m
        while k > 1:
            p = int(spf[k])
            while k % p == 0:
                k //= p
            acc += p
    return acc


_RESIDUE_VALUES = np.arange(20_000, dtype=np.int64) * 7919 % 1_000_003


def _residues(moduli: range = range(101, 107)) -> int:
    acc = 0
    for q in moduli:
        acc += int(np.bincount(_RESIDUE_VALUES % q, minlength=q).max())
    return acc


def _mixed() -> int:
    return _walk(400) + _residues(range(101, 104))


@dataclass(frozen=True)
class Probe:
    kernel: Callable[[], int]
    ref_s: float  # about the kernel's median time on the machine the benchmark was tuned on

    def __call__(self) -> tuple[float, float]:
        """(start, duration) of one run of the kernel, in seconds."""
        t0 = time.perf_counter()
        self.kernel()
        return t0, time.perf_counter() - t0


PROBES = {
    "walk": Probe(_walk, ref_s=0.001),
    "residues": Probe(_residues, ref_s=0.0008),
    "mixed": Probe(_mixed, ref_s=0.0007),
}


class SpeedSampler:
    """Times regions of code and samples the machine's speed meanwhile.

    Use as a context manager around calls of ``timed``; on exit the timer
    is stopped and the previous SIGALRM handler is back.  With
    ``enabled=False`` it only times.
    """

    interval_s = 0.02

    def __init__(self, probe: Probe, enabled: bool = True):
        self.probe, self.enabled = probe, enabled
        self.samples: list[tuple[float, float]] = []
        self.net_s: list[float] = []  # per timed call: wall time less the probe runs inside
        self._previous = None

    def __enter__(self):
        if self.enabled:
            self.samples.append(self.probe())
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self.samples.append(self.probe())

    def _tick(self, signum, frame):
        self.samples.append(self.probe())

    def timed(self, fn, *args):
        """``fn(*args)``, recording its wall time less the probe runs in it.

        A handler runs whole between two bytecodes, so a probe started
        inside [t0, t1) also ended there.
        """
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            inside = sum(d for start, d in self.samples if t0 <= start < t1)
            self.net_s.append(t1 - t0 - inside)

    def mean_probe_s(self) -> float:
        return statistics.fmean(d for _, d in self.samples)

    def rescaled(self) -> list[float]:
        """``net_s`` at the speed at which the probe takes ``ref_s``."""
        speed = self.probe.ref_s / self.mean_probe_s()
        return [t * speed for t in self.net_s]
