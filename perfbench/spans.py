"""Span tracer for the benchmark's traced run.

The tracer wraps public lgsieve functions from outside the package and
records one span (name, start, end, parent) per call, in memory.
lgsieve modules bind names with ``from .powers import ...`` and
``from .lgset import coverage``, so a function is replaced in every
lgsieve namespace that holds it, not only in the module that defines it;
wrapping only ``powers.largest_int_below_pow`` would count no calls from
``lgset``, ``smoothcount`` or ``discrepancy``.  ``restore`` puts every
original back.

Counts marked "computed" are derived from the arguments or results of a
wrapped call, not counted inside the program.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

import lgsieve.cli  # noqa: F401  (loads every lgsieve module, so all bindings get wrapped)

# span name -> (defining module, attribute path)
SPANS = {
    "cli.parse_args": ("lgsieve.cli", "parse_args"),
    "primes.build_prime_table": ("lgsieve.primes", "build_prime_table"),
    "primes.largest_factor_array": ("lgsieve.primes", "PrimeTable.largest_factor_array"),
    "lgset.construct": ("lgsieve.lgset", "construct"),
    "lgset.choose_cutoff": ("lgsieve.lgset", "choose_cutoff"),
    "lgset.verify_pairwise_lcm": ("lgsieve.lgset", "verify_pairwise_lcm"),
    "lgset.coverage": ("lgsieve.lgset", "coverage"),
    "powers.real_pow": ("lgsieve.powers", "real_pow"),
    "powers.floor_pow": ("lgsieve.powers", "floor_pow"),
    "powers.largest_int_below_pow": ("lgsieve.powers", "largest_int_below_pow"),
    "discrepancy.variance_report": ("lgsieve.discrepancy", "variance_report"),
    "smoothcount.sumset_weights": ("lgsieve.smoothcount", "sumset_weights"),
    "smoothcount.partition": ("lgsieve.smoothcount", "partition"),
    "smoothcount.sieve_report": ("lgsieve.smoothcount", "sieve_report"),
    "smoothcount.residue_identity": ("lgsieve.smoothcount", "residue_convolution_identity_ok"),
    "smoothcount.theorem3_experiment": ("lgsieve.smoothcount", "theorem3_experiment"),
    "dickman.build_dickman_table": ("lgsieve.dickman", "build_dickman_table"),
}

POWERS = ("powers.real_pow", "powers.floor_pow", "powers.largest_int_below_pow")

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "primes.build_prime_table.s": "s",
    "primes.largest_factor_array.s": "s",
    "primes.table_bytes": "bytes",  # computed: nbytes of the table arrays
    "lgset.construct.s": "s",
    "lgset.members": "count",  # computed: len(construct(...))
    "lgset.choose_cutoff.s": "s",
    "lgset.verify_pairwise_lcm.s": "s",
    "lgset.coverage.s": "s",
    "lgset.coverage.calls": "count",
    "lgset.coverage.m_scanned": "count",  # computed: x per call, the m = 1..x it classifies
    "powers.s": "s",
    "powers.calls": "count",
    "discrepancy.variance_report.s": "s",
    "discrepancy.variance_report.calls": "count",
    "discrepancy.moduli": "count",  # computed: moduli_count of each report
    "discrepancy.sum_q": "count",  # computed: sum of q over those moduli
    "discrepancy.pairs": "count",  # computed: C(|C|, 2) per report
    "smoothcount.sumset_weights.s": "s",
    "smoothcount.partition.s": "s",
    "smoothcount.sieve_report.s": "s",
    "smoothcount.residue_identity.s": "s",
    "smoothcount.residue_identity.sum_q": "count",  # computed: sum of the moduli passed
    "smoothcount.theorem3_experiment.s": "s",
    "smoothcount.theorem3_experiment.self_s": "s",
    "dickman.build_dickman_table.s": "s",
    "dickman.grid_points": "count",  # computed: len(table.values)
    "cli.parse_args.s": "s",
}

# Counts that must repeat exactly between runs and seeds of the same code.
EXACT_COUNTS = (
    "primes.table_bytes",
    "lgset.members",
    "lgset.coverage.calls",
    "lgset.coverage.m_scanned",
    "powers.calls",
    "discrepancy.variance_report.calls",
    "discrepancy.moduli",
    "discrepancy.sum_q",
    "discrepancy.pairs",
    "smoothcount.residue_identity.sum_q",
    "dickman.grid_points",
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _lgsieve_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "lgsieve" or n.startswith("lgsieve."))]


def _array_bytes(obj) -> int:
    """nbytes of every numpy array a PrimeTable holds, the lazy ones too."""
    names = getattr(type(obj), "__slots__", None) or vars(obj)
    arrays = (getattr(obj, n, None) for n in names)
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and counts between ``install()`` and ``restore()``;
    ``metrics()`` reduces them to the per-layer metrics."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = Counter()
        self.tables = []
        self._stack = []
        self._patched = []  # (owner, attr, original)

    def install(self):
        modules = _lgsieve_modules()
        for name, (module, path) in SPANS.items():
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._span(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()
            self._count(name, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, args, kwargs, result):
        c = self.counts
        if name == "primes.build_prime_table":
            self.tables.append(result)
        elif name == "lgset.construct":
            c["lgset.members"] += len(result)
        elif name == "lgset.coverage":
            c["lgset.coverage.m_scanned"] += _arg(args, kwargs, 0, "lgset").params.x
        elif name == "discrepancy.variance_report":
            c["discrepancy.moduli"] += result.moduli_count
            c["discrepancy.sum_q"] += sum(q for q, _, _ in result.per_modulus)
            c["discrepancy.pairs"] += result.size * (result.size - 1) // 2
        elif name == "smoothcount.residue_identity":
            c["smoothcount.residue_identity.sum_q"] += sum(
                int(q) for q in _arg(args, kwargs, 3, "moduli"))
        elif name == "dickman.build_dickman_table":
            c["dickman.grid_points"] += len(result.values)

    def calls(self) -> Counter:
        return Counter(name for name, _, _, _ in self.spans)

    def metrics(self) -> dict:
        total, self_ns = Counter(), Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_ns[name] += end - start - child_ns[i]
        calls = self.calls()
        table_bytes = sum(_array_bytes(t) for t in self.tables)
        out = {f"{name}.s": total[name] / 1e9 for name in SPANS if name not in POWERS}
        out.update({
            "primes.table_bytes": table_bytes,
            "lgset.coverage.calls": calls["lgset.coverage"],
            "powers.s": sum(total[n] for n in POWERS) / 1e9,
            "powers.calls": sum(calls[n] for n in POWERS),
            "discrepancy.variance_report.calls": calls["discrepancy.variance_report"],
            "smoothcount.theorem3_experiment.self_s":
                self_ns["smoothcount.theorem3_experiment"] / 1e9,
        })
        for key in EXACT_COUNTS:
            out.setdefault(key, self.counts[key])
        return {key: out[key] for key in LAYER_METRICS}
