"""Spans and counts around calls into each layer of ``autocorr``.

The traced run wraps the public functions listed in ``TARGETS``.  A function
is replaced wherever a module of the package binds it: module globals,
aliases such as ``verification.run_search``, and module-level tables such as
``verification.CRITERIA``.  Wrapping only the defining module would miss the
calls made through the other bindings.  Methods are replaced on their class.

A span's self time is its duration minus the time of the wrapped calls made
inside it.  Spans are folded into per-function totals as they close; no span
list is kept.  This module imports nothing outside the standard library, so
``run.py`` can use its metric table without loading numpy.
"""

from __future__ import annotations

import functools
import math
import sys
import time


def _size(x) -> int:
    size = getattr(x, "size", None)
    if isinstance(size, int):
        return size
    try:
        return len(x)
    except TypeError:
        return 1


def _cells(stat, args, kwargs, out):
    stat.counts["cells"] += args[0].cells


def _points(stat, args, kwargs, out):
    stat.counts["points"] += _size(args[1])  # args[0] is the bump


def _windows(stat, args, kwargs, out):
    stat.counts["windows"] += _size(args[1])  # args[0] is the MeasureCorrelation


def _distinct_args(stat, args, kwargs, out):
    stat.distinct.add(repr((args, sorted(kwargs.items()))))


def _search_record(stat, args, kwargs, out):
    stat.counts["evaluations"] += out.evaluations
    best = -math.inf
    for _, value in out.trace:
        if value > best:
            stat.counts["improvements"] += 1
            best = value


# (metric prefix, module, attribute, exported stats, counter).  Several rows may
# share a prefix; their calls are summed (the three bump ``hat`` methods).
TARGETS = [
    ("funcspace.sample", "autocorr.funcspace", "sample", ("calls", "self_s"), None),
    ("funcspace.bs_l1", "autocorr.funcspace", "bs_l1", ("calls", "self_s"), None),
    ("correlate.autocorrelate", "autocorr.correlate", "autocorrelate",
     ("calls", "self_s", "cells"), _cells),
    ("correlate.autocorrelate_singular", "autocorr.correlate", "autocorrelate_singular",
     ("calls", "self_s"), None),
    ("correlate.weighted_integral", "autocorr.correlate", "Correlation.weighted_integral",
     ("calls", "self_s"), None),
    ("correlate.interval_mass", "autocorr.correlate", "MeasureCorrelation.interval_mass",
     ("calls", "self_s", "windows"), _windows),
    ("spectral.mean_functional_fourier", "autocorr.spectral", "mean_functional_fourier",
     ("calls", "self_s", "cells"), _cells),
    ("spectral.fourier_measure", "autocorr.spectral", "fourier_measure",
     ("calls", "self_s"), None),
    ("spectral.weight_lp_moment", "autocorr.spectral", "weight_lp_moment",
     ("calls", "self_s", "distinct_args"), _distinct_args),
    ("constants.minimize_over_p", "autocorr.constants", "minimize_over_p",
     ("calls", "self_s"), None),
    ("constants.mean_upper_constant", "autocorr.constants", "mean_upper_constant",
     ("calls", "self_s"), None),
    ("functionals.q_mean", "autocorr.functionals", "q_mean", ("calls", "self_s"), None),
    ("functionals.q_gauss", "autocorr.functionals", "q_gauss", ("calls", "self_s"), None),
    ("functionals.q_min_12", "autocorr.functionals", "q_min_12", ("calls", "self_s"), None),
    ("functionals.q_min_01", "autocorr.functionals", "q_min_01", ("calls", "self_s"), None),
    ("functionals.q_min_01_bs", "autocorr.functionals", "q_min_01_bs",
     ("calls", "self_s"), None),
    ("search.search", "autocorr.search", "search",
     ("calls", "self_s", "evaluations", "improving_frac"), _search_record),
    ("search.baseline", "autocorr.search", "baseline", ("calls", "self_s"), None),
    ("dualcheck.hat", "autocorr.dualcheck", "StandardBump.hat",
     ("calls", "points", "self_s"), _points),
    ("dualcheck.hat", "autocorr.dualcheck", "CosineBump.hat",
     ("calls", "points", "self_s"), _points),
    ("dualcheck.hat", "autocorr.dualcheck", "BetaPowerBump.hat",
     ("calls", "points", "self_s"), _points),
    ("dualcheck.dual_mass_report", "autocorr.dualcheck", "dual_mass_report",
     ("calls", "self_s"), None),
    ("dualcheck.negative_part_bound_check", "autocorr.dualcheck", "negative_part_bound_check",
     ("calls", "self_s"), None),
    ("dualcheck.nu_spectrum_check", "autocorr.dualcheck", "nu_spectrum_check",
     ("calls", "self_s"), None),
    ("dualcheck.case2bb_scan", "autocorr.dualcheck", "case2bb_scan", ("calls", "self_s"), None),
    *[(f"verification.criterion_{i}", "autocorr.verification", f"criterion_{i}",
       ("total_s",), None) for i in range(1, 10)],
    ("cli.main", "autocorr.cli", "main", ("calls", "self_s"), None),
]

UNITS = {"self_s": "s", "total_s": "s", "improving_frac": "frac"}  # others are counts


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in table order."""
    names = []
    for prefix, _, _, stats, _ in TARGETS:
        for stat in stats:
            name = f"{prefix}.{stat}"
            if name not in names:
                names.append(name)
    return names


def finish(raw: dict) -> dict:
    """Per-layer metrics from summed raw totals (see ``Tracer.raw``)."""
    out = {}
    for name in metric_names():
        prefix, stat = name.rsplit(".", 1)
        if stat == "improving_frac":
            evaluations = raw.get(f"{prefix}.evaluations", 0)
            value = raw.get(f"{prefix}.improvements", 0) / evaluations if evaluations else 0.0
        else:
            value = raw.get(name, 0)
        out[name] = value
    return out


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "counts", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts = {"cells": 0, "points": 0, "windows": 0, "evaluations": 0,
                       "improvements": 0}
        self.distinct = set()


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "autocorr" or name.startswith("autocorr."))]


class Tracer:
    """Wraps every target on creation; ``restore`` puts the originals back."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[float] = []
        self._undo: list[tuple] = []
        try:
            for prefix, module, attr, _, counter in TARGETS:
                self._install(prefix, module, attr, counter)
        except BaseException:
            self.restore()
            raise

    def _install(self, prefix, module, attr, counter):
        stat = self.stats.setdefault(prefix, _Stat())
        owner = sys.modules.get(module)
        if owner is None:
            return
        if "." in attr:  # a method: replace it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or meth not in vars(cls):
                return
            orig = vars(cls)[meth]
            self._undo.append((setattr, cls, meth, orig))
            setattr(cls, meth, self._wrap(stat, orig, counter))
            return
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        wrapper = self._wrap(stat, orig, counter)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((setattr, mod, name, orig))
                    setattr(mod, name, wrapper)
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if item is orig:
                            self._undo.append((dict.__setitem__, value, key, orig))
                            value[key] = wrapper

    def _wrap(self, stat: _Stat, fn, counter):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
            if counter is not None:
                counter(stat, args, kwargs, out)
            return out

        return wrapper

    def restore(self) -> None:
        while self._undo:
            setter, owner, key, orig = self._undo.pop()
            setter(owner, key, orig)

    def raw(self) -> dict:
        """Summable totals: calls, times, counts and distinct-argument counts."""
        out = {}
        for prefix, st in self.stats.items():
            out[f"{prefix}.calls"] = st.calls
            out[f"{prefix}.self_s"] = st.self_s
            out[f"{prefix}.total_s"] = st.total_s
            out[f"{prefix}.distinct_args"] = len(st.distinct)
            for key, value in st.counts.items():
                out[f"{prefix}.{key}"] = value
        return out

    def counts(self) -> dict:
        """Call counts only, for per-job deltas."""
        return {f"{prefix}.calls": st.calls for prefix, st in self.stats.items()}
