"""Acceptance criteria runners.

Each criterion function measures its quantities, compares them against the
frozen expected values at the stated tolerances, and returns a
:class:`CriterionResult`.  The CLI ``verify`` subcommand and the pytest
acceptance module both run these; ``fault`` injects a deliberate corruption
into one criterion as a negative control.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import numpy.random

from . import constants as C
from . import correlate as corr
from . import dualcheck as dual
from . import functionals as fun
from .search import DEFAULT_BUDGET, baseline, search as run_search
from .funcspace import GridFunction
from .spectral import GaussianWeight, IntervalWeight

__all__ = [
    "CriterionResult",
    "Check",
    "random_grid_function",
    "run_acceptance",
    "CRITERIA",
    "format_table",
]

_SEED = 20260809


@dataclass(frozen=True)
class Check:
    """One measured-vs-expected comparison inside a criterion."""

    name: str
    measured: float
    expected: float
    tolerance: float
    comparison: str = "abs"  # 'abs': |m-e|<=tol ; 'ge': m >= e - tol

    @property
    def passed(self) -> bool:
        if not np.isfinite(self.measured):
            return bool(self.comparison == "ge" and self.measured > 0)
        if self.comparison == "abs":
            return bool(abs(self.measured - self.expected) <= self.tolerance)
        if self.comparison == "ge":
            return bool(self.measured >= self.expected - self.tolerance)
        raise ValueError(self.comparison)


@dataclass
class CriterionResult:
    index: int
    title: str
    checks: list[Check] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "criterion": self.index,
            "title": self.title,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "checks": [
                {
                    "name": c.name,
                    "measured": float(c.measured),
                    "expected": float(c.expected),
                    "tolerance": float(c.tolerance),
                    "comparison": c.comparison,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def random_grid_function(rng: np.random.Generator, max_cells: int = 48,
                         unit_support: bool = False) -> GridFunction:
    """A seeded random nonnegative piecewise-constant test function."""
    if unit_support:
        n = int(rng.choice([8, 16, 32, 64]))
        origin, h = -0.5, 1.0 / n
    else:
        n = int(rng.integers(8, max_cells + 1))
        h = float(rng.uniform(0.02, 0.15))
        origin = -0.5 * n * h + float(rng.uniform(-0.3, 0.3))
    vals = rng.uniform(0.0, 1.0, n) ** float(rng.choice([1.0, 2.0]))
    if rng.uniform() < 0.3:
        k = int(rng.integers(1, max(2, n // 3)))
        vals[rng.choice(n, size=k, replace=False)] = 0.0
    if not vals.any():
        vals[n // 2] = 1.0
    return GridFunction(origin, h, vals)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1(fault: bool = False) -> CriterionResult:
    """Theorem-1 constant: inf_p C_p(interval) and C_2 against 2*3^(-3/4)."""
    res = CriterionResult(1, "mean constant 0.864 and C_2 closed form")
    inf_rep = C.minimize_over_p(IntervalWeight())
    c2 = C.mean_upper_constant(IntervalWeight(), 2.0)
    v = inf_rep.value + (0.01 if fault else 0.0)
    res.checks.append(Check("inf_p C_p", v, 0.864, 5e-4))
    res.checks.append(Check("C_2 vs 2*3^(-3/4)", c2.value, 2.0 * 3.0 ** -0.75, 1e-6))
    return res


def criterion_2(fault: bool = False) -> CriterionResult:
    """Gaussian-weight constants at a = 2 pi."""
    res = CriterionResult(2, "gaussian bounds 0.8773 / 0.84090 at a = 2 pi")
    a = 2 * math.pi
    upper = C.mean_upper_constant(GaussianWeight(a), 2.0)
    lower = C.gaussian_mean_lower(a)
    v = upper.value + (0.01 if fault else 0.0)
    res.checks.append(Check("upper C_2(gauss)", v, 0.8773, 5e-4))
    res.checks.append(Check("lower 2^(-1/4)", lower.value, 2.0 ** -0.25, 5e-4))
    rel_b = abs(lower.ingredients["scan_best_b"] - 2 * a) / (2 * a)
    res.checks.append(Check("scan maximizer b/(2a) - 1", rel_b, 0.0, 0.01))
    return res


def criterion_3(fault: bool = False) -> CriterionResult:
    """Mixed-norm minimum constant and the indicator lower bound."""
    res = CriterionResult(3, "mixed constant 0.829604 and indicator 0.54433")
    mixed = C.min_mixed_constant()
    ind = C.indicator_min_lower()
    v = mixed.value + (0.01 if fault else 0.0)
    res.checks.append(Check("interpolated constant", v, 0.829604, 5e-4))
    res.checks.append(Check("indicator lower", ind.value, 0.54433, 1e-4))
    res.checks.append(Check("A_star", ind.ingredients["A_star"], 0.75, 1e-12))
    return res


def criterion_4(fault: bool = False) -> CriterionResult:
    """Roots: theta0, xi0, alpha0 and the defining residuals."""
    res = CriterionResult(4, "sinc-minimum roots")
    r = C.sinc_min_roots()
    v = r.theta0 + (1e-3 if fault else 0.0)
    res.checks.append(Check("theta0", v, 0.217234, 1e-6))
    res.checks.append(Check("xi0", r.xi0, 0.71514, 1e-5))
    res.checks.append(Check("alpha0 > 2/3", r.alpha0, 2.0 / 3.0, 0.0, "ge"))
    res.checks.append(Check("y0 residual", r.residual_y0, 0.0, 1e-12))
    res.checks.append(Check("sinc-minimum residual", r.residual_sinc_min, 0.0, 1e-10))
    return res


def criterion_5(fault: bool = False) -> CriterionResult:
    """BS example: correlation floor pi/4, L1 norm, min01 ratio."""
    res = CriterionResult(5, "BS example floor and norms")
    ratio = fun.q_min_01_bs()  # its numerator is the least f*f on its [0, 1] grid
    worst = ratio.numerator - (0.01 if fault else 0.0)
    res.checks.append(Check("min f*f on [0,1] grid", worst, math.pi / 4, 1e-4, "ge"))
    res.checks.append(Check("||f||_1 vs 11 pi/24", ratio.l1, 11 * math.pi / 24, 1e-4))
    res.checks.append(Check("q_min_01 >= 0.3788", ratio.value, 0.3788, 1e-3, "ge"))
    return res


def criterion_6(fault: bool = False) -> CriterionResult:
    """Property suite: ceilings, Plancherel, correlation laws, periodization,
    dilation covariance."""
    res = CriterionResult(6, "seeded property suite")
    rng = np.random.default_rng(_SEED)
    slack = 1e-4
    a_pool = [0.5, 2 * math.pi, 20.0]

    worst_margin = math.inf   # ceiling - value, minimized
    worst_fubini = 0.0
    worst_even = 0.0
    worst_peak = 0.0
    for i in range(200):
        f = random_grid_function(rng)
        a = a_pool[i % 3]
        lat = corr.lattice_and_norms(f.samples, f.spacing)  # one lattice of f*f for all
        c, h, l1, _ = lat  # h c.sum() is Correlation.mass, the lattice trapezoid of f*f
        pairs = [
            (fun.mean_ratio(lat)[0], fun.MEAN_CEILING),
            (fun.gauss_ratio(lat, a)[0], fun.gauss_ceiling(a)),
            (fun.min12_ratio(lat)[0], fun.MIN12_CEILING),
            (fun.min01_ratio(lat)[0], fun.MIN01_CEILING),
        ]
        for value, ceiling in pairs:
            worst_margin = min(worst_margin, ceiling - value)
        worst_even = max(worst_even, float(np.max(np.abs(c - c[::-1]))))
        worst_peak = max(worst_peak, float(np.max(c) - c[c.size // 2]))
        worst_fubini = max(worst_fubini, abs(float(h * c.sum()) - l1 ** 2) / l1 ** 2)
    if fault:
        worst_margin = -1.0
    res.checks.append(Check("worst ceiling margin", worst_margin, 0.0, slack, "ge"))
    res.checks.append(Check("worst Fubini mass error", worst_fubini, 0.0, 1e-8))
    res.checks.append(Check("worst evenness error", worst_even, 0.0, 1e-10))
    res.checks.append(Check("worst peak-at-zero breach", worst_peak, 0.0, 1e-12))

    worst_agree = 0.0
    rng2 = np.random.default_rng(_SEED + 1)
    for i in range(50):
        f = random_grid_function(rng2, max_cells=32)
        for q in (fun.q_mean(f), fun.q_gauss(f, 2 * math.pi)):
            worst_agree = max(worst_agree,
                              abs(q.numerator - q.fourier_numerator) / (q.l1 * q.l2))
    res.checks.append(Check("worst time/Fourier disagreement", worst_agree, 0.0, 1e-6))

    worst_dom = math.inf
    worst_l1 = 0.0
    rng3 = np.random.default_rng(_SEED + 2)
    for _ in range(50):
        g = random_grid_function(rng3, unit_support=True)
        G = corr.periodize(g)
        cg, cG = corr.autocorrelate(g), corr.autocorrelate(G)
        ts = cg.lattice
        keep = (ts >= 0.0) & (ts <= 1.0)
        diff = cG.value(ts[keep]) - cg.values[keep]
        worst_dom = min(worst_dom, float(diff.min()))
        worst_l1 = max(worst_l1, abs(G.l1_norm - 2 * g.l1_norm) / (2 * g.l1_norm))
    res.checks.append(Check("periodization domination", worst_dom, 0.0, 1e-9, "ge"))
    res.checks.append(Check("periodization L1 doubling", worst_l1, 0.0, 1e-10))

    worst_cov = 0.0
    rng4 = np.random.default_rng(_SEED + 3)
    for _ in range(50):
        f = random_grid_function(rng4, max_cells=24)
        lam = float(rng4.uniform(0.5, 0.95))
        fl = corr.dilate(f, lam)
        ca, cb = corr.autocorrelate(fl), corr.autocorrelate(f)
        gap = float(np.max(np.abs(ca.values - cb.values / lam))) / f.l1_norm ** 2
        worst_cov = max(worst_cov, gap)
    res.checks.append(Check("dilation covariance", worst_cov, 0.0, 1e-9))
    return res


def criterion_7(fault: bool = False) -> CriterionResult:
    """Dual bound on the positive Fourier mass for all three bump families."""
    res = CriterionResult(7, "dual positive-mass bound")
    for bump in dual.BUMPS:
        rep = dual.dual_mass_report(bump)
        pos = rep.positive_mass - (0.05 if fault else 0.0)
        res.checks.append(Check(f"{rep.bump}: pos mass", pos, rep.lower_bound, 1e-4, "ge"))
        res.checks.append(Check(f"{rep.bump}: refined bound", pos,
                                rep.refined_bound, 1e-4, "ge"))
        res.checks.append(Check(f"{rep.bump}: sum-diff identity",
                                rep.sum_diff_gap, 0.0, 1e-8))
    return res


def criterion_8(fault: bool = False) -> CriterionResult:
    """Case-2bb residual stays above 0.01 on the log grid."""
    res = CriterionResult(8, "case-2bb non-solution residual")
    _, residuals = dual.case2bb_scan()
    v = float(residuals.min()) - (1.0 if fault else 0.0)
    res.checks.append(Check("min residual over a-grid", v, 0.01, 0.0, "ge"))
    return res


def criterion_9(fault: bool = False) -> CriterionResult:
    """Search determinism and baseline floors."""
    res = CriterionResult(9, "search determinism and floors")
    a = 2 * math.pi
    rec1 = run_search("gauss", "gaussian", budget=DEFAULT_BUDGET, seed=7, a=a)
    rec2 = run_search("gauss", "gaussian", budget=DEFAULT_BUDGET, seed=7, a=a)
    identical = float(rec1.trace == rec2.trace and rec1.best_value == rec2.best_value)
    if fault:
        identical = 0.0
    res.checks.append(Check("identical traces (same seed)", identical, 1.0, 0.0, "ge"))

    floors = [
        ("gauss/gaussian", rec1.best_value,
         baseline("gauss", "gaussian", a=a)),
        ("min12/indicator",
         run_search("min12", "indicator", budget=DEFAULT_BUDGET, seed=3).best_value,
         baseline("min12", "indicator")),
        ("min01/bs-example",
         run_search("min01", "bs-example", budget=DEFAULT_BUDGET, seed=1).best_value,
         baseline("min01", "bs-example")),
    ]
    for name, best, floor in floors:
        res.checks.append(Check(f"floor {name}", best, floor, 1e-3, "ge"))
    return res


CRITERIA: dict[int, Callable[..., CriterionResult]] = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def run_acceptance(fault: Optional[int] = None,
                   only: Optional[list[int]] = None) -> list[CriterionResult]:
    """Run all (or selected) criteria; ``fault`` corrupts one as a negative control."""
    results = []
    for idx, fn in CRITERIA.items():
        if only is not None and idx not in only:
            continue
        t0 = time.perf_counter()
        out = fn(fault=(fault == idx))
        out.elapsed = time.perf_counter() - t0
        results.append(out)
    return results


def format_table(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] criterion {r.index}: {r.title} ({r.elapsed:.1f}s)")
        for c in r.checks:
            mark = "ok " if c.passed else "BAD"
            op = {"abs": "~", "ge": ">="}[c.comparison]
            lines.append(f"    {mark} {c.name}: {c.measured:.10g} {op} "
                         f"{c.expected:.10g} (tol {c.tolerance:g})")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
