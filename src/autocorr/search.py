"""Derivative-free maximization of the inequality ratios over test families.

Nonnegativity is enforced by squaring (cell value or family parameter =
theta^2), which keeps the landscape smooth instead of projecting onto a
boundary.  The one-parameter families (``indicator``, ``gaussian``) are
scanned once at 288 values of theta^2, less those whose lattice the
objective refuses; the scan is cached and gives both the floor
(``baseline``) and the bracket between the neighbours of its best point.
Their search evaluates that point, so no record ends below its floor, then
narrows the bracket by golden section (``constants._golden_min``)
to 1e-6 relative; it ignores the seed.  A best point at an end of the scan
first walks outward, doubling or halving theta^2 while the ratio rises, so
the search reaches past the scan as far as the builder's clamps.  The
``piecewise`` family runs a seeded multi-restart Nelder-Mead simplex
(reflection / expansion / contraction / shrink) on the unconstrained cell
parameters.

The optimizers only see scores; ``search`` owns the budget, the trace and
the winner in one recorder, a ``_Run`` per optimizer run that keeps its
values in order and its first best point.  Golden section calls the
objective.  The simplex is a generator that yields each point it wants scored
and takes the score by ``send``, so the max(4, dim) restarts run in lockstep:
each round stacks the pending point of every live restart, in restart order,
and evaluates the stack in one call of the row kernels.  The budget only caps
the evaluations: a golden search ends on its tolerance well inside it (or,
walking outward without end, on the budget), while each simplex restart stops
on its share.  ``trace`` has one entry (index, best so far) per objective
evaluation, the runs concatenated in index order, and ``evaluations`` is
``len(trace)``; the cached scan is not counted.  The winner is the first
evaluation that attains the best value, so ties keep the lowest restart
index.  The record is therefore bit for bit the one of running the restarts
one after another, one point at a time.  The BS example has no free
parameter, so its record is a single evaluation.

Each candidate is evaluated once, at array speed.  A family builder turns
the parameters into the cell values and cell width of a grid function (the
midpoint arithmetic of ``funcspace.sample``), ``_evaluate`` checks them once
(finite, nonnegative values, positive width), and the objective kernel reads
the ratio's array core off their one ``functionals.lattice_and_norms`` tuple,
as the ``q_*`` functions do.  The piecewise builder and the kernels take a
(rows, dim) stack of parameters as well, and give each row the bits of its
own 1-D call.  The winner's value is therefore the public ``q_*`` value at
its parameters, bit for bit, and is not evaluated again.  No GridFunction,
Correlation or RatioResult is built per evaluation, yet every evaluation
still raises ZeroFunctionError, the ValueError of a sample scale outside the
float range, or the proven-ceiling InvariantViolation.  An evaluation's error
propagates as it was raised: a ValueError is malformed input, a RuntimeError
a breached invariant.  A lockstep round fails as one evaluation: the first
round with a refused row raises what its stacked evaluation raises, the
builder check's RuntimeError for the whole stack, or else the lowest refused
row's own error from the first check that refuses it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence

import numpy as np

from .constants import _golden_min
from .funcspace import Gaussian, Indicator, _midpoint_samples
from .functionals import (LatticeAndNorms, gauss_ratio, lattice_and_norms, mean_ratio,
                          min01_ratio, min12_ratio, q_min_01_bs)

__all__ = [
    "SearchRecord",
    "search",
    "baseline",
    "OBJECTIVES",
    "FAMILIES",
]

DEFAULT_BUDGET = 2000
OBJECTIVES = ("mean", "gauss", "min12", "min01")
FAMILIES = ("indicator", "gaussian", "piecewise", "bs-example")


@dataclass(frozen=True, eq=False)
class SearchRecord:
    """Outcome of one search (module docstring)."""

    objective: str
    family: str
    dimension: int
    best_params: tuple[float, ...]
    best_value: float
    evaluations: int
    seed: int
    trace: tuple[tuple[int, float], ...]  # (evaluation index, best so far)


# ---------------------------------------------------------------------------
# families and objectives (see the module docstring)
# ---------------------------------------------------------------------------

_Samples = tuple[np.ndarray, float]
_Kernel = Callable[[LatticeAndNorms], float]


def _build_indicator(params: np.ndarray) -> _Samples:
    A = max(float(params[0]) ** 2, 1e-6)
    return _midpoint_samples(Indicator(A), -A, A, 512)


def _build_gaussian(params: np.ndarray) -> _Samples:
    b = min(max(float(params[0]) ** 2, 1e-4), 1e6)
    family = Gaussian(b)
    return _midpoint_samples(family, *family.default_support(), 1024)


def _build_piecewise(params: np.ndarray, halfwidth: float) -> _Samples:
    vals = np.asarray(params, dtype=np.float64) ** 2
    return vals, 2.0 * halfwidth / vals.shape[-1]


def _objective_kernel(objective: str, a: Optional[float]) -> _Kernel:
    """The ratio of a lattice-and-norms tuple through the functionals' array core."""
    if objective == "gauss":
        if a is None or not a > 0:
            raise ValueError("the gauss objective needs a > 0")
        return lambda lat: gauss_ratio(lat, a)[0]
    core = {"mean": mean_ratio, "min12": min12_ratio, "min01": min01_ratio}.get(objective)
    if core is None:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    return lambda lat: core(lat)[0]


# The one-parameter families: the builder, and the 288 values of the family
# parameter (theta^2) whose scan gives the floor and the golden bracket.
_SCANS = {
    "indicator": (_build_indicator, np.linspace(0.26, 6.0, 288)),
    "gaussian": (_build_gaussian, np.geomspace(0.05, 200.0, 288)),
}


# Golden section stops when its bracket is below this fraction of the scan's
# best theta^2.  Near a smooth maximum the ratio changes by about
# (bracket / theta^2)^2 across the bracket, so a bracket much below 1e-7
# relative would be narrowed on differences under one ulp, and the record
# would hinge on the objective's last bit; at 1e-6 the value is within about
# 1e-15 of the maximum.
_GOLDEN_RTOL = 1e-6


def _family_builder(family: str, dimension: int, halfwidth: float) -> tuple[Callable, int]:
    if family in _SCANS:
        return _SCANS[family][0], 1
    if family == "piecewise":
        return (lambda p: _build_piecewise(p, halfwidth)), dimension
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _bs_value(objective: str) -> float:
    """The BS example's ratio: it has no free parameter and only a min01 value."""
    if objective != "min01":
        raise ValueError("the BS example is evaluated through the min01 functional")
    return q_min_01_bs().value


def _evaluate(build: Callable[[np.ndarray], _Samples], kernel: _Kernel,
              params: np.ndarray):
    """The ratio at params, or one per row of a piecewise stack.  Only the
    optimizers give the builder parameters, so output that fails the check
    is a program fault (RuntimeError)."""
    samples, spacing = build(params)
    if not (samples.min() >= 0.0 and math.isfinite(samples.max())):
        raise RuntimeError("family builder gave non-finite or negative samples")
    if not (math.isfinite(spacing) and spacing > 0):
        raise RuntimeError(f"family builder gave spacing {spacing}, not positive")
    return kernel(lattice_and_norms(samples, spacing))


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


def _nelder_mead(x0: np.ndarray) -> Generator[np.ndarray, float, None]:
    """Minimize from x0 until the simplex, one (dim + 1, dim) array kept
    sorted by score, collapses.  A generator: it yields each point to score,
    often a view of a simplex row, and takes its score by ``send``; the
    caller keeps the budget, the trace and the best, and ends a run by
    sending no more."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    x0 = np.asarray(x0, dtype=np.float64)
    dim = x0.size
    simplex = np.tile(x0, (dim + 1, 1))
    for i in range(dim):
        simplex[i + 1, i] += 0.25 * (abs(x0[i]) if x0[i] != 0 else 1.0)
    scores = np.empty(dim + 1)
    for i in range(dim + 1):
        scores[i] = yield simplex[i]
    while True:
        order = np.argsort(scores)
        simplex, scores = simplex[order], scores[order]
        if np.max(np.abs(simplex[1:] - simplex[0])) < 1e-10:
            return
        centroid = simplex[:-1].sum(axis=0) / dim  # what np.mean computes, without its overhead
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = yield xr
        if scores[0] <= fr < scores[-2]:
            simplex[-1], scores[-1] = xr, fr
            continue
        if fr < scores[0]:
            xe = centroid + gamma * (centroid - simplex[-1])
            fe = yield xe
            if fe < fr:
                simplex[-1], scores[-1] = xe, fe
            else:
                simplex[-1], scores[-1] = xr, fr
            continue
        xc = centroid + rho * (simplex[-1] - centroid)
        fc = yield xc
        if fc < scores[-1]:
            simplex[-1], scores[-1] = xc, fc
            continue
        simplex[1:] = simplex[0] + sigma * (simplex[1:] - simplex[0])
        for i in range(1, dim + 1):
            scores[i] = yield simplex[i]


def _golden_search(fn: Callable[[float], float], grid: Sequence[float], i: int) -> None:
    """Minimize fn over theta^2 from the scan's best point grid[i].  Every
    evaluation goes through fn, which keeps the budget, the trace and the
    best, and ends the run by raising ``_BudgetExhausted``."""
    f_mid = fn(grid[i])  # the scan's best point first: no record ends below its floor
    if 0 < i < len(grid) - 1:
        _golden_min(fn, grid, i, _GOLDEN_RTOL * grid[i])
        return
    # Past an end of the scan: step outward by a factor of 2 while fn falls,
    # then bracket the last best point between its two neighbours.  Beyond a
    # builder clamp fn is flat, so the walk stops one step past it.
    step = 2.0 if i else 0.5
    inner, mid = grid[1 if i == 0 else -2], grid[i]
    while True:
        outer = mid * step
        f_outer = fn(outer)
        if not f_outer < f_mid:
            break
        inner, mid, f_mid = mid, outer, f_outer
    lo, hi = sorted((inner, outer))
    _golden_min(fn, (lo, mid, hi), 1, _GOLDEN_RTOL * mid)


class _BudgetExhausted(Exception):
    pass


# ---------------------------------------------------------------------------
# the recorder and the lockstep restarts
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Run:
    """One optimizer run: its values in evaluation order and its first best point."""

    values: list[float] = field(default_factory=list)
    best_value: float = -math.inf
    best_params: Optional[np.ndarray] = None

    def record(self, params: np.ndarray, value: float) -> None:
        if value > self.best_value:
            self.best_value, self.best_params = value, params
        self.values.append(value)


def _lockstep(build: Callable, kernel: _Kernel, starts: list[np.ndarray],
              share: int) -> list[_Run]:
    """One simplex run per start, each of at most ``share`` evaluations, in
    rounds of one stacked evaluation (module docstring).  The first round
    with a refused row raises what its stacked evaluation raises."""
    runs = [_Run() for _ in starts]
    simplices = [_nelder_mead(x0) for x0 in starts]
    pending = {r: next(simplex) for r, simplex in enumerate(simplices)}  # in restart order
    while pending:
        live = list(pending)
        stack = np.array([pending[r] for r in live])  # a copy: the points are simplex views
        for r, x, value in zip(live, stack, _evaluate(build, kernel, stack)):
            value = float(value)
            runs[r].record(x, value)
            if len(runs[r].values) < share:
                try:
                    pending[r] = simplices[r].send(-value)  # the simplex minimizes
                    continue
                except StopIteration:  # the simplex collapsed
                    pass
            del pending[r]
    return runs


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _scan(objective: str, family: str,
          a: Optional[float] = None) -> tuple[tuple[float, ...], tuple[float, ...], int]:
    """The family's scan grid, the ratio at each of its values, and the index of
    the first best one.  Cached, so the floor and every search share one scan.

    A value whose lattice the objective refuses (ValueError, as a Gaussian
    too wide for the Gaussian weight's per-cell rule) is left out of the
    grid; if every value is refused, the first refusal is raised.
    """
    kernel = _objective_kernel(objective, a)
    if family not in _SCANS:
        raise ValueError(f"no scannable baseline for family {family!r}")
    build, full = _SCANS[family]
    grid, values, refusal = [], [], None
    for g in full:
        try:
            value = _evaluate(build, kernel, np.array([math.sqrt(g)]))
        except ValueError as err:
            refusal = refusal or err
        else:
            grid.append(float(g))
            values.append(value)
    if not values:
        raise refusal
    return tuple(grid), tuple(values), int(np.argmax(values))


def baseline(objective: str, family: str, a: Optional[float] = None) -> float:
    """Floor value for search acceptance: the scan's best value, or the BS example's."""
    if family == "bs-example":
        return _bs_value(objective)
    _, values, i = _scan(objective, family, a)
    return values[i]


def search(objective: str, family: str, budget: int = DEFAULT_BUDGET, seed: int = 0,
           a: Optional[float] = None, dimension: int = 16,
           halfwidth: float = 0.5) -> SearchRecord:
    """Maximize an inequality ratio over a family (module docstring).

    Deterministic given (objective, family, budget, seed).  A one-parameter
    family runs golden section from its cached scan and ignores the seed.  The
    piecewise family runs max(4, dim) simplex restarts of budget // restarts
    evaluations each: restart 0 from the ones vector, the others from seeded
    random starts.  ``dimension`` is the piecewise family's cell count, at
    least 1; each restart must afford the dim + 1 evaluations that seed its
    simplex.  ``halfwidth`` is the piecewise family's support [-halfwidth,
    halfwidth]; it must be finite and positive (ValueError, whatever the family).
    """
    if budget < 100:
        raise ValueError(f"budget must be at least 100, got {budget}")
    if dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if not (math.isfinite(halfwidth) and halfwidth > 0):
        raise ValueError(f"halfwidth must be finite and positive, got {halfwidth}")
    label = objective if a is None else f"{objective}(a={a:.6g})"
    if family == "bs-example":
        value = _bs_value(objective)
        return SearchRecord(objective=label, family=family, dimension=0, best_params=(),
                            best_value=value, evaluations=1, seed=seed, trace=((1, value),))
    build, dim = _family_builder(family, dimension, halfwidth)
    kernel = _objective_kernel(objective, a)

    if family in _SCANS:
        run = _Run()

        def negated(x: np.ndarray) -> float:
            if len(run.values) >= budget:
                raise _BudgetExhausted
            value = _evaluate(build, kernel, x)
            run.record(x, value)
            return -value  # golden section minimizes

        try:
            grid, _, i = _scan(objective, family, a)
            _golden_search(lambda g: negated(np.array([math.sqrt(g)])), grid, i)
        except _BudgetExhausted:
            pass
        runs = [run]
    else:
        restarts = max(4, dim)
        per_restart = budget // restarts
        if per_restart < dim + 1:
            raise ValueError(f"budget {budget} gives each of {restarts} restarts {per_restart} "
                             f"evaluations; seeding a {dim}-dimensional simplex takes {dim + 1}")
        starts = [np.ones(dim)]
        for r in range(1, restarts):
            rng = np.random.default_rng([seed, r])
            starts.append(np.exp(rng.uniform(-math.log(4.0), math.log(4.0), dim)))
        runs = _lockstep(build, kernel, starts, per_restart)

    # The runs concatenated in index order; the winner is the first evaluation
    # that attains the best value.
    trace: list[tuple[int, float]] = []
    best, winner = -math.inf, runs[0]
    for run in runs:
        for value in run.values:
            best = value if value > best else best
            trace.append((len(trace) + 1, best))
        if run.best_value > winner.best_value:
            winner = run
    return SearchRecord(objective=label, family=family, dimension=dim,
                        best_params=tuple(float(x) for x in winner.best_params),
                        best_value=float(winner.best_value), evaluations=len(trace), seed=seed,
                        trace=tuple(trace))
