"""Derivative-free maximization of the inequality ratios over test families.

Nonnegativity is enforced by squaring (cell value or family parameter =
theta^2), which keeps the landscape smooth instead of projecting onto a
boundary.  The one-parameter families (``indicator``, ``gaussian``) are
``funcspace.sample`` of their analytic family at theta^2 on its default
support, on 512 and 1,024 cells (``_SCANS``): one fixed profile, the
family's at theta^2 = 1, whose cell width (hi - lo) / cells follows theta^2,
clamped to the range the family is sampled on.  A lattice is the unit-width
lattice times the cell width, so each correlates its profile once, at unit
width, on first use, and its scans and golden searches put that one lattice
at every width they read (``correlate.at_width``, the step of
``lattice_and_norms`` too), bit for bit the tuple of ``lattice_and_norms``
at that width.  Each objective scans it once, at 288 values of theta^2 less
the widths the Gaussian weight refuses, which are masked out before any
evaluation (``GaussianWeight.accepts``).  The scan evaluates the rest in a
few stacked evaluations, blocks of widths with one lattice row and one
spacing each, and each value is bit for bit the golden search's one-width
evaluation at its theta^2.  The cached scan gives the floor (``baseline``)
and the bracket between the neighbours of its best point.  Their search
evaluates that point, so no record ends below its floor, then narrows the
bracket by golden section (``constants._golden_min``) to 1e-6 relative; it
ignores the seed.  A best point at an end of the scan first walks outward,
doubling or halving theta^2 while the ratio rises, so the search reaches
past the scan as far as the clamps; a scan that keeps one point walks away
from the end of the full scan that point sits at.  The search clamps theta^2
before it takes theta, so a point past a clamp is scored and recorded at the
clamp.  The ``piecewise`` family runs a seeded multi-restart Nelder-Mead
simplex (reflection / expansion / contraction / shrink) on the unconstrained
cell parameters.

The optimizers only see scores; ``search`` owns the budget, the trace and
the winner in one recorder, a ``_Run`` per optimizer run that keeps its
values in order and its first best point.  Golden section calls the
objective.  The max(4, dim) simplex restarts run in lockstep (``_lockstep``):
their simplices are the rows of one array; each round stacks the pending
point of every live restart, in restart order, and evaluates the stack in
one call of the row kernels, and the array steps that follow (re-sort,
collapse test, centroid and step points) run once on the rows of every
restart that takes them.  The BS example has no free parameter: its run is
its one evaluation.  The budget only caps the evaluations: a golden search
ends on its tolerance well inside it, while each simplex restart stops on
its share or on the collapse of its simplex.  Once a golden search's run
holds ``budget`` values, its objective scores inf without an evaluation, a
score that improves on nothing, so an outward walk without end stops there
and golden section narrows its bracket on scores alone.  Every run ends in
one record: ``trace`` has one entry (index, best so far) per objective
evaluation, the runs' values concatenated in index order under a running
max, and ``evaluations`` is ``len(trace)``; the cached scan is not counted.
The winner is the first run that attains the best value, and within it the
first such evaluation, so ties keep the lowest restart index.  The record
is therefore bit for bit the one of running the restarts one after
another, one point at a time.

Each candidate is evaluated once, at array speed.  Every input is checked
once, where it enters.  ``search`` refuses a piecewise cell width 2 halfwidth
/ dim that is not a positive float (ValueError) before any evaluation; it
never changes.  ``_evaluate`` squares the parameters into the cell values,
checks only that they are finite, as they are the one input the simplex
chooses each round, and the objective kernel reads the ratio's array core
off their one lattice-and-norms tuple, as the ``q_*`` functions do.  A
one-parameter family checks each width its golden search picks, in
``_Dilations.ratio``; its profile and its scan's widths follow from
``_SCANS`` alone.  ``_evaluate`` and the kernels take a (rows, dim) stack of
parameters as well, and give each row the bits of its own 1-D call.  The
winner's value is therefore the ``q_*`` value of the family's grid function
at its parameters, bit for bit, and is not evaluated again.  No GridFunction,
Correlation or RatioResult is built per evaluation, yet every evaluation
still raises ZeroFunctionError, the ValueError of a sample scale outside the
float range, or the proven-ceiling InvariantViolation.  An evaluation's error
propagates as it was raised: a ValueError is malformed input, a RuntimeError
a breached invariant.  A lockstep round fails as one evaluation: the first
round with a refused row raises what its stacked evaluation raises, the
finiteness check's RuntimeError for the whole stack, or else the lowest
refused row's own error from the first check that refuses it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import _golden_min
from .correlate import LatticeAndNorms, at_width, lattice_and_norms, lattice_autocorrelation
from .funcspace import AnalyticFamily, Gaussian, Indicator, _readonly, sample
from .functionals import gauss_ratio, mean_ratio, min01_ratio, min12_ratio, q_min_01_bs
from .spectral import GaussianWeight

__all__ = [
    "SearchRecord",
    "search",
    "baseline",
    "OBJECTIVES",
    "FAMILIES",
]

DEFAULT_BUDGET = 2000
DEFAULT_DIMENSION = 16     # the piecewise family's cells
DEFAULT_HALFWIDTH = 0.5    # and its support [-1/2, 1/2]
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

_Kernel = Callable[[LatticeAndNorms], float]


def _objective_kernel(objective: str, a: Optional[float]) -> _Kernel:
    """The ratio of a lattice-and-norms tuple through the functionals' array core."""
    if objective == "gauss":
        if a is None or not a > 0:
            raise ValueError("the gauss objective needs a > 0")
        return lambda lat: gauss_ratio(lat, a)[0]
    core = {"mean": mean_ratio, "min12": min12_ratio, "min01": min01_ratio}.get(objective)
    if core is None:
        raise ValueError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if a is not None:
        raise ValueError(f"the {objective} objective reads no a, got a = {a!r}")
    return lambda lat: core(lat)[0]


@dataclass(frozen=True, eq=False)
class _Dilations:
    """A one-parameter family, ``family(theta^2)`` sampled on ``cells`` cells of
    its default support, and the 288 values of theta^2 whose scan gives the
    floor and the golden bracket."""

    family: Callable[[float], AnalyticFamily]  # the class, by its one parameter
    cells: int
    clamp: tuple[float, float]  # the range of theta^2 the family is sampled on
    grid: np.ndarray

    def clamped(self, t2: float) -> float:
        lo, hi = self.clamp
        return min(max(t2, lo), hi)

    @functools.cached_property
    def profile(self) -> np.ndarray:
        """The cell values, the same at every theta^2: those of ``family(1)``."""
        return sample(self.family(1.0), cells=self.cells).samples

    def spacing(self, t2: float) -> float:
        """The cell width of ``sample`` at theta^2 = t2, clamped."""
        lo, hi = self.family(self.clamped(t2)).default_support()
        return (hi - lo) / self.cells

    @functools.cached_property
    def unit(self) -> np.ndarray:
        """The profile's unit-width lattice, correlated on first use."""
        return lattice_autocorrelation(self.profile)

    def lattice(self, spacing) -> LatticeAndNorms:
        """The tuple at a cell width, or at each of a 1-D array of widths."""
        return at_width(self.unit, self.profile, spacing)

    @functools.cached_property
    def widths(self) -> np.ndarray:
        """The cell width at each value of the scan, theta^2 as the golden
        search gives it."""
        return _readonly(np.array([self.spacing(math.sqrt(g) ** 2) for g in self.grid]))

    def ratio(self, kernel: _Kernel, t2: float) -> float:
        """The objective's ratio at theta^2 = t2."""
        spacing = self.spacing(t2)
        # Only the golden search chooses theta^2, and its outward walk doubles
        # it without a bound where no clamp holds it, so a width that fails
        # this check is a program fault (RuntimeError), not malformed input.
        if not (math.isfinite(spacing) and spacing > 0):
            raise RuntimeError(f"the golden search gave spacing {spacing}, "
                               "not finite and positive")
        return kernel(self.lattice(spacing))


# Every midpoint of [-A, A] lies in the indicator 1_[-A, A], so its cells are
# all 1 at every A; exp(-b x^2) on its support [-5/sqrt(b), 5/sqrt(b)] is the
# b = 1 profile up to the rounding of b x^2 (1.5e-14 relative).
_SCANS = {
    "indicator": _Dilations(Indicator, 512, (1e-6, math.inf), np.linspace(0.26, 6.0, 288)),
    "gaussian": _Dilations(Gaussian, 1024, (1e-4, 1e6), np.geomspace(0.05, 200.0, 288)),
}


# Golden section stops when its bracket is below this fraction of the scan's
# best theta^2.  Near a smooth maximum the ratio changes by about
# (bracket / theta^2)^2 across the bracket, so a bracket much below 1e-7
# relative would be narrowed on differences under one ulp, and the record
# would hinge on the objective's last bit; at 1e-6 the value is within about
# 1e-15 of the maximum.
_GOLDEN_RTOL = 1e-6


def _bs_value(objective: str) -> float:
    """The BS example's ratio: it has no free parameter and only a min01 value."""
    if objective != "min01":
        raise ValueError("the BS example is evaluated through the min01 functional")
    return q_min_01_bs().value


def _evaluate(spacing: float, kernel: _Kernel, params: np.ndarray):
    """The ratio of the step function with cell values params^2 and cell
    width ``spacing``, or one per row of a stack of parameters."""
    cells = np.asarray(params, dtype=np.float64) ** 2
    # Only the simplex chooses the parameters, so cells that fail this check
    # are a program fault (RuntimeError), not malformed input.
    if not math.isfinite(cells.max()):
        raise RuntimeError("the simplex gave non-finite cells")
    return kernel(lattice_and_norms(cells, spacing))


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


def _golden_search(fn: Callable[[float], float], grid: Sequence[float], i: int,
                   full: Sequence[float]) -> None:
    """Minimize fn over theta^2 from the scan's best point grid[i]; ``full``
    is the family's whole scan, of which ``grid`` keeps a run.  Every
    evaluation goes through fn, which keeps the budget, the trace and the
    best, and scores inf once the budget is spent."""
    f_mid = fn(grid[i])  # the scan's best point first: no record ends below its floor
    if 0 < i < len(grid) - 1:
        _golden_min(fn, grid, i, _GOLDEN_RTOL * grid[i])
        return
    # Past an end of the scan: step outward by a factor of 2 while fn falls,
    # then bracket the last best point between its two neighbours.  A scan
    # that kept one point walks away from the end of the full scan it sits
    # at, and the point is its own inner neighbour.  Beyond a spacing clamp
    # fn is flat, so the walk stops one step past it.
    up = i == len(grid) - 1 and grid[i] != full[0]
    step = 2.0 if up else 0.5
    inner = grid[i - 1 if up else i + 1] if len(grid) > 1 else grid[i]
    mid = grid[i]
    while True:
        outer = mid * step
        f_outer = fn(outer)
        if not f_outer < f_mid:
            break
        inner, mid, f_mid = mid, outer, f_outer
    lo, hi = sorted((inner, outer))
    _golden_min(fn, (lo, mid, hi), 1, _GOLDEN_RTOL * mid)


# ---------------------------------------------------------------------------
# the recorder and the lockstep restarts
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Run:
    """One optimizer run: its values in evaluation order and its first best point."""

    values: list[float] = field(default_factory=list)
    best_value: float = -math.inf
    best_params: Optional[Sequence[float]] = None

    def record(self, params: Sequence[float], value: float) -> None:
        if value > self.best_value:
            self.best_value, self.best_params = value, params
        self.values.append(value)


def _lockstep(spacing: float, kernel: _Kernel, starts: list[np.ndarray],
              share: int) -> list[_Run]:
    """Nelder-Mead from each start, minimizing the negated ratio until the
    simplex collapses (every vertex within 1e-10 of the best) or the run has
    its ``share`` of evaluations, in rounds of one stacked evaluation (module
    docstring) of step functions with cell width ``spacing``, which the
    caller has checked.  The first round with a refused row raises what its
    stacked evaluation raises.

    Each restart's simplex, dim + 1 vertices kept sorted by score, and the
    three points its next step may score (reflection, expansion and
    contraction of the worst vertex) are the slots of one row of ``pool``;
    ``slot[r]`` is the slot restart r awaits a score for, and its phase:
    a vertex (the seeding fill, or the points of a shrink) or a step.  The
    phases are plain Python; the array work of a round runs once on the
    rows of every restart that needs it, above all the re-sort with its
    collapse test, centroid and step points, and gives each row the bits of
    its own one-simplex arithmetic (the one-restart oracle of the tests)."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    x0 = np.array(starts, dtype=np.float64)
    restarts, dim = x0.shape
    reflection, expansion, contraction = dim + 1, dim + 2, dim + 3
    pool = np.zeros((restarts, dim + 4, dim))
    pool[:, :dim + 1] = x0[:, None]
    axis = np.arange(dim)
    pool[:, axis + 1, axis] += 0.25 * np.where(x0 != 0, np.abs(x0), 1.0)
    scores = np.empty((restarts, dim + 1))  # minimized: the negated ratios
    gains = np.array([alpha, gamma])[:, None]  # of the reflection and the expansion
    slot, f_reflected = [0] * restarts, [0.0] * restarts
    runs = [_Run() for _ in starts]
    live = list(range(restarts))  # in restart order
    while live:
        stack = pool[live, [slot[r] for r in live]]
        replaced, sources, to_sort, to_shrink, ended = [], [], [], [], []
        for r, x, value in zip(live, stack, _evaluate(spacing, kernel, stack)):
            value = float(value)
            runs[r].record(x, value)
            if len(runs[r].values) >= share:
                ended.append(r)
                continue
            f, row, k = -value, scores[r], slot[r]
            if k <= dim:  # a vertex; after the last one, re-sort
                row[k] = f
                if k < dim:
                    slot[r] = k + 1
                    continue
            else:
                if k == reflection:
                    if not row[0] <= f < row[-2]:
                        f_reflected[r] = f
                        slot[r] = expansion if f < row[0] else contraction
                        continue
                elif k == expansion:  # keep the better of expansion and reflection
                    if not f < f_reflected[r]:
                        f, k = f_reflected[r], reflection
                elif not f < row[-1]:  # a failed contraction: shrink toward the best vertex
                    to_shrink.append(r)
                    slot[r] = 1
                    continue
                row[-1] = f  # the kept point replaces the worst vertex
                replaced.append(r)
                sources.append(k)
            to_sort.append(r)
        if replaced:
            pool[replaced, dim] = pool[replaced, sources]
        if to_shrink:
            best = pool[to_shrink, :1]
            pool[to_shrink, 1:dim + 1] = best + sigma * (pool[to_shrink, 1:dim + 1] - best)
        if to_sort:
            at = np.array(to_sort)
            order = np.argsort(scores[at], axis=1)
            scores[at] = scores[at[:, None], order]
            s = pool[at, :dim + 1] = pool[at[:, None], order]
            collapsed = np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) < 1e-10
            c = s[:, :-1].sum(axis=1) / dim  # what np.mean computes, without its overhead
            worst = s[:, -1]
            pool[at, reflection:contraction] = c[:, None] + gains * (c - worst)[:, None]
            pool[at, contraction] = c + rho * (worst - c)
            for r, stop in zip(to_sort, collapsed.tolist()):
                if stop:
                    ended.append(r)
                else:
                    slot[r] = reflection
        if ended:
            live = [r for r in live if r not in ended]
    return runs


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


# Lattice values per stacked evaluation of a scan: 128 KiB of them, glibc's
# default threshold for mapping an allocation afresh.  Blocks amortize
# numpy's per-call overhead, but from 256 KiB up a block's lattice and
# temporaries were mapped and faulted in anew, up to 2,000 page faults a
# scan, and the scans ran slower than at 128 KiB.
_SCAN_BLOCK_VALUES = 2 ** 14
_MAX_POOL_VALUES = 2 ** 24  # floats of the piecewise lockstep pool at most: dim <= 254


@functools.lru_cache(maxsize=None)
def _scan(objective: str, family: str,
          a: Optional[float] = None) -> tuple[tuple[float, ...], tuple[float, ...], int]:
    """The family's scan grid, the ratio at each of its values, and the index of
    the first best one.  Cached, so the floor and every search share one scan.

    The values whose widths the objective refuses (a Gaussian too wide for
    the Gaussian weight's per-cell rule) are left out of the grid before any
    evaluation; if every value is refused, the first one is evaluated and
    raises its refusal.  The rest are evaluated in blocks of widths, one
    stacked evaluation of the objective each, off the family's one lattice;
    each value is bit for bit ``_Dilations.ratio`` at its theta^2 and still
    passes the scale refusals and the objective's own checks.  The scan's
    widths are module constants, all positive floats, so they are not
    checked again.
    """
    kernel = _objective_kernel(objective, a)
    if family not in _SCANS:
        raise ValueError(f"no scannable baseline for family {family!r}")
    scan = _SCANS[family]
    keep = np.arange(scan.grid.size)
    if objective == "gauss":  # no other objective refuses a width of the scans
        accepted = GaussianWeight(a).accepts(scan.widths)
        keep = np.flatnonzero(accepted) if accepted.any() else keep[:1]
    widths = scan.widths[keep]
    block = max(1, _SCAN_BLOCK_VALUES // (2 * scan.profile.size + 1))
    values = np.concatenate([kernel(scan.lattice(widths[s:s + block]))
                             for s in range(0, widths.size, block)])
    return tuple(scan.grid[keep].tolist()), tuple(values.tolist()), int(np.argmax(values))


def baseline(objective: str, family: str, a: Optional[float] = None) -> float:
    """Floor value for search acceptance: the scan's best value, or the BS example's."""
    if family == "bs-example":
        _objective_kernel(objective, a)
        return _bs_value(objective)
    _, values, i = _scan(objective, family, a)
    return values[i]


def search(objective: str, family: str, budget: int = DEFAULT_BUDGET, seed: int = 0,
           a: Optional[float] = None, dimension: Optional[int] = None,
           halfwidth: Optional[float] = None) -> SearchRecord:
    """Maximize an inequality ratio over a family (module docstring).

    Deterministic given (objective, family, budget, seed).  A one-parameter
    family runs golden section from its cached scan and ignores the seed.  The
    piecewise family runs max(4, dim) simplex restarts of budget // restarts
    evaluations each: restart 0 from the ones vector, the others from seeded
    random starts.  ``dimension`` is the piecewise family's cell count, at
    least 1, ``DEFAULT_DIMENSION`` when not given; each restart must afford
    the dim + 1 evaluations that seed its simplex.  ``halfwidth`` is the
    piecewise family's support [-halfwidth, halfwidth], finite and positive,
    ``DEFAULT_HALFWIDTH`` when not given.  Those checks refuse a bad value
    whatever the family (ValueError); then a family that reads no dimension
    or halfwidth refuses any given value of either, and the piecewise family
    refuses a dimension past 254, whose lockstep pool would hold more than
    ``_MAX_POOL_VALUES`` floats, and a cell width 2 halfwidth / dim that
    underflows to 0 or overflows (ValueError), before any evaluation.
    """
    if budget < 100:
        raise ValueError(f"budget must be at least 100, got {budget}")
    if dimension is not None and dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if halfwidth is not None and not (math.isfinite(halfwidth) and halfwidth > 0):
        raise ValueError(f"halfwidth must be finite and positive, got {halfwidth}")
    if family != "piecewise":
        for name, value in (("dimension", dimension), ("halfwidth", halfwidth)):
            if value is not None:
                raise ValueError(f"the {family} family reads no {name}, got {name} = {value!r}")
    kernel = _objective_kernel(objective, a)
    label = objective if a is None else f"{objective}(a={a:.6g})"
    if family == "bs-example":
        dim, run = 0, _Run()
        run.record((), _bs_value(objective))
        runs = [run]
    elif family in _SCANS:
        scan, dim, run = _SCANS[family], 1, _Run()

        def negated(t2: float) -> float:
            if len(run.values) >= budget:
                return math.inf  # the budget is spent: a score that improves on nothing
            theta = math.sqrt(scan.clamped(t2))  # past a clamp, the clamp's function
            value = scan.ratio(kernel, theta ** 2)
            run.record((theta,), value)
            return -value  # golden section minimizes

        grid, _, i = _scan(objective, family, a)
        _golden_search(negated, grid, i, scan.grid)
        runs = [run]
    elif family == "piecewise":
        dim = DEFAULT_DIMENSION if dimension is None else dimension
        halfwidth = DEFAULT_HALFWIDTH if halfwidth is None else halfwidth
        spacing = 2.0 * halfwidth / dim
        if not (math.isfinite(spacing) and spacing > 0):
            raise ValueError(f"halfwidth {halfwidth} over {dim} cells gives cell width "
                             f"{spacing}, not finite and positive")
        restarts = max(4, dim)
        if restarts * (dim + 4) * dim > _MAX_POOL_VALUES:  # before any allocation
            raise ValueError(f"dimension {dim} needs a lockstep pool of more than "
                             f"{_MAX_POOL_VALUES} floats")
        per_restart = budget // restarts
        if per_restart < dim + 1:
            raise ValueError(f"budget {budget} gives each of {restarts} restarts {per_restart} "
                             f"evaluations; seeding a {dim}-dimensional simplex takes {dim + 1}")
        starts = [np.ones(dim)]
        for r in range(1, restarts):
            rng = np.random.default_rng([seed, r])
            starts.append(np.exp(rng.uniform(-math.log(4.0), math.log(4.0), dim)))
        runs = _lockstep(spacing, kernel, starts, per_restart)
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")

    # The runs concatenated in index order; the winner is the first evaluation
    # that attains the best value, as max keeps the first of equal runs.
    values = [value for run in runs for value in run.values]
    winner = max(runs, key=lambda run: run.best_value)
    return SearchRecord(objective=label, family=family, dimension=dim,
                        best_params=tuple(float(x) for x in winner.best_params),
                        best_value=float(winner.best_value), evaluations=len(values), seed=seed,
                        trace=tuple(enumerate(itertools.accumulate(values, max), 1)))
