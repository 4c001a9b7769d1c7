"""The inequality ratios: weighted means and window minima of f*f.

Each functional divides by ||f||_1 ||f||_2 (mean, gauss, min12) or ||f||_1^2
(min01).  ``q_mean`` and ``q_gauss`` carry both a time-side evaluation (exact
on the cell model) and the Fourier-side one of Plancherel
(``mean_functional_fourier``); the ratio always uses the time side, and the
disagreement of the two sides is the error estimate, the only measure of the
Fourier side's accuracy.  Window minima are exact because the cell-model
correlation is piecewise linear.

Every result is checked against its proven theorem ceiling; a breach raises
:class:`InvariantViolation` since it can only come from a numerics bug.

Each ratio has one array core (``mean_ratio``, ``gauss_ratio``,
``min12_ratio``, ``min01_ratio``) on the tuple (c, h, l1, l2).  One rule
puts every lattice at a width: the lattice at cell width h is the
unit-width lattice (``correlate.lattice_autocorrelation``) times h.
``at_width`` is that step: it scales a unit lattice and the norms to a
width and refuses the zero function and sample scales that the float range
cannot hold.  ``lattice_and_norms`` correlates the cells and takes that
step; the search's one-parameter families keep their profile's unit
lattice and take it at every width they read.  The ``q_*`` functions build
the tuple once and wrap the core's fields, with the Fourier side for the
weighted means, in a :class:`RatioResult`; the search and criterion 6 call
the cores, the time side alone, on their own tuple.  The tuple and the
cores also take a stack, one row per function: a (rows, n) stack of cells
on one width, as the search evaluates a round of candidates, or a scan's
block of widths of one profile, one spacing per row.  Each field is then an
array with one entry per row, bit for bit the row's own 1-D value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import sinc_min_roots
from .correlate import autocorrelate_singular, lattice_autocorrelation, lattice_min
from .funcspace import BSExample, GridFunction, _l1_norm, _l2_norm, bs_l1
from .spectral import GaussianWeight, IntervalWeight, Weight, mean_functional_fourier

__all__ = [
    "RatioResult",
    "ZeroFunctionError",
    "InvariantViolation",
    "q_mean",
    "q_gauss",
    "q_min_12",
    "q_min_01",
    "q_min_01_bs",
    "lattice_and_norms",
    "at_width",
    "mean_ratio",
    "gauss_ratio",
    "min12_ratio",
    "min01_ratio",
    "gauss_ceiling",
]

MEAN_CEILING = 0.8641          # Theorem-1 consequence, printed rounding
MIN12_CEILING = 0.829604       # interpolated mixed-norm constant
MIN01_CEILING = sinc_min_roots().min_l1_01   # 1/(2(1+theta0)), window-[0,1] pure-L1
# error reported by q_min_01_bs, 1e-8/||f||_1^2 + 1e-10 with ||f||_1 = bs_l1():
# a fixed, conservative figure (the closed-form grid values are good to ~1e-15)
BS_ERROR_ESTIMATE = 4.9232232874369055e-09
_TINY = sys.float_info.min     # the least normal float


def gauss_ceiling(a: float) -> float:
    """g_2(a) = (8a / (27 pi))^(1/4)."""
    return (8.0 * a / (27.0 * math.pi)) ** 0.25


class ZeroFunctionError(ValueError):
    """The ratio is undefined for the zero function."""


class InvariantViolation(RuntimeError):
    """A computed value breached a proven bound beyond its error estimate."""


@dataclass(frozen=True, eq=False)
class RatioResult:
    """A functional evaluation with its ingredients.

    ``value`` = numerator / denominator, denominator being l1*l2 except for
    the min01 functional where it is l1^2.
    """

    functional: str
    method: str
    value: float
    numerator: float
    l1: float
    l2: float
    error_estimate: float
    fourier_numerator: Optional[float] = None

    @property
    def denominator(self) -> float:
        if self.functional == "min01":
            return self.l1 * self.l1
        return self.l1 * self.l2

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")
        if abs(self.value * self.denominator - self.numerator) > \
                1e-12 * max(abs(self.numerator), 1e-300):
            raise ValueError("value is not numerator/denominator")


def _ceiling_check(functional: str, value, ceiling: float, err) -> None:
    """Refuse a ratio, or the first ratio of a stack, that is not finite or breaches its ceiling."""
    bound = ceiling + err + 1e-9 * max(1.0, abs(ceiling))
    if isinstance(value, float):
        ok = math.isfinite(value) and value <= bound
    else:
        row_ok = np.isfinite(value) & (value <= bound)
        ok = bool(row_ok.all())
        if not ok:
            value = float(value[np.flatnonzero(~row_ok)[0]])
    if not ok:
        raise InvariantViolation(
            f"{functional} ratio {value!r} is not finite or exceeds the ceiling {ceiling!r}")


# ---------------------------------------------------------------------------
# array cores
#
# ``lattice_and_norms`` and ``at_width`` take cell values and widths that
# the caller has checked (finite, nonnegative samples, positive spacing: a
# GridFunction, the search's squared simplex parameters and checked cell
# width, or its scan profiles and golden-search widths).  Each core reads its
# tuple (c, h, l1, l2), returns the fields of a RatioResult after
# ``functional`` and ``method``, (value, numerator, l1, l2,
# error_estimate[, fourier_numerator]), and raises InvariantViolation on a
# ceiling breach or a ratio that is not finite.
# ---------------------------------------------------------------------------

LatticeAndNorms = tuple[np.ndarray, float, float, float]


@np.errstate(over="ignore", invalid="ignore")  # an FFT overflow is what the refusal reads
def lattice_and_norms(samples: np.ndarray, spacing: float) -> LatticeAndNorms:
    """(c, h, l1, l2) of the cell model: its unit-width lattice put
    :func:`at_width` ``spacing``, with that step's refusals."""
    return at_width(lattice_autocorrelation(samples), samples, spacing)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is what the refusal reads
def at_width(unit: np.ndarray, samples: np.ndarray, spacing) -> LatticeAndNorms:
    """(c, h, l1, l2) of the cells ``samples`` at width h = ``spacing``
    from their unit-width lattice ``unit``: c = unit h.

    ZeroFunctionError for all-zero cells.  ValueError when the float range
    cannot hold their scale: f*f(0) = ||f||_2^2 read off the lattice (inf or
    NaN after an overflow), l1 l2 or l1^2 is not finite or below the least
    normal float, with no numpy warning on the way.  A stack, one row per
    row of (rows, n) cells or per width of one profile, raises what its
    first refused row raises alone.
    """
    per_row = isinstance(spacing, np.ndarray)
    c = unit * (spacing[:, None] if per_row else spacing)
    l1, l2 = _l1_norm(samples, spacing), _l2_norm(samples, spacing)
    if c.ndim == 2:
        c0 = c[:, c.shape[1] // 2]
        bad = ~((_TINY <= c0) & (c0 < math.inf) & (_TINY <= l1 * l1) & (l1 * l1 < math.inf)
                & (_TINY <= l1 * l2) & (l1 * l2 < math.inf))
        if bad.any():
            r = int(np.argmax(bad))
            at_width(unit[r] if unit.ndim == 2 else unit,
                     samples[r] if samples.ndim == 2 else samples,
                     spacing[r] if per_row else spacing)
        return c, spacing, l1, l2
    c0, l1, l2 = float(c[c.size // 2]), float(l1), float(l2)
    if not (_TINY <= c0 < math.inf and _TINY <= l1 * l1 < math.inf
            and _TINY <= l1 * l2 < math.inf):
        if not samples.any():
            raise ZeroFunctionError("functional undefined for the zero function")
        raise ValueError(f"sample scale outside the float range: f*f(0) = {c0!r}, l1 = {l1!r}")
    return c, spacing, l1, l2


def _weighted_mean(lat: LatticeAndNorms, w: Weight, label: str, ceiling: float,
                   f: Optional[GridFunction] = None, tol: float = 0.0) -> tuple:
    """The time side; given f, then also its Fourier side to tol ||f||_1 ||f||_2."""
    c, h, l1, l2 = lat
    num = w.correlation_integral(c, h)  # first: it refuses a too coarse lattice at once
    err = 1e-13 * l1 * l1  # time side is exact up to rounding
    fourier_num = None
    if f is not None:
        fourier_num = mean_functional_fourier(f, w, tol=tol * (l1 * l2))
        err = max(err, abs(num - fourier_num))
    value = num / (l1 * l2)
    _ceiling_check(label, value, ceiling, err / (l1 * l2))
    return value, num, l1, l2, err, fourier_num


def mean_ratio(lat: LatticeAndNorms) -> tuple:
    """Array core of :func:`q_mean`, time side only."""
    return _weighted_mean(lat, IntervalWeight(), "mean", MEAN_CEILING)


def gauss_ratio(lat: LatticeAndNorms, a: float) -> tuple:
    """Array core of :func:`q_gauss`, time side only."""
    return _weighted_mean(lat, GaussianWeight(a), "gauss", gauss_ceiling(a))


def _window_min(lat: LatticeAndNorms, lo: float, hi: float, label: str, ceiling: float,
                square_denominator: bool) -> tuple:
    c, h, l1, l2 = lat
    num = lattice_min(c, h, lo, hi)
    denom = l1 * l1 if square_denominator else l1 * l2
    value = num / denom
    err = 1e-13  # lattice minimum of the cell model is exact
    _ceiling_check(label, value, ceiling, err)
    return value, num, l1, l2, err


def min12_ratio(lat: LatticeAndNorms) -> tuple:
    """Array core of :func:`q_min_12`."""
    return _window_min(lat, -0.5, 0.5, "min12", MIN12_CEILING, square_denominator=False)


def min01_ratio(lat: LatticeAndNorms) -> tuple:
    """Array core of :func:`q_min_01` on a grid function."""
    return _window_min(lat, 0.0, 1.0, "min01", MIN01_CEILING, square_denominator=True)


# ---------------------------------------------------------------------------
# the typed functionals
# ---------------------------------------------------------------------------


def _q_weighted(f: GridFunction, w: Weight, label: str, ceiling: float,
                tol: float) -> RatioResult:
    """q_mean or q_gauss: the core of its weight, with the Fourier side."""
    lat = lattice_and_norms(f.samples, f.spacing)
    return RatioResult(label, "both", *_weighted_mean(lat, w, label, ceiling, f, tol))


def q_mean(f: GridFunction, tol: float = 1e-6) -> RatioResult:
    """int_{-1/2}^{1/2} f*f / (||f||_1 ||f||_2); bounded by 0.8641."""
    return _q_weighted(f, IntervalWeight(), "mean", MEAN_CEILING, tol)


def q_gauss(f: GridFunction, a: float, tol: float = 1e-6) -> RatioResult:
    """sqrt(a/pi) iint f f e^(-a t^2) / (||f||_1 ||f||_2); bounded by g_2(a)."""
    return _q_weighted(f, GaussianWeight(a), "gauss", gauss_ceiling(a), tol)


def q_min_12(f: GridFunction) -> RatioResult:
    """min over [-1/2,1/2] of f*f over ||f||_1 ||f||_2; bounded by 0.829604."""
    return RatioResult("min12", "lattice-exact",
                       *min12_ratio(lattice_and_norms(f.samples, f.spacing)))


def q_min_01(f: GridFunction) -> RatioResult:
    """min over [0,1] of f*f over ||f||_1^2; bounded by 1/(2(1+theta0)).

    The singular BS example is not a grid function; :func:`q_min_01_bs`
    evaluates it.
    """
    return RatioResult("min01", "lattice-exact",
                       *min01_ratio(lattice_and_norms(f.samples, f.spacing)))


def q_min_01_bs() -> RatioResult:
    """min01 ratio of the singular BS example on a 129-point t-grid.

    One array call of the closed-form (Carlson R_F) correlation on 129
    equispaced points of [0, 1]; t = 0, where f*f is infinite, is dropped.
    The grid minimum is pi/4, attained at t = 1, giving 144/(121 pi) ~
    0.3788; grids of 257, 513 and 4097 points find the same node, so a finer
    grid would not change the value.  The minimum between nodes is still not
    bounded: ``BS_ERROR_ESTIMATE`` is a fixed figure, not an enclosure.  The
    norm ``bs_l1`` is a quadrature.
    """
    vals = autocorrelate_singular(BSExample(), np.linspace(0.0, 1.0, 129))
    minimum = float(vals[np.isfinite(vals)].min())
    l1 = bs_l1()
    value = minimum / (l1 * l1)
    _ceiling_check("min01", value, MIN01_CEILING, BS_ERROR_ESTIMATE)
    return RatioResult(functional="min01", method="singular-quadrature", value=value,
                       numerator=minimum, l1=l1, l2=math.inf,
                       error_estimate=BS_ERROR_ESTIMATE)
