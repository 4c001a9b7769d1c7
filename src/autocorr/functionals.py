"""The inequality ratios: weighted means and window minima of f*f.

Each functional divides by ||f||_1 ||f||_2 (mean, gauss, min12) or ||f||_1^2
(min01).  Weighted means carry both a time-side evaluation (exact on the cell
model) and a Fourier-side one; the ratio always uses the time side.  Window
minima are exact because the cell-model correlation is piecewise linear.

Every result is checked against its proven theorem ceiling; a breach raises
:class:`InvariantViolation` since it can only come from a numerics bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .constants import sinc_min_roots
from .correlate import autocorrelate, autocorrelate_singular
from .funcspace import BSExample, GridFunction, bs_l1
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
    "mean_ceiling",
    "gauss_ceiling",
    "min12_ceiling",
    "min01_ceiling",
]

MEAN_CEILING = 0.8641          # Theorem-1 consequence, printed rounding
MIN12_CEILING = 0.829604       # interpolated mixed-norm constant
# error reported by q_min_01_bs, 1e-8/||f||_1^2 + 1e-10 with ||f||_1 = bs_l1():
# a fixed, conservative figure (the closed-form grid values are good to ~1e-15)
BS_ERROR_ESTIMATE = 4.9232232874369055e-09


def mean_ceiling() -> float:
    return MEAN_CEILING


def gauss_ceiling(a: float) -> float:
    """g_2(a) = (8a / (27 pi))^(1/4)."""
    return (8.0 * a / (27.0 * math.pi)) ** 0.25


def min12_ceiling() -> float:
    return MIN12_CEILING


def min01_ceiling() -> float:
    """1/(2(1+theta0)), the window-[0,1] pure-L1 constant."""
    return 1.0 / (2.0 * (1.0 + sinc_min_roots().theta0))


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


def _norms_or_raise(f: GridFunction) -> tuple[float, float]:
    l1, l2 = f.l1_norm, f.l2_norm
    if l1 == 0.0 or l2 == 0.0:
        raise ZeroFunctionError("functional undefined for the zero function")
    return l1, l2


def _ceiling_check(functional: str, value: float, ceiling: float, err: float) -> None:
    if value > ceiling + err + 1e-9 * max(1.0, abs(ceiling)):
        raise InvariantViolation(
            f"{functional} ratio {value!r} exceeds the proven ceiling {ceiling!r}")


def _weighted_mean(f: GridFunction, w: Weight, label: str, ceiling: float,
                   method: str, tol: float) -> RatioResult:
    if method not in ("both", "time"):
        raise ValueError(f"method must be 'both' or 'time', got {method!r}")
    l1, l2 = _norms_or_raise(f)
    num = w.correlation_integral(autocorrelate(f))
    err = 1e-13 * l1 * l1  # time side is exact up to rounding
    fourier_num = None
    if method == "both":
        fres = mean_functional_fourier(f, w, tol=tol * l1 * l2)
        fourier_num = fres.value
        err = max(err, abs(num - fres.value))
    value = num / (l1 * l2)
    _ceiling_check(label, value, ceiling, err / (l1 * l2))
    return RatioResult(functional=label, method=method, value=value, numerator=num,
                       l1=l1, l2=l2, error_estimate=err, fourier_numerator=fourier_num)


def q_mean(f: GridFunction, method: str = "both", tol: float = 1e-6) -> RatioResult:
    """int_{-1/2}^{1/2} f*f / (||f||_1 ||f||_2); bounded by 0.8641."""
    return _weighted_mean(f, IntervalWeight(), "mean", MEAN_CEILING, method, tol)


def q_gauss(f: GridFunction, a: float, method: str = "both",
            tol: float = 1e-6) -> RatioResult:
    """sqrt(a/pi) iint f f e^(-a t^2) / (||f||_1 ||f||_2); bounded by g_2(a)."""
    return _weighted_mean(f, GaussianWeight(a), "gauss", gauss_ceiling(a), method, tol)


def _window_min(f: GridFunction, lo: float, hi: float, label: str,
                ceiling: float, square_denominator: bool) -> RatioResult:
    l1, l2 = _norms_or_raise(f)
    corr = autocorrelate(f)
    num = corr.min_on(lo, hi)
    denom = l1 * l1 if square_denominator else l1 * l2
    value = num / denom
    err = 1e-13  # lattice minimum of the cell model is exact
    _ceiling_check(label, value, ceiling, err)
    return RatioResult(functional=label, method="lattice-exact", value=value,
                       numerator=num, l1=l1, l2=l2, error_estimate=err)


def q_min_12(f: GridFunction) -> RatioResult:
    """min over [-1/2,1/2] of f*f over ||f||_1 ||f||_2; bounded by 0.829604."""
    return _window_min(f, -0.5, 0.5, "min12", MIN12_CEILING, square_denominator=False)


def q_min_01(f: Union[GridFunction, BSExample]) -> RatioResult:
    """min over [0,1] of f*f over ||f||_1^2; bounded by 1/(2(1+theta0))."""
    if isinstance(f, BSExample):
        return q_min_01_bs()
    return _window_min(f, 0.0, 1.0, "min01", min01_ceiling(), square_denominator=True)


def q_min_01_bs() -> RatioResult:
    """min01 ratio of the singular BS example on a refining t-grid.

    Each grid level is one array call of the closed-form (Carlson R_F)
    correlation; the 129-point grid doubles, at most twice, until the
    minimum stabilizes to 1e-6.  The norm
    ``bs_l1`` is a quadrature.  The limiting minimum over [0, 1] is pi/4
    (attained at t = 1), giving 144/(121 pi) ~ 0.3788.
    """
    bs = BSExample()
    n = 129
    prev = None
    minimum = math.inf
    for _ in range(3):
        vals = autocorrelate_singular(bs, np.linspace(0.0, 1.0, n))
        minimum = float(vals[np.isfinite(vals)].min())
        if prev is not None and abs(minimum - prev) < 1e-6:
            break
        prev = minimum
        n = 2 * n - 1
    l1 = bs_l1()
    value = minimum / (l1 * l1)
    _ceiling_check("min01", value, min01_ceiling(), BS_ERROR_ESTIMATE)
    return RatioResult(functional="min01", method="singular-quadrature", value=value,
                       numerator=minimum, l1=l1, l2=math.inf,
                       error_estimate=BS_ERROR_ESTIMATE)
