"""Explicit constants of the autocorrelation inequalities.

Upper-bound pipeline:  C_p(w) = (K_p * I_w(p)^(1/p))^(p/(2(p-1))), where K_p
is the sharp Hausdorff-Young / interpolation coefficient and I_w(p) the
sinc- or Gaussian-power moment.  The mean bound is inf over p >= 2 of C_p.
Lower bounds come from closed-form evaluations on explicit families, and the
root block solves tan(y) = y for the sinc minimum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import MOMENT_TOL, GaussianWeight, IntervalWeight, Weight, weight_lp_moment

__all__ = [
    "BoundReport",
    "SincRoots",
    "hy_coefficient",
    "mean_upper_constant",
    "mean_upper_sweep",
    "minimize_over_p",
    "sinc_min_roots",
    "min_l1_constant",
    "min_mixed_constant",
    "indicator_min_lower",
    "gaussian_mean_lower",
    "gaussian_closed_form",
]

_KINDS = ("upper-bound", "lower-bound")


@dataclass(frozen=True)
class BoundReport:
    """A computed constant together with the ingredients that produced it."""

    name: str
    value: float
    kind: str
    ingredients: dict[str, float] = field(default_factory=dict)
    tolerance: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not (np.isfinite(self.value) and self.value > 0):
            raise ValueError(f"report value must be finite and positive, got {self.value}")
        for k, v in self.ingredients.items():
            if not np.isfinite(v):
                raise ValueError(f"ingredient {k!r} is not finite: {v}")


def hy_coefficient(p: float) -> float:
    """K_p = (2p)^(1/p) (p-1)^((p-1)/(2p)) (p+1)^(-(p+1)/(2p)), p > 1."""
    if not p > 1:
        raise ValueError(f"need p > 1, got {p}")
    return (2 * p) ** (1 / p) * (p - 1) ** ((p - 1) / (2 * p)) / (p + 1) ** ((p + 1) / (2 * p))


def gaussian_closed_form(p: float, a: float) -> float:
    """Closed form of the Gaussian-weight constant g_p.

    (4 a p (p-1)^(p-1) / (pi (p+1)^(p+1)))^(1/(4(p-1))), the reading of the
    printed display that reproduces (8a/(27 pi))^(1/4) at p = 2.  It is
    evaluated in logs: the powers themselves overflow from p = 143.
    """
    log_num = math.log(4.0 * a * p) + (p - 1.0) * math.log(p - 1.0)
    log_den = math.log(math.pi) + (p + 1.0) * math.log(p + 1.0)
    return math.exp((log_num - log_den) / (4.0 * (p - 1.0)))


def _hy_product(w: Weight, p: float) -> tuple[float, dict[str, float]]:
    """K_p I_w(p)^(1/p), and its ingredients p, K_p, I_w(p) and I_w(p)'s error bound."""
    K_p = hy_coefficient(p)
    moment = weight_lp_moment(w, p)
    ingredients = {"p": float(p), "K_p": K_p, "I_w_p": moment.value,
                   "I_w_p_error": moment.error_bound}
    return K_p * moment.value ** (1 / p), ingredients


def _pipeline_constant(w: Weight, p: float) -> tuple[float, dict[str, float]]:
    product, ingredients = _hy_product(w, p)
    return product ** (p / (2 * (p - 1))), ingredients


def mean_upper_constant(w: Weight, p: float) -> BoundReport:
    """C_p(w) = (K_p I_w(p)^(1/p))^(p/(2(p-1))) for p >= 2, moments at ``MOMENT_TOL``."""
    if not p >= 2:
        raise ValueError(f"the mean bound needs p >= 2, got {p}")
    value, ingredients = _pipeline_constant(w, p)
    if isinstance(w, GaussianWeight):
        ingredients["closed_form_paper_consistent"] = gaussian_closed_form(p, w.a)
    return BoundReport(name=f"mean-upper[{w.label}]", value=value, kind="upper-bound",
                       ingredients=ingredients, tolerance=MOMENT_TOL)


def _golden_min(fn, grid, i: int, tol: float) -> float:
    """Golden-section min of fn between the neighbours of grid[i]; grid[i] if it has none."""
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])
    if a == b:
        return float(grid[i])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def mean_upper_sweep(w: Weight, p_range: tuple[float, float]) -> list[BoundReport]:
    """C_p(w) at each p of the scan of ``p_range``: both ends, spacing at most 1/4."""
    lo, hi = float(p_range[0]), float(p_range[1])
    if lo < 2.0 or hi < lo or not np.isfinite(hi):
        raise ValueError(f"p range must satisfy 2 <= lo <= hi < inf, got {p_range}")
    grid = np.linspace(lo, hi, math.ceil((hi - lo) / 0.25) + 1)
    return [mean_upper_constant(w, float(p)) for p in grid]


def minimize_over_p(w: Weight, p_range: tuple[float, float] = (2.0, 12.0)) -> BoundReport:
    """inf over p in ``p_range`` of C_p(w): the sweep's best p, then golden section to 1e-6."""
    tol = 1e-6
    sweep = mean_upper_sweep(w, p_range)
    grid = [rep.ingredients["p"] for rep in sweep]
    i = int(np.argmin([rep.value for rep in sweep]))
    p_star = _golden_min(lambda p: _pipeline_constant(w, p)[0], grid, i, tol)
    value, ingredients = _pipeline_constant(w, p_star)
    ingredients["p_star"] = p_star
    ingredients["grid_best_p"] = grid[i]
    ingredients["grid_best_value"] = sweep[i].value
    return BoundReport(name=f"mean-upper-inf[{w.label}]", value=value,
                       kind="upper-bound", ingredients=ingredients, tolerance=tol)


@dataclass(frozen=True)
class SincRoots:
    """y0 = tan(y0) root block: the sinc minimum and its derived constants."""

    y0: float
    theta0: float
    xi0: float
    alpha0: float

    @property
    def residual_y0(self) -> float:
        return abs(self.y0 * math.cos(self.y0) - math.sin(self.y0))

    @property
    def residual_sinc_min(self) -> float:
        # xi0 is where sin(2 pi xi)/(2 pi xi) attains its global minimum -theta0
        z = 2 * math.pi * self.xi0
        return abs(math.sin(z) / z + self.theta0)

    @property
    def min_l1_half(self) -> float:     # the window-[-1/2,1/2] pure-L1 constant
        return 1.0 / (1.0 + self.theta0)

    @property
    def min_l1_01(self) -> float:       # the window-[0,1] pure-L1 constant
        return 1.0 / (2.0 * (1.0 + self.theta0))


@functools.lru_cache(maxsize=1)
def sinc_min_roots() -> SincRoots:
    """Solve y cos y = sin y on (pi, 3pi/2); derive theta0, xi0, alpha0.

    This form avoids the tangent singularity of tan(y) = y.  Newton's method
    from 4.5 reaches the root to the last bit in three of its six steps.
    """
    y0 = 4.5
    for _ in range(6):
        y0 += (y0 * math.cos(y0) - math.sin(y0)) / (y0 * math.sin(y0))
    theta0 = -math.sin(y0) / y0
    xi0 = y0 / (2 * math.pi)
    alpha0 = 1.0 / (2 * xi0)
    return SincRoots(y0=y0, theta0=theta0, xi0=xi0, alpha0=alpha0)


def min_l1_constant() -> tuple[BoundReport, BoundReport]:
    """The two pure-L1 minimum constants.

    Window [-1/2, 1/2]:  min f*f <= (1/(1+theta0)) ||f||_1^2  (~0.821534).
    Window [0, 1]:       min f*f <= (1/(2(1+theta0))) ||f||_1^2 (~0.410767).
    """
    roots = sinc_min_roots()
    ing = {"theta0": roots.theta0, "y0": roots.y0}
    return (BoundReport(name="min-l1[-1/2,1/2]", value=roots.min_l1_half, kind="upper-bound",
                        ingredients=dict(ing)),
            BoundReport(name="min-l1[0,1]", value=roots.min_l1_01, kind="upper-bound",
                        ingredients=dict(ing)))


def min_mixed_constant() -> BoundReport:
    """Interpolated mixed-norm minimum constant (~0.829604).

    C_pi = K_pi I(pi)^(1/pi) is the bare mixed-norm coefficient (exponent
    split 2/pi on L1, 2 - 2/pi on L2, no further interpolation); combining it
    with the pure-L1 window bound L = 1/(1+theta0) gives
    M = (L^(pi/2-1) C_pi^(pi/2))^(1/(pi-1)).
    """
    p = math.pi
    c_pi, ingredients = _hy_product(IntervalWeight(), p)
    L = sinc_min_roots().min_l1_half
    alpha = (p / 2.0 - 1.0) / (p - 1.0)
    value = (L ** (p / 2.0 - 1.0) * c_pi ** (p / 2.0)) ** (1.0 / (p - 1.0))
    ingredients.update(C_pi=c_pi, stefan=L, alpha=alpha)
    return BoundReport(name="min-mixed[-1/2,1/2]", value=value, kind="upper-bound",
                       ingredients=ingredients, tolerance=MOMENT_TOL)


def indicator_min_lower() -> BoundReport:
    """sup over A >= 1/4 of (2A - 1/2) / (2A sqrt(2A)) = (2/3)^(3/2) at A = 3/4.

    With u = 2A the objective (u - 1/2) u^(-3/2) is stationary at u = 3/2.
    """
    value = (2.0 / 3.0) ** 1.5
    return BoundReport(name="min-indicator-lower", value=value, kind="lower-bound",
                       ingredients={"A_star": 0.75, "u_star": 1.5})


def gaussian_mean_lower(a: float) -> BoundReport:
    """Best pure-Gaussian lower bound a^(1/4)/(pi^(1/4) sqrt(2)) at b = 2a.

    The closed-form ratio R(b) = 2^(1/4) / (b^(1/4) pi^(1/4) (2/b + 1/a)^(1/2))
    is scanned at 801 points over b in [0.1a, 10a] to confirm the maximizer.
    """
    if not a > 0:
        raise ValueError(f"need a > 0, got {a}")
    value = a ** 0.25 / (math.pi ** 0.25 * math.sqrt(2.0))

    def ratio(b):
        return 2.0 ** 0.25 / (b ** 0.25 * math.pi ** 0.25 * np.sqrt(2.0 / b + 1.0 / a))

    bs = np.geomspace(0.1 * a, 10.0 * a, 801)
    scan_b = _golden_min(lambda b: -ratio(b), bs, int(np.argmax(ratio(bs))), 1e-10 * a)
    scan_v = ratio(scan_b)
    if abs(scan_v - value) > 1e-6 * value:
        raise RuntimeError(
            f"Gaussian scan maximum {scan_v!r} disagrees with the closed form {value!r}")
    return BoundReport(name="gaussian-mean-lower", value=value, kind="lower-bound",
                       ingredients={"a": float(a), "b_star": 2.0 * a,
                                    "scan_best_b": scan_b, "scan_best_value": scan_v})
