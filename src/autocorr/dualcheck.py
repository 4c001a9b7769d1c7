"""Numerical verification of the dual bound and the proof residues.

The dual bound says every even probability bump supported in [-1, 1] has
positive Fourier mass ||(phihat)_+||_1 >= 1/(2(1+theta0)), refined by
+ theta0 phi(0)/(1+theta0).  The masses are integrated by ``funcspace._gauss_pieces``
over one cut list of the half xi-axis, the integers and the sign changes of phihat,
each bracket refined by Chandrupatla's interpolation and bisection hybrid:
rectangle rules smear sign boundaries and bias the positive mass upward.
Each bump's cutoff leaves a transform tail, and each report an error bound, below ``DUAL_TOL``.

Also here: the nonnegativity/spectral check for normalized measures (the
nu-hat inequality at the sinc minimizer) and the sup-norm residual of the
explicit non-solution candidate in the two-atom convolution equation.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import sinc_min_roots
from .correlate import measure_correlation
from .funcspace import MixedMeasure, _gauss_pieces
from .spectral import _phase_sum, fourier_measure

__all__ = [
    "StandardBump",
    "CosineBump",
    "BetaPowerBump",
    "BumpFunction",
    "BUMPS",
    "DUAL_TOL",
    "DualMassReport",
    "dual_mass_report",
    "NormalizationError",
    "NuSpectrumReport",
    "nu_spectrum_check",
    "case2bb_residual",
    "case2bb_scan",
]


# ---------------------------------------------------------------------------
# bump families: even, nonnegative, supported in [-1, 1], integral 1
# ---------------------------------------------------------------------------


DUAL_TOL = 1e-8     # the one tolerance of the dual masses (module docstring)

_TRAPEZOID_N = 1024


def _half_trapezoid() -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_j = j/N and weights w_j with sum_j w_j g(x_j) ~ int_{-1}^1 g, g even.

    The trapezoid rule on [0, 1], doubled.  When g and all its derivatives
    vanish at x = 1, as for the standard bump, its only error is aliasing: for
    g = phi cos(2 pi xi x) the sum of phihat(xi +- k N).  phihat decays like
    exp(-sqrt(2 pi xi)), so for xi <= 70 (the cutoff 64 plus the tail samples)
    that sum is below 1e-33.
    """
    x = np.arange(_TRAPEZOID_N + 1) / _TRAPEZOID_N
    w = np.full(x.size, 2.0 / _TRAPEZOID_N)
    w[[0, -1]] = 1.0 / _TRAPEZOID_N
    return x, w


def _bump(u) -> np.ndarray:
    """exp(-1/(1-u^2)) on |u| < 1 and 0 elsewhere: the standard bump, unnormalized."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


@functools.lru_cache(maxsize=1)
def _bump_normalizer() -> float:
    """Z = int exp(-1/(1-x^2)) over [-1, 1], the one normalizer of the bump."""
    x, w = _half_trapezoid()
    return float(w @ _bump(x))


@functools.lru_cache(maxsize=1)
def _bump_phase_weights() -> np.ndarray:
    """w_j phi(x_j) over the half trapezoid, the standard bump's phase-sum
    weights; cached, as every ``hat`` call would rebuild them."""
    x, w = _half_trapezoid()
    out = w * (_bump(x) / _bump_normalizer())
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class StandardBump:
    """exp(-1/(1-x^2)) on [-1,1], normalized; the integration cutoff is 64.

    Its transform decays faster than any power.  It is the spectrally accurate
    half trapezoid sum_j w_j phi(x_j) cos(2 pi xi x_j), whose nodes j/N are the
    progression of ``spectral._phase_sum`` shifted by 1/2:
    phihat(xi) = Re(exp(-i pi xi) _phase_sum(w phi, 1/N, xi))."""

    label = "standard-bump"

    def density(self, x) -> np.ndarray:
        out = _bump(x) / _bump_normalizer()
        return out if out.ndim else float(out)

    def hat(self, xi) -> np.ndarray:
        arr = np.ravel(np.asarray(xi, dtype=np.float64))
        sums = _phase_sum(_bump_phase_weights(), 1.0 / _TRAPEZOID_N, arr)
        out = (np.exp(-1j * np.pi * arr) * sums).real
        return out.reshape(np.shape(xi)) if np.ndim(xi) else float(out[0])

    def cutoff(self) -> float:
        return 64.0

    def tail_bound(self, hi: float) -> float:
        # super-polynomial decay; bound the tail by an envelope sample with
        # a generous packing factor (documented heuristic, checked at runtime)
        env = float(np.max(np.abs(self.hat(hi + np.arange(5.0)))))
        return 8.0 * env


@dataclass(frozen=True)
class CosineBump:
    """(1 + cos(pi x))/2 on [-1,1]; already a probability density (Hann)."""

    label = "cosine"

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.where(np.abs(x) <= 1.0, 0.5 * (1.0 + np.cos(np.pi * x)), 0.0)
        return out if out.ndim else float(out)

    def hat(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=np.float64)
        out = np.empty(xi.shape)
        far = np.abs(xi) >= 2.0
        # sin(2 pi xi) / (2 pi xi (1 - 4 xi^2)); the three sincs below cancel
        # to a value 1e-8 of their size near xi = 3000, keeping only 8 digits
        x = xi[far]
        out[far] = np.sin(2.0 * np.pi * x) / (2.0 * np.pi * x * (1.0 - 4.0 * x * x))
        # three-sinc form of the Hann window transform; the closed form is
        # 0/0 at xi = +-1/2 and loses accuracy near there
        x = xi[~far]
        out[~far] = np.sinc(2 * x) + 0.5 * (np.sinc(2 * x - 1) + np.sinc(2 * x + 1))
        return out if out.ndim else float(out)

    def cutoff(self) -> float:
        # |phihat| <= 1/(6 pi xi^3) for xi >= 1 => two-sided tail <= 1/(6 pi Xi^2)
        return max(64.0, math.sqrt(2.0 / (6.0 * math.pi * DUAL_TOL)))

    def tail_bound(self, hi: float) -> float:
        return 1.0 / (6.0 * math.pi * hi * hi)


@functools.lru_cache(maxsize=16)
def _beta_power_series(k: int) -> tuple[float, ...]:
    """a_m = (2k+1)!! / (2^m m! (2k+2m+1)!!), the power series of (2k+1)!! j_k(z)/z^k in -z^2.

    Enough terms that a_m z^2m < 2^-60 on z < k + 2, the crossover of
    ``BetaPowerBump.hat``.
    """
    coeffs, term, m = [1.0], 1.0, 0     # term = a_m (k+2)^2m
    while term >= 2.0 ** -60:
        m += 1
        coeffs.append(coeffs[-1] / (2 * m * (2 * k + 2 * m + 1)))
        term *= (k + 2) ** 2 / (2 * m * (2 * k + 2 * m + 1))
    return tuple(coeffs)


@dataclass(frozen=True)
class BetaPowerBump:
    """c_k (1-x^2)^k on [-1,1] for an integer k >= 2; transform via the
    spherical Bessel function j_k."""

    k: int = 2
    label = "beta-power"

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"BetaPower needs an integer k, got {self.k!r}")
        if self.k < 2:
            raise ValueError(f"BetaPower needs k >= 2, got {self.k}")

    @property
    def _norm(self) -> float:
        # 1 / int (1-x^2)^k = Gamma(k+3/2) / (sqrt(pi) k!) = (2k+1)!! / (2^(k+1) k!)
        k = self.k
        return math.prod(range(1, 2 * k + 2, 2)) / (2 ** (k + 1) * math.factorial(k))

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.where(np.abs(x) <= 1.0, self._norm * (1.0 - x * x) ** self.k, 0.0)
        return out if out.ndim else float(out)

    def hat(self, xi) -> np.ndarray:
        # c k! 2^(k+1) j_k(z) / z^k with z = 2 pi |xi|, and c k! 2^(k+1) = (2k+1)!!.
        # g_n = (2n+1)!! j_n(z) / z^n obeys g_(n+1) = (2n+1)(2n+3)(g_n - g_(n-1))/z^2
        # from g_0 = sin z / z, g_1 = 3 (g_0 - cos z)/z^2: stable upward for
        # z > k.  Below the crossover z = k + 2 the power series in -z^2 is
        # used instead (both err by at most about 2e-16 there, for k <= 8).
        arr = np.atleast_1d(np.asarray(xi, dtype=np.float64))
        z = 2.0 * math.pi * np.abs(arr)
        out = np.empty_like(arr)
        k = self.k
        small = z < k + 2.0
        if np.any(~small):
            zz = z[~small]
            z2 = zz * zz
            g0 = np.sin(zz) / zz
            g1 = 3.0 * (g0 - np.cos(zz)) / z2
            for n in range(1, k):
                g0, g1 = g1, (2 * n + 1) * (2 * n + 3) * (g1 - g0) / z2
            out[~small] = g1
        if np.any(small):
            w = -z[small] ** 2
            acc = np.zeros_like(w)
            for c in reversed(_beta_power_series(k)):
                acc = acc * w + c
            out[small] = acc
        return out if np.ndim(xi) else float(out[0])

    def cutoff(self) -> float:
        c = self._tail_const()
        return max(64.0, (2.0 * c / (self.k * DUAL_TOL)) ** (1.0 / self.k))

    def _tail_const(self) -> float:
        # |J_nu(z)| <= sqrt(2/(pi z)) => |phihat(xi)| <= C xi^-(k+1)
        return self._norm * math.factorial(self.k) / math.pi ** (self.k + 1)

    def tail_bound(self, hi: float) -> float:
        return 2.0 * self._tail_const() / (self.k * hi ** self.k)


BumpFunction = Union[StandardBump, CosineBump, BetaPowerBump]

#: The three bumps whose dual masses ``autocorr dual`` and criterion 7 report.
BUMPS = (StandardBump(), CosineBump(), BetaPowerBump(2))


# ---------------------------------------------------------------------------
# signed Fourier masses
# ---------------------------------------------------------------------------


_BRACKET_XTOL = 1e-13
_BRACKET_RTOL = 4.0 * np.finfo(np.float64).eps


def _chandrupatla_roots(f, a: np.ndarray, b: np.ndarray, fa: np.ndarray,
                        fb: np.ndarray) -> np.ndarray:
    """Roots of f in the sign-change brackets [a, b] (fa = f(a), fb = f(b)), all at once.

    Chandrupatla's method (1997): each step tries inverse quadratic
    interpolation through the bracket ends and the point it last dropped, and
    bisects where that parabola is not monotone on the bracket.  The first
    step is the secant through the two given ends, so no extra evaluation is
    made.  Every later trial point keeps at least half the stop width from
    both ends, so a bracket whose newest end lies that close to the root is
    cut past it on the next step.  A bracket stops when its width is
    <= xtol + 4 eps |end|: near xi = 3000 one ulp is 4.5e-13, so a bare 1e-13
    would never be met.  A zero sample collapses its bracket, and the root is
    the midpoint of the last bracket.
    """
    a, b, fa, fb = (np.array(v, dtype=np.float64) for v in (a, b, fa, fb))
    roots, live = np.empty(a.size), np.arange(a.size)
    t = fa / (fa - fb)
    while live.size:
        xt = a + t * (b - a)
        ft = np.asarray(f(xt), dtype=np.float64)
        keep_b = np.sign(ft) == np.sign(fa)     # the root lies between xt and b
        c, fc = np.where(keep_b, a, b), np.where(keep_b, fa, fb)
        b, fb = np.where(keep_b, b, np.where(ft == 0.0, xt, a)), np.where(keep_b, fb, fa)
        a, fa = xt, ft
        width = np.abs(b - a)
        stop = _BRACKET_XTOL + _BRACKET_RTOL * np.maximum(np.abs(a), np.abs(b))
        done = width <= stop
        roots[live[done]] = 0.5 * (a[done] + b[done])
        going = ~done
        a, b, c, fa, fb, fc, width, stop, live = (
            v[going] for v in (a, b, c, fa, fb, fc, width, stop, live))
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            iqi = (fa / (fb - fa) * fc / (fb - fc)
                   + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        smooth = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        margin = 0.5 * stop / width
        t = np.clip(np.where(smooth, iqi, 0.5), margin, 1.0 - margin)
    return roots


def _signed_masses(phi: BumpFunction) -> tuple[float, float, float]:
    """(positive mass, absolute mass, error bound) of phihat over the line.

    The transform is sampled 16 times per unit and every sign change is
    refined from both sampled ends by ``_chandrupatla_roots``, all brackets in
    one batch.  The half line is cut once, at the roots and at the integers,
    so every piece is sign-pure and at most 1 + 1e-9 long, and each piece
    gets the 24-point Gauss-Legendre rule.  An inner integer within 1e-9 of a
    root is left out: the root already cuts there, and the piece between them
    would be near-empty (the cosine bump's transform vanishes at the
    integers).  Evenness doubles the half-line result.
    """
    n_int = math.ceil(phi.cutoff())
    # offset grid: never samples exactly on the (rational) transform zeros,
    # where cancellation noise has arbitrary sign and breaks crossing detection
    xs = (np.arange(n_int * 16) + 0.2137) / 16
    ys = np.asarray(phi.hat(xs), dtype=np.float64)
    cross = np.flatnonzero(ys[:-1] * ys[1:] < 0.0)
    roots = _chandrupatla_roots(phi.hat, xs[cross], xs[cross + 1], ys[cross], ys[cross + 1])
    # the roots lie strictly between the first and last samples, so no end is dropped
    snapped = np.round(roots)
    ints = np.ones(n_int + 1, dtype=bool)
    ints[snapped[np.abs(roots - snapped) <= 1e-9].astype(np.int64)] = False
    # each root lies inside its own sample interval and no kept integer is a
    # root, so the sorted cuts are their union; np.union1d would import
    # numpy.ma (about 9 ms) in a fresh process
    cuts = np.sort(np.concatenate((roots, np.arange(n_int + 1.0)[ints])))
    pieces = _gauss_pieces(phi.hat, cuts, 24)
    pos = float(np.sum(np.maximum(pieces, 0.0)))
    absm = float(np.sum(np.abs(pieces)))
    return 2.0 * pos, 2.0 * absm, phi.tail_bound(float(n_int)) + 1e-12 * max(absm, 1.0)


@dataclass(frozen=True)
class DualMassReport:
    bump: str
    positive_mass: float
    negative_mass: float
    abs_mass: float
    value0: float            # phi(0)
    lower_bound: float       # 1/(2(1+theta0))
    refined_bound: float     # lower_bound + theta0 phi(0)/(1+theta0)
    error_bound: float
    identity_gap: float      # |1 - 2 phi(0) - int_{-1}^{1} (phi - phi(0))|
    inequality_slack: float  # 2 (1 + theta0) ||(phihat)_-||_1 - (1 - 2 phi(0))

    @property
    def margin(self) -> float:
        return self.positive_mass - self.lower_bound

    @property
    def refined_margin(self) -> float:
        return self.positive_mass - self.refined_bound

    @property
    def sum_diff_gap(self) -> float:
        """|phi(0) - (pos - neg)|, the inversion identity residue."""
        return abs(self.value0 - (self.positive_mass - self.negative_mass))


def dual_mass_report(phi: BumpFunction) -> DualMassReport:
    """phi's signed Fourier masses against the dual bound, and ``negative_part_bound_check``."""
    pos, absm, err = _signed_masses(phi)
    roots = sinc_min_roots()
    phi0 = float(phi.density(0.0))
    refined = roots.min_l1_01 + roots.theta0 / (1.0 + roots.theta0) * phi0
    gap, slack = negative_part_bound_check(phi, absm - pos, phi0)
    return DualMassReport(bump=phi.label, positive_mass=pos,
                          negative_mass=absm - pos, abs_mass=absm, value0=phi0,
                          lower_bound=roots.min_l1_01, refined_bound=refined, error_bound=err,
                          identity_gap=gap, inequality_slack=slack)


def negative_part_bound_check(phi: BumpFunction, negative_mass: float,
                              phi0: float) -> tuple[float, float]:
    """(gap, slack) of 1 - 2 phi(0) = int_{-1}^1 (phi - phi(0)) <= 2(1+theta0) ||(phihat)_-||_1,
    given the negative mass ||(phihat)_-||_1 and phi0 = phi(0)."""
    lhs = 1.0 - 2.0 * phi0
    x, w = _half_trapezoid()
    body = float(w @ (phi.density(x) - phi0))
    return abs(lhs - body), 2.0 * (1.0 + sinc_min_roots().theta0) * negative_mass - lhs


# ---------------------------------------------------------------------------
# nu spectrum check
# ---------------------------------------------------------------------------


class NormalizationError(RuntimeError):
    """The window-ratio normalization precondition failed."""

    def __init__(self, message: str, interval: tuple[float, float]):
        super().__init__(message)
        self.interval = interval


@dataclass(frozen=True)
class NuSpectrumReport:
    window_inf: float
    nu_min: float            # worst nu(I) over the dyadic interval lattice
    nu_hat_xi0: float
    nu_hat_0: float
    theta0: float
    tv: float

    @property
    def spectral_margin(self) -> float:
        return self.nu_hat_xi0 - self.theta0

    @property
    def strictness_gap(self) -> float:
        return self.nu_hat_0 - self.nu_hat_xi0


def nu_spectrum_check(mu: MixedMeasure) -> NuSpectrumReport:
    """Check nu = mu*mu - (1/2) Lebesgue|[-1,1] >= 0 and nuhat(xi0) >= theta0.

    Precondition (checked): the infimum of the window ratios
    mu*mu([t-eps, t])/eps over the 1025-point [0,1] window lattice equals 1/2
    within 1e-6.  nu >= 0 is verified on closed dyadic intervals down to
    width 2^-10, and the transform values come from
    nuhat(xi) = |muhat(xi)|^2 - sinc(2 xi); each check allows 1e-6.
    """
    tol = 1e-6
    mc = measure_correlation(mu)
    ts = np.linspace(0.0, 1.0, 1025)
    eps = ts[1] - ts[0]
    ratios = np.asarray(mc.interval_mass(ts[:-1], ts[1:])) / eps
    inf_ratio = float(ratios.min())
    if abs(inf_ratio - 0.5) > tol:
        i = int(np.argmin(ratios))
        raise NormalizationError(
            f"window-ratio infimum is {inf_ratio!r}, expected 1/2 within {tol:g}",
            (float(ts[i]), float(ts[i + 1])))

    # the 2^(j+1) intervals of width 2^-j tiling [-1, 1], for j = 0..10, in one call
    widths = 2.0 ** -np.arange(11.0)
    edges = [np.arange(-1.0, 1.0 + w / 2, w) for w in widths]
    los, his = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
    half_lengths = np.repeat(0.5 * widths, [e.size - 1 for e in edges])
    nu_min = float((np.asarray(mc.interval_mass(los, his)) - half_lengths).min())

    roots = sinc_min_roots()
    xi0 = roots.xi0
    mu_hat_xi0, mu_hat_0 = fourier_measure(mu, np.array([xi0, 0.0]))
    nu_hat_xi0 = float(abs(mu_hat_xi0) ** 2 - np.sinc(2 * xi0))
    nu_hat_0 = float(abs(mu_hat_0) ** 2 - 1.0)
    report = NuSpectrumReport(window_inf=inf_ratio, nu_min=nu_min,
                              nu_hat_xi0=nu_hat_xi0, nu_hat_0=nu_hat_0,
                              theta0=roots.theta0, tv=mu.total_variation)
    if nu_min < -tol:
        raise NormalizationError(
            f"nu is negative ({nu_min!r}) on a dyadic interval", (-1.0, 1.0))
    if report.spectral_margin < -tol:
        raise RuntimeError(f"nuhat(xi0) = {nu_hat_xi0!r} fell below theta0")
    if nu_hat_xi0 > nu_hat_0 + tol:
        raise RuntimeError("nuhat(xi0) exceeded nuhat(0)")
    return report


# ---------------------------------------------------------------------------
# Case 2bb residual
# ---------------------------------------------------------------------------


def _case2bb_residuals(grid) -> np.ndarray:
    """``case2bb_residual`` at each a of grid.  The lattice, the left side, the
    atom supports and the triangle do not depend on a and are built once."""
    alpha0 = sinc_min_roots().alpha0
    w = 1.0 - alpha0
    t = np.linspace(-1.2, 1.2, 4001)
    lhs = np.where(np.abs(t) <= 1.0, 0.5, 0.0)
    # how many of the shifted supports |t -+ alpha0| <= w hold t: 2a f0 takes
    # one value v on each, and v + v = 2 v exactly
    atoms = (np.abs(t - alpha0) <= w).astype(np.float64) + (np.abs(t + alpha0) <= w)
    triangle = np.maximum(0.0, 2.0 * w - np.abs(t))
    out = np.empty(len(grid))
    for i, a in enumerate(grid):
        rhs = 2.0 * a * (1.0 / (4.0 * a)) * atoms + triangle / (16.0 * a * a)
        out[i] = np.max(np.abs(lhs - rhs))
    return out


def case2bb_residual(a: float) -> float:
    """Sup-norm residual of the two-atom candidate equation at b = a.

    Candidate: f0 = (1/(4a)) 1_[-1+alpha0, 1-alpha0], alpha0 = 1/(2 xi0).
    Residual(t) = | (1/2) 1_[-1,1](t) - 2a f0(t-alpha0) - 2a f0(t+alpha0)
                    - (f0*f0)(t) | over a uniform 4001-point lattice on
    [-1.2, 1.2] chosen to avoid landing exactly on the jump points.
    """
    if not a > 0:
        raise ValueError(f"need a > 0, got {a}")
    return float(_case2bb_residuals([float(a)])[0])


def case2bb_scan() -> tuple[np.ndarray, np.ndarray]:
    """Residuals over 81 log-spaced a in [0.01, 100]; the infimum stays well above 0.01."""
    grid = np.geomspace(0.01, 100.0, 81)
    return grid, _case2bb_residuals(grid)
