"""Fourier transforms, weight transforms, and sinc-power moments.

Transform convention: fhat(xi) = int f(y) exp(-2 pi i xi y) dy.

``fourier_measure`` transforms an atoms-plus-density measure; its density
part is the exact transform of the grid function's step model, the midpoint
sum times h sinc(h xi) (so |fhat| <= ||f||_1 and fhat(0) = ||f||_1 hold
exactly).  The midpoint sum goes through ``_phase_sum``, as does the standard
bump's transform in ``dualcheck``: it evaluates sum_m w_m exp(-2 pi i xi y_m)
on the centred node progression y_m = (m - (n-1)/2) h at arbitrary xi, from
a coarse and a fine table of about sqrt(n) phases per xi, each the outer
product of two shorter tables, block by block, with no (xi, n) array.

The Fourier-side weighted mean ``mean_functional_fourier`` integrates
|fhat|^2 what with fhat the exact transform of the cell model (midpoint sum
times h sinc(h xi)).  That integrand is the transform of (f*f)*w, which
vanishes outside [-(width + R), width + R] for the weight's ``reach`` R (the
Gaussian's up to a tail below e^-46 max w).  So by Poisson summation its
trapezoid sum at any step delta with 1/delta > width + R is exact, and at
delta = 1/(M h) the midpoint sums there are one length-M DFT of the cell
values.  Only the truncation at the weight's ``cutoff`` remains, bounded by
its ``tail_bound``.  The value is a cross-check of Plancherel: its accuracy is
measured by its disagreement with the exact time side (the functionals'
error estimate), not by a figure of its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .correlate import lattice_window_integral
from .funcspace import _MAX_DFT, GridFunction, MixedMeasure, _gauss_pieces, _leggauss, _readonly

__all__ = [
    "IntervalWeight",
    "GaussianWeight",
    "Weight",
    "fourier_measure",
    "MomentResult",
    "weight_lp_moment",
    "mean_functional_fourier",
    "INTERVAL_MOMENT_P_MAX",
    "MOMENT_TOL",
]

_PHASE_BLOCK = 512      # xi per block of _phase_sum: 1.2 MB of tables at n = 1025
_FOLD_PERIODS = 256     # periods of M terms per block of mean_functional_fourier
_MAX_TERMS = 2 ** 26    # terms that mean_functional_fourier sums at most

#: The error bound that every sinc-power moment must meet, or raise.
MOMENT_TOL = 1e-9


@dataclass(frozen=True)
class IntervalWeight:
    """w = 1_[-1/2,1/2]; what(xi) = sin(pi xi)/(pi xi)."""

    label = "interval"
    reach = 0.5             # w vanishes outside [-reach, reach]

    def hat(self, xi) -> np.ndarray:
        return np.sinc(np.asarray(xi, dtype=np.float64))

    def cutoff(self, f: GridFunction, tol: float) -> float:
        # tail_bound(f, Xi) = tail_bound(f, 1)/Xi^2 <= tol/2, capped at 2e5
        return min(max(64.0, math.sqrt(2.0 * self.tail_bound(f, 1.0) / tol)), 2.0e5)

    def tail_bound(self, f: GridFunction, hi: float) -> float:
        # 2 int_Xi (V/(2 pi xi))^2 (1/(pi xi)) = V^2/(4 pi^3 Xi^2)
        V = f.total_variation
        return V * V / (4.0 * math.pi ** 3 * hi * hi)

    def lp_moment(self, p: float) -> MomentResult:
        """int |sinc|^p for p > 1 by a fixed rule whose error bound must meet ``MOMENT_TOL``."""
        if not 1 < p < math.inf:
            raise ValueError(f"int |sinc|^p needs 1 < p < inf; it diverges for p <= 1 "
                             f"(got p={p})")
        value, err = _interval_lp_moment(float(p))
        if not err <= MOMENT_TOL:
            raise RuntimeError(f"int |sinc|^p at p={p} is certified to {err:.1e} > {MOMENT_TOL}")
        return MomentResult(value, err)

    def correlation_integral(self, values: np.ndarray, spacing):
        """int (f*f) w from the correlation's lattice values, exact on the
        piecewise-linear correlation; one value per row of a stack."""
        return lattice_window_integral(values, spacing, -0.5, 0.5)


# Cramer's inequality |H_m(x)| exp(-x^2/2) <= 1.0865 sqrt(2^m m!) for the Hermite
# H_m gives |w^(m)| <= 1.0865 sqrt((2a)^m m!) max w.  Per k = 1..64, the log of
# 1.0865 (k!)^4 sqrt((2k-1)!) / ((2k+1) ((2k)!)^3):
_REMAINDER_LOGS = [math.log(1.0865 / (2 * k + 1)) + 4 * math.lgamma(k + 1)
                   - 3 * math.lgamma(2 * k + 1) + 0.5 * math.lgamma(2 * k) for k in range(1, 65)]


def _meets_rule(k: int, s: float) -> bool:
    """Whether k-node Gauss-Legendre integrates g = l w, l a hat piece (|l| <= 1,
    |l'| = 1/h), on a lattice cell to 2^-60 h max w, at s = h sqrt(2a).

    The remainder h^(2k+1) (k!)^4 / ((2k+1) ((2k)!)^3) max|g^(2k)| is, by
    Leibniz and Cramer's bound on the derivatives of w, at most h max w times
    the table entry times s^(2k-1) (2k + s sqrt(2k)); its log rises with s."""
    return (_REMAINDER_LOGS[k - 1] + (2 * k - 1) * math.log(s)
            + math.log(2 * k + s * math.sqrt(2 * k)) < -60 * math.log(2))


@functools.lru_cache(maxsize=None)
def _node_limits() -> np.ndarray:
    """For k = 1..64, the largest float s at which k nodes meet ``_meets_rule``:
    Newton on log s from above, then the last few ulps by the rule itself.
    They rise with k, from 9.6e-18 to 19.94."""
    k = np.arange(1.0, 65.0)
    lead, tol = np.array(_REMAINDER_LOGS), -60 * math.log(2)
    y = (tol - lead - np.log(2 * k)) / (2 * k - 1)  # the root without the s term: above it
    for _ in range(4):
        e = np.exp(y) * np.sqrt(2 * k)
        y -= (lead + (2 * k - 1) * y + np.log(2 * k + e) - tol) / (2 * k - 1 + e / (2 * k + e))
    limits = []
    for k, s in enumerate(np.exp(y).tolist(), start=1):
        while not _meets_rule(k, s):
            s = math.nextafter(s, 0.0)
        while _meets_rule(k, math.nextafter(s, math.inf)):
            s = math.nextafter(s, math.inf)
        limits.append(s)
    return _readonly(np.array(limits))


def _gauss_node_count(s: float) -> int:
    """The least node count k <= 64 that meets ``_meets_rule`` at s, by one
    search of the limits.  Raises ValueError where none does (s above 19.94,
    or NaN)."""
    k = int(_node_limits().searchsorted(s)) + 1
    if k > 64:
        raise ValueError(f"lattice too coarse for the Gaussian weight: h sqrt(2a) = {s:.3g} "
                         "needs more than 64 Gauss nodes a cell")
    return k


@dataclass(frozen=True)
class GaussianWeight:
    """w = sqrt(a/pi) exp(-a t^2); what(xi) = exp(-pi^2 xi^2 / a).  Its time side is
    Gauss-Legendre per lattice cell, proven to 2^-54 ||f||_2^2 (``correlation_integral``)."""

    a: float
    label = "gaussian"

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a > 0):
            raise ValueError(f"Gaussian weight needs a > 0, got {self.a}")

    @property
    def reach(self) -> float:
        """Beyond it w < e^-46 max w."""
        return math.sqrt(46.0 / self.a)

    def hat(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=np.float64)
        return np.exp(-(math.pi ** 2) * xi * xi / self.a)

    def cutoff(self, f: GridFunction, tol: float) -> float:
        # first integer Xi with tail_bound(f, Xi) <= tol/2, capped near 1e4
        hi = 1.0
        while self.tail_bound(f, hi) > tol / 2 and hi <= 1e4:
            hi += 1.0
        return hi

    def tail_bound(self, f: GridFunction, hi: float) -> float:
        # |fhat| <= ||f||_1 and 2 int_Xi exp(-c xi^2) <= exp(-c Xi^2)/(c Xi)
        c = math.pi ** 2 / self.a
        return f.l1_norm ** 2 * math.exp(-c * hi * hi) / (c * hi)

    def lp_moment(self, p: float) -> MomentResult:
        """The closed form sqrt(a/(pi p)), cross-checked by 64-point Gauss-Legendre.

        The error bound covers the rounding of the closed form.
        """
        if not 1 <= p < math.inf:
            raise ValueError(f"need 1 <= p < inf for the Gaussian weight (got p={p})")
        closed = math.sqrt(self.a / (math.pi * p))
        hi = math.sqrt(40.0 / (math.pi ** 2 * p)) * math.sqrt(self.a)   # finite for every a
        c = math.pi ** 2 * p / self.a
        num = 2.0 * float(_gauss_pieces(lambda u: np.exp(-c * u * u), np.array([0.0, hi]), 64)[0])
        if not abs(num - closed) <= max(MOMENT_TOL, 1e-10 * closed):   # NaN fails
            raise RuntimeError(
                f"Gaussian moment cross-check failed: closed={closed!r} quad={num!r}")
        return MomentResult(closed, 1e-15 * closed)

    def accepts(self, spacing) -> np.ndarray:
        """Whether ``correlation_integral`` takes lattices of these cell widths:
        those with h sqrt(2a) at most 19.94, where 64 nodes still meet its rule."""
        return spacing * math.sqrt(2.0 * self.a) <= _node_limits()[-1]

    def correlation_integral(self, values: np.ndarray, spacing):
        """int (f*f) w = sum_m c_m omega_m over the lattice values c_m of f*f,
        omega_m = int hat_m w with hat_m the lattice hat function at m h.

        c and w are even: only the nonnegative cells [j h, (j+1) h] with
        j h < R = ``reach`` count (the rest holds < erfc(sqrt(46)) c_0).  Each
        hat piece, (1 - u) w or u w with u = t/h - j, is integrated to
        2^-60 h max w, so the error is below 2^-58 (cells h) max w c_0 <
        2^-54 c_0, as cells h < R + h and c_0 = max c = ||f||_2^2.

        A (rows, 2n + 1) stack of lattices, at one spacing or one per row,
        gives one value per row; a lattice is a stack of one row.  Each row is
        evaluated alone, in order, so it has the bits of its own 1-D call and
        the first row too coarse for the rule raises what it raises alone;
        omega is built once per distinct width of the call.
        """
        rows = np.atleast_2d(values)
        n, a = rows.shape[1] // 2, self.a
        omegas, out = {}, []
        for row, h in zip(rows, np.broadcast_to(spacing, rows.shape[:1]).tolist()):
            if h not in omegas:
                k = _gauss_node_count(h * math.sqrt(2.0 * a))
                omegas[h] = self._hat_integrals(h, math.ceil(min(self.reach / h, n)), k)
            omega = omegas[h]
            # h sqrt(a/pi) = 2 (h/2) max w
            out.append(h * math.sqrt(a / math.pi) * float(row[n:n + omega.size] @ omega))
        return out[0] if values.ndim == 1 else np.array(out)

    def _hat_integrals(self, h: float, cells: int, k: int) -> np.ndarray:
        """omega / (h sqrt(a/pi)) at m = 0..cells, by the k-node rule on each
        of the cells: one (node, cell) exp table and one einsum.  Every cell
        starts within the reach, and h sqrt(a) <= 14.1, so no exponent falls
        below -(sqrt(46) + 14.1)^2 > -437, far above exp's underflow."""
        u, hat = _hat_rule(k)
        t = u[:, None] + np.arange(float(cells))
        t *= h
        g = -self.a * t
        g *= t
        np.exp(g, out=g)
        pieces = np.einsum("pk,kj->pj", hat, g)
        # hat_m takes the piece (1 - u) w of cell m, none at m = cells, and the
        # piece u w of cell m - 1
        omega = np.zeros(cells + 1)
        omega[:-1] = pieces[0]
        omega[1:] += pieces[1]
        return omega


@functools.lru_cache(maxsize=None)
def _hat_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k Gauss-Legendre nodes u on [0, 1], and their weights times the
    two hat pieces there, 1 - u and u."""
    x, wgt = _leggauss(k)
    u = 0.5 * (1.0 + x)
    return _readonly(u), _readonly(np.stack((wgt * (1.0 - u), wgt * u)))


Weight = Union[IntervalWeight, GaussianWeight]


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _phase_sum(weights: np.ndarray, h: float, xis: np.ndarray) -> np.ndarray:
    """sum_m w_m exp(-2 pi i xi y_m) on the centred progression y_m = (m - (n-1)/2) h.

    With P ~ sqrt(n), exp(-2 pi i xi y_(pP+q)) = coarse[xi, p] * fine[xi, q],
    so block by block the sum is sum_p coarse[xi, p] (fine @ W)[xi, p] with
    W[q, p] = w_(pP+q), zero past n; no (xi, n) array is built.  Each table
    is itself split (``_split_phases``), so at n = 1025 a xi costs 24 complex
    exps, not 65.  The real products go through einsum, not BLAS: OpenBLAS
    threads even small complex products, and its idle threads then spin on
    the other cores.
    """
    n = weights.size
    P = max(1, round(math.sqrt(n)))
    Q = -(-n // P)
    W = np.pad(weights, (0, Q * P - n)).reshape(Q, P).T
    y0 = -0.5 * (n - 1) * h
    out = np.empty(xis.size, dtype=np.complex128)
    for s in range(0, xis.size, _PHASE_BLOCK):
        block = xis[s:s + _PHASE_BLOCK]
        coarse = _split_phases(block, y0, P * h, Q)
        fine = _split_phases(block, 0.0, h, P)
        re, im = np.einsum("cxq,qp->cxp", np.stack((fine.real, fine.imag)), W)
        out[s:s + _PHASE_BLOCK] = np.einsum("ij,ij->i", coarse, re + 1j * im)
    return out


def _split_phases(xis: np.ndarray, y0: float, d: float, m: int) -> np.ndarray:
    """exp(-2 pi i xi (y0 + j d)) for j < m, as the (xi, j) outer product of a
    table over j = kR + r, r < R ~ sqrt(m), and one over k: about 2 sqrt(m)
    complex exps per xi instead of m."""
    R = math.ceil(math.sqrt(m))
    lo = np.exp(-2j * np.pi * xis[:, None] * (np.arange(R) * d))
    hi = np.exp(-2j * np.pi * xis[:, None] * (y0 + np.arange(-(-m // R)) * (R * d)))
    return (hi[:, :, None] * lo[:, None, :]).reshape(xis.size, -1)[:, :m]


def fourier_measure(mu: MixedMeasure, xi):
    """Transform of an atoms-plus-density measure, shaped as xi; |value| <= total variation.
    The density is its cells' step function, as the correlations read it."""
    arr = np.ravel(np.asarray(xi, dtype=np.float64))
    out = np.zeros(arr.shape, dtype=np.complex128)
    if mu.atoms:
        out += np.exp(-2j * np.pi * arr[:, None] * mu.atom_locations) @ mu.atom_masses
    f = mu.density
    if f is not None:
        # the cell midpoints are the centred progression shifted by the support centre
        shift = np.exp(-2j * np.pi * arr * (f.origin + 0.5 * f.width))
        out += f.spacing * np.sinc(f.spacing * arr) * shift * _phase_sum(f.samples, f.spacing, arr)
    return out.reshape(np.shape(xi)) if np.ndim(xi) else complex(out[0])


# ---------------------------------------------------------------------------
# sinc-power moments  I_w(p) = int |what|^p
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentResult:
    """A certified quadrature value with its accumulated error bound."""

    value: float
    error_bound: float


# Rounding of CPython's math.gamma and math.lgamma, in units of 2^-53, as
# charged by ``_beta``.  Measured against 40-digit mpmath: at most 5.1 ulp for
# gamma on [1, 171] and 12.2 ulp of max(1, |lgamma|) on [1, 2000].
_GAMMA_ULPS = 8.0
_LGAMMA_ULPS = 16.0


def _beta(a: float, b: float) -> tuple[float, float]:
    """B(a, b) for a, b >= 1, and a bound on its relative rounding error.

    B(a, 1) = 1/a is one division.  Otherwise Gamma(a) Gamma(b) / Gamma(a+b)
    while Gamma(a+b) is finite (three gamma calls and two operations), else
    exp(lgamma(a) + lgamma(b) - lgamma(a+b)), whose relative error is the
    absolute error of the exponent, about 2^-53 times the lgamma magnitudes.
    """
    u = 2.0 ** -53
    if b == 1.0:
        return 1.0 / a, u
    if a + b <= 171.0:
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b), (3.0 * _GAMMA_ULPS + 2.0) * u
    la, lb, lab = math.lgamma(a), math.lgamma(b), math.lgamma(a + b)
    return math.exp(la + lb - lab), _LGAMMA_ULPS * u * (abs(la) + abs(lb) + abs(lab)) + u


def _gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes u, 1 - u and weights w with sum w g(u) ~ int_0^1 g(u) (1-u)^a u^b du.

    Golub-Welsch: the eigenvalues x of the Jacobi matrix on [-1, 1], mapped
    to u = (1+x)/2, and B(a+1, b+1) (``_beta``) times the squared first
    components of its eigenvectors.  Needs a + b > 0.
    """
    k = np.arange(n, dtype=np.float64)
    s = 2.0 * k + a + b
    diag = (b * b - a * a) / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + x), 0.5 * (1.0 - x), _beta(a + 1.0, b + 1.0)[0] * v[0] ** 2


#: Largest p at which ``_interval_lp_moment`` certifies ``MOMENT_TOL`` (p > 1
#: is the other end).  Its error bound is 2.6e-11 at p = 300 and passes it
#: between p = 340 and 350, where the fixed 16/24-node rules stop converging.
INTERVAL_MOMENT_P_MAX = 300.0


# B_2k / (2k)! for k = 1..6, the Euler-Maclaurin coefficients of ``_hurwitz_zeta``
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                    -691 / 1307674368000)
_ZETA_TERMS = 20


def _split(a: float) -> tuple[float, float]:
    # Veltkamp: a = hi + lo exactly, each half with at most 26 significant bits
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _hurwitz_zeta(s: float, a: int) -> float:
    """zeta(s, a) = sum_{k>=0} (a+k)^-s for s > 1 and a positive integer a.

    The first M = 20 terms are summed directly and zeta(s, N), N = a + M, by
    Euler-Maclaurin:

        zeta(s, N) = N^(1-s)/(s-1) + N^-s (1/2 + sum_k B_2k/(2k)! (s)_(2k-1) N^(1-2k))

    with six Bernoulli terms; for a = 50 the first omitted one is below
    5e-20 of the value at every s > 1.  The terms are pow() values added by
    ``math.fsum``.  N^(1-s)/(s-1), nearly the whole value as s -> 1, is
    divided with its remainder (Dekker's product).  The Bernoulli terms are
    formed only while N^-s has not underflowed (s < 176 for N = 70), so the
    Pochhammer factors stay finite, and a large s gives 0, never inf * 0.
    Against 80-digit mpmath the relative error is below 2e-16 on s in (1, 320].
    """
    N = a + _ZETA_TERMS
    terms = [math.pow(a + k, -s) for k in range(_ZETA_TERMS)]
    d = s - 1.0
    lead = math.pow(N, -d)
    quot = lead / d
    if quot > 0.0:
        prod = quot * d
        (qh, ql), (dh, dl) = _split(quot), _split(d)
        error = ((qh * dh - prod) + qh * dl + ql * dh) + ql * dl   # quot * d - prod
        terms += [quot, ((lead - prod) - error) / d]
    tail = math.pow(N, -s)
    if tail > 0.0:
        poch, corr = s / N, 0.5                    # (s)_(2k-1) / N^(2k-1)
        for k, coeff in enumerate(_EULER_MACLAURIN):
            corr += coeff * poch
            poch *= (s + 2 * k + 1) * (s + 2 * k + 2) / (N * N)
        terms.append(tail * corr)
    return math.fsum(terms)


@functools.lru_cache(maxsize=512)
def _interval_lp_moment(p: float) -> tuple[float, float]:
    """int |sin(pi xi)/(pi xi)|^p d xi for p > 1, with its error bound.

    The head is summed over the inter-zero intervals [k, k+1], k < K; the tail
    sum_{k>=K} int_0^1 |sin(pi u)|^p (k+u)^{-p} du is expanded through the
    binomial series into Hurwitz-zeta values, with a geometric remainder
    bound.  (A plain (pi T)^(1-p) truncation cannot reach 1e-9 accuracy near
    p = 2 in any feasible T, hence the acceleration.)

    Each integral is 16-node Gauss-Jacobi with the zeros of the integrand in
    its weight, (u (1-u))^p on [k, k+1] or (1-u)^p on [0, 1].  The error bound
    is the change to 24 nodes, plus the series remainder, plus the rounding
    of the Beta function that scales the weights (``_beta``), at least 1e-14
    of the value.
    """
    K, J = 50, 16
    coeffs = np.ones(J + 2)     # (1+u)^(-p) = sum_j c_j u^j, stable for every real p
    for j in range(1, J + 2):
        coeffs[j] = coeffs[j - 1] * (-(p + j - 1.0) / j)
    zeta = np.array([_hurwitz_zeta(p + j, K) for j in range(J + 2)]) * math.pi ** -p

    def rule(n: int) -> tuple[float, float]:
        # (the moment, the tail moment j = 0) with n nodes
        u, v, w = _gauss_jacobi(n, p, p)
        r = np.sin(np.pi * np.minimum(u, v)) / (u * v)   # sin read from the nearer zero
        head = float((w * (r / (np.pi * (np.arange(1.0, K)[:, None] + u))) ** p).sum())
        moments = (w * r ** p) @ u[:, None] ** np.arange(J + 1)   # int_0^1 |sin(pi u)|^p u^j
        u, v, w = _gauss_jacobi(n, p, 0.0)
        head += float(w @ (np.sin(np.pi * np.minimum(u, v)) / (np.pi * u * v)) ** p)
        return 2.0 * (head + float(coeffs[:-1] * zeta[:-1] @ moments)), moments[0]

    value, m0 = rule(16)
    remainder = 3.0 * abs(coeffs[-1]) * m0 * zeta[-1]
    rounding = max(1e-14, _beta(p + 1.0, p + 1.0)[1]) * value
    return value, abs(value - rule(24)[0]) + remainder + rounding


def weight_lp_moment(w: Weight, p: float) -> MomentResult:
    """The inner integral I_w(p) = int |what(xi)|^p d xi, un-rooted: ``w.lp_moment(p)``."""
    return w.lp_moment(p)


# ---------------------------------------------------------------------------
# Fourier-side weighted mean  int |fhat|^2 what
# ---------------------------------------------------------------------------


def mean_functional_fourier(f: GridFunction, w: Weight, tol: float) -> float:
    """int |fhat(xi)|^2 what(xi) d xi as an exact trapezoid sum (module docstring).

    The step is delta = 1/(M h), M = floor((width + R)/h) + 1 > n with
    R = ``w.reach``, and |fhat(j delta)|^2 = (h sinc(h j delta))^2 P_(j mod M),
    P the squared modulus of the length-M DFT of the cell values.  The terms
    past Xi = w.cutoff(f, tol) are dropped; both majorants decrease, so they
    sum to at most ``w.tail_bound(f, Xi)`` <= tol/2.  The error is that, plus
    the Gaussian's aliasing, below about 2 e^-46 sqrt(a/pi) ||f||_1^2, plus
    rounding; there is no quadrature error.  No error figure is returned: the
    functionals compare this value with the time side, which is exact on the
    lattice, and their disagreement is the reported error estimate.  Where
    the 2e5 cap on Xi binds, the tail past it shows there too.  The terms are
    folded onto the M residues in blocks of ``_FOLD_PERIODS`` whole periods,
    so the memory is set by the block, not by Xi.  More than ``_MAX_TERMS``
    terms, about Xi (width + R), or M >= ``_MAX_DFT`` (a support narrow
    against R) raise ValueError before the DFT.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    h = f.spacing
    if (f.width + w.reach) / h >= _MAX_DFT:
        raise ValueError(f"the Fourier side would need a DFT longer than {_MAX_DFT}: "
                         f"the support {f.support} is too narrow for the weight's "
                         f"reach {w.reach:.3g}")
    M = int((f.width + w.reach) / h) + 1
    delta = 1.0 / (M * h)
    n_terms = math.ceil(w.cutoff(f, tol) / delta) + 1
    if n_terms > _MAX_TERMS:
        raise ValueError(f"the Fourier side would sum {n_terms:.3g} terms, more than "
                         f"{_MAX_TERMS}: the support {f.support} is too wide")
    v = np.fft.fft(f.samples, M)
    P = v.real ** 2 + v.imag ** 2
    folded = np.zeros(M)
    for start in range(0, n_terms, _FOLD_PERIODS * M):
        xi = delta * np.arange(start, min(start + _FOLD_PERIODS * M, n_terms))
        G = (h * np.sinc(h * xi)) ** 2 * w.hat(xi)
        if start == 0:
            G[0] *= 0.5
        # the running fold on top of this block's periods, zero-padded: each
        # bin adds its terms in index order, as one bincount over all would
        rows = np.zeros((1 - (-xi.size // M), M))
        rows[0] = folded
        rows.reshape(-1)[M:M + xi.size] = G
        folded = rows.sum(0)
        del xi, G, rows     # free this block before the next is built
    return 2.0 * delta * float(P @ folded)
