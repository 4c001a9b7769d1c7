"""Autocorrelation engines.

For a grid function f with n cells of width h, the correlation
g(t) = int f(x) f(x+t) dx of the cell model is piecewise linear with
breakpoints on the lattice t_k = (k - n) h, k = 0..2n, and its lattice values
are exactly h * sum_j s_j s_{j+m}.  :class:`Correlation` holds these 2n + 1
values, so everything downstream (window integrals, minima, weighted means)
reads them off the lattice; linear interpolation between them is not an
approximation.  The arithmetic lives in module-level kernels on the raw
lattice array (``lattice_*``); the :class:`Correlation` methods and the
functionals' array cores both call them, so there is one implementation.
The kernels also take a stack of lattices, one row each, at one spacing or
one spacing per row, and give each row its own 1-D call's bits.
A weighted mean int (f*f) w = sum_m c_m int hat_m w is a ``spectral`` weight's
``correlation_integral``: exact for the interval; for the Gaussian, a closed
form on a lattice coarser than its reach, else a quadrature whose error is
proven below 2^-54 c_0 with exact nodes and measured at up to 3.8e-14 c_0
with numpy's rounded ones.

One rule puts every lattice at a width: the lattice at cell width h is the
unit-width lattice (``lattice_autocorrelation``) times h.  ``at_width`` is
that step: it scales a unit lattice and the norms to a width, the tuple
(c, h, l1, l2) that the functionals' ratio cores read, and refuses the zero
function and sample scales that the float range cannot hold.
``lattice_and_norms`` correlates the cells and takes that step, and so does
``autocorrelate``; the search's one-parameter families keep their profile's
unit lattice and take it at every width they read.  The tuple also takes a
stack, one row per function: a (rows, n) stack of cells on one width, as the
search evaluates a round of candidates, or a scan's block of widths of one
profile, one spacing per row.  Each field is then an array with one entry
per row, bit for bit the row's own 1-D value.

The singular BS example is handled separately: its correlation is a sum of
incomplete elliptic integrals of the first kind, evaluated in closed form
through Carlson's R_F (``_carlson_rf``), with no quadrature.  (Its L1 norm
11 pi/24 is checked by Gauss-Legendre, ``bs_l1``.)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import numpy.fft

from .funcspace import (BSExample, GridFunction, MixedMeasure, _l1_norm, _l2_norm, _readonly,
                        _window)

__all__ = [
    "Correlation",
    "autocorrelate",
    "lattice_autocorrelation",
    "at_width",
    "lattice_and_norms",
    "LatticeAndNorms",
    "ZeroFunctionError",
    "lattice_value",
    "lattice_min",
    "lattice_window_integral",
    "autocorrelate_singular",
    "periodize",
    "dilate",
    "MeasureCorrelation",
    "measure_correlation",
]


# ---------------------------------------------------------------------------
# lattice kernels: arrays in, arrays or floats out
#
# ``c`` holds the 2n + 1 lattice values of f*f at t_k = (k - n) h, k = 0..2n,
# clamped at 0, ``lattice_autocorrelation``'s values times h; the functions
# below read the piecewise-linear correlation off them exactly.  They do not
# check the lattice values, the spacing or t: :class:`Correlation` and the
# functionals check those once, at the boundary, and call these.  Only
# ``lattice_min`` refuses an input, an empty window (hi < lo) or a NaN end.
#
# Every kernel also takes a (rows, 2n + 1) stack of lattices, as the search
# evaluates a round of candidates or a scan's block of cell widths.  The
# spacing is then one float for every row or a 1-D array of one spacing per
# row.  The stack runs the 1-D call's operations along the last axis, so
# each row gets the bits of its own 1-D call, at a Python or numpy number t
# as at an array of them; an array t or window gives the stack's rows first,
# then its own shape.
# ---------------------------------------------------------------------------


def _next_pow2(n: int) -> int:
    return 1 << (int(n - 1).bit_length())


def lattice_autocorrelation(samples: np.ndarray) -> np.ndarray:
    """Lattice values of f*f at unit cell width (times h at width h) for cell
    values ``samples``, by zero-padded FFT; one row per row of a stack."""
    n = samples.shape[-1]
    L = _next_pow2(2 * n)
    S = np.fft.rfft(samples, L)
    # Named, not a temporary: from 256 KiB numpy would reuse the conjugate's
    # buffer and compute conj(S) * S, which rounds differently from S * conj(S).
    conj = np.conj(S)
    pos = np.fft.irfft(S * conj, L)[..., :n]  # lags 0 .. n-1
    end = np.zeros(samples.shape[:-1] + (1,))
    c = np.concatenate((end, pos[..., :0:-1], pos, end), axis=-1)  # the lags mirrored: even exactly
    return np.where(c < 0.0, 0.0, c)  # the FFT's rounding noise, clamped at 0


# ---------------------------------------------------------------------------
# the width step
#
# ``lattice_and_norms`` and ``at_width`` take cell values and widths that
# the caller has checked (finite, nonnegative samples, positive spacing: a
# GridFunction, the search's squared simplex parameters and checked cell
# width, or its scan profiles and golden-search widths).
# ---------------------------------------------------------------------------

_TINY = sys.float_info.min     # the least normal float

LatticeAndNorms = tuple[np.ndarray, float, float, float]


class ZeroFunctionError(ValueError):
    """The ratio is undefined for the zero function."""


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


def _lattice_points(c: np.ndarray, spacing: float) -> np.ndarray:
    n = c.shape[-1] // 2
    return (np.arange(2 * n + 1) - n) * spacing


def _per_row(spacing) -> bool:
    """Whether a stack's spacing is one value per row (np.ndim, without its cost)."""
    return isinstance(spacing, np.ndarray) and spacing.ndim > 0


def _row_spacing(spacing, trailing: int):
    """A stack's spacing shaped to lead an array of ``trailing`` more axes:
    one float keeps one leading axis of length 1, one spacing per row a
    leading axis of the rows."""
    return np.reshape(spacing, (-1,) + (1,) * trailing)


def _gather(c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """c[k] on one lattice; on a stack, row r's values at the indices k[r]
    (k leads with the rows, or with 1 for the same indices in every row)."""
    if c.ndim == 1:
        return c[k]
    return c[np.arange(c.shape[0]).reshape((-1,) + (1,) * (k.ndim - 1)), k]


def lattice_value(c: np.ndarray, spacing, t):
    """The linear interpolant at t, read at |t| on the nonnegative half.

    A 0-d t (a Python or numpy number, or a 0-d array) at one spacing takes
    scalar arithmetic, with the array branch's operations in the same order,
    so both give the same bits; on a stack of lattices it reads one column
    pair and gives one value per row.  An array t, or one spacing per row,
    gives t's shape, after the stack's rows on a stack."""
    n = c.shape[-1] // 2
    if np.ndim(t) == 0 and not _per_row(spacing):
        u = abs(float(t)) / float(spacing)
        if u > n:
            return 0.0 if c.ndim == 1 else np.zeros(c.shape[:-1])
        k = int(min(u, n - 1))
        frac = u - k
        if c.ndim == 1:
            return float(c[n + k]) * (1.0 - frac) + float(c[n + k + 1]) * frac
        return c[:, n + k] * (1.0 - frac) + c[:, n + k + 1] * frac
    t = np.asarray(t, dtype=np.float64)
    u = np.abs(t) / (spacing if c.ndim == 1 else _row_spacing(spacing, t.ndim))
    k = np.minimum(u, n - 1).astype(np.int64)
    frac = u - k
    return np.where(u > n, 0.0, _gather(c, n + k) * (1.0 - frac) + _gather(c, n + k + 1) * frac)


def lattice_min(c: np.ndarray, spacing, lo: float, hi: float):
    """Exact minimum of the piecewise-linear correlation over [lo, hi]; one
    per row of a stack."""
    if not lo <= hi:
        raise ValueError("empty window" if hi < lo else f"window [{lo}, {hi}] has a NaN end")
    n = c.shape[-1] // 2
    cands = [lattice_value(c, spacing, lo), lattice_value(c, spacing, hi)]
    if not _per_row(spacing):
        W = n * spacing
        if lo < -W or hi > W:
            cands.append(0.0)  # window sticks out of the support
        ts = _lattice_points(c, spacing)  # ascending: the lattice points in [lo, hi] are a slice
        i, j = ts.searchsorted(lo, side="left"), ts.searchsorted(hi, side="right")
        if i < j:
            cands.append(float(c[i:j].min()) if c.ndim == 1 else c[:, i:j].min(axis=-1))
        if c.ndim == 1:
            return min(cands)
    else:  # per row, with +inf for a candidate the row lacks
        h = _row_spacing(spacing, 1)
        W = n * h[:, 0]
        cands.append(np.where((lo < -W) | (hi > W), 0.0, np.inf))
        ts = _lattice_points(c, h)
        cands.append(np.where((ts >= lo) & (ts <= hi), c, np.inf).min(axis=-1))
    least = cands[0]
    for cand in cands[1:]:
        least = np.where(cand < least, cand, least)  # min(cands) per row: the first least
    return least


def _lattice_antiderivative(c: np.ndarray, spacing, x: np.ndarray) -> np.ndarray:
    n = c.shape[-1] // 2
    h = spacing if c.ndim == 1 else _row_spacing(spacing, x.ndim)
    u = np.clip(x / h + n, 0.0, 2.0 * n)  # position k of x = t_k = (k - n) h
    k = np.minimum(u.astype(np.int64), 2 * n - 1)
    frac = u - k
    # the trapezoid sums, one cumulative sum along each row, up to the last k read
    m = int(k.max(initial=0))
    trap = np.empty(c.shape[:-1] + (m + 1,))
    trap[..., 0] = 0.0
    steps = np.add(c[..., :m], c[..., 1:m + 1], out=trap[..., 1:])
    steps *= 0.5 * (h if c.ndim == 1 else _row_spacing(spacing, 1))
    np.cumsum(steps, axis=-1, out=steps)
    ck, ck1 = _gather(c, k), _gather(c, k + 1)
    return _gather(trap, k) + 0.5 * frac * h * (ck + (ck * (1 - frac) + ck1 * frac))


def lattice_window_integral(c: np.ndarray, spacing, lo, hi):
    """Exact integral of the piecewise-linear correlation over [lo, hi], 0 where hi <= lo."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=np.float64),
                                 np.asarray(hi, dtype=np.float64))
    F = _lattice_antiderivative(c, spacing, np.stack((hi, lo), axis=-1))  # one cumulative sum
    out = np.where(hi > lo, F[..., 0] - F[..., 1], 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the lattice type
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Correlation:
    """Lattice values of the autocorrelation f*f.

    ``values[k]`` is (f*f)(t_k) on the lattice t_k = (k - n) h, k = 0..2n,
    with h = ``spacing`` and n h the support length of f, so the two end
    values are the exact zeros at t = +-n h.  The values are read-only and
    clamped at 0.  Between lattice points the cell-model correlation is
    linear, which ``value``, ``integral_window`` and ``min_on`` reproduce
    exactly.  Each method delegates to its lattice kernel above.  The
    spacing must be finite and positive, and a NaN t or window end is
    refused (ValueError); an infinite one is read.
    """

    spacing: float
    values: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.values, dtype=np.float64)
        if c.ndim != 1 or c.size < 3 or c.size % 2 == 0:
            raise ValueError("values must be a 1-D array of odd length >= 3")
        h = float(self.spacing)
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"spacing must be finite and positive, got {h}")
        object.__setattr__(self, "values", _readonly(np.where(c < 0.0, 0.0, c)))
        object.__setattr__(self, "spacing", h)

    @property
    def halfwidth(self) -> float:
        """n h, the largest lattice point; the correlation vanishes there."""
        return self.values.size // 2 * self.spacing

    @property
    def lattice(self) -> np.ndarray:
        return _lattice_points(self.values, self.spacing)

    @property
    def mass(self) -> float:
        """int f*f = ||f||_1^2 (lattice trapezoid; endpoints vanish)."""
        return float(self.spacing * self.values.sum())

    def value(self, t) -> np.ndarray:
        """The linear interpolant at t, read at |t| on the nonnegative half."""
        if np.isnan(t).any():
            raise ValueError(f"t = {t} has a NaN")
        return lattice_value(self.values, self.spacing, t)

    def min_on(self, lo: float, hi: float) -> float:
        """Exact minimum of the piecewise-linear correlation over [lo, hi]."""
        return lattice_min(self.values, self.spacing, lo, hi)

    def integral_window(self, lo, hi):
        """Exact integral of the piecewise-linear correlation over [lo, hi].

        Takes scalars or broadcastable arrays like ``GridFunction.integral``.
        """
        return lattice_window_integral(self.values, self.spacing, *_window(lo, hi))

    def weighted_integral(self, weight) -> float:
        """int (f*f) w for a ``spectral`` weight: its ``correlation_integral``."""
        return weight.correlation_integral(self.values, self.spacing)


def autocorrelate(f: GridFunction) -> Correlation:
    """Autocorrelation of a grid function, exact on the lattice {k*h}.

    The lattice of :func:`lattice_and_norms`, with the exact zeros at
    t = +-(support length) at the ends, and its ValueError for a sample
    scale outside the float range.  The zero function has no ratio to
    refuse: its correlation is the zero lattice.
    """
    try:
        c = lattice_and_norms(f.samples, f.spacing)[0]
    except ZeroFunctionError:
        c = np.zeros(2 * f.cells + 1)
    return Correlation(spacing=f.spacing, values=c)


# ---------------------------------------------------------------------------
# singular BS-example correlation
# ---------------------------------------------------------------------------


_RF_SCALE = 2.0 ** 100
# Carlson's (1995) stopping rule for a relative truncation error below r = 2^-53
_RF_Q = (3.0 * 2.0 ** -53) ** (-1.0 / 6.0)


def _carlson_rf(x, y, z):
    """Carlson's R_F(x, y, z) = 1/2 int_0^inf dt / sqrt((t+x)(t+y)(t+z)), vectorized.

    For x, y, z >= 0 with at most one of them zero; two zeros give +inf, a
    NaN, infinite or negative argument NaN.  Duplication theorem and
    fifth-order series as in Carlson (1995), Numer. Algorithms 10, 13-26:
    with A_0 the mean of the arguments and Q = (3r)^(-1/6) max|A_0 - x|,
    iterate lambda = sqrt(x y) + sqrt(x z) + sqrt(y z), (x, y, z, A) <-
    (x, y, z, A) + lambda, all divided by 4, until 4^-m Q < |A_m|; then with
    X = (A_0 - x)/(4^m A_m), Y likewise and Z = -X - Y,

        R_F ~ A_m^(-1/2) (1 - E2/10 + E3/14 + E2^2/24 - 3 E2 E3/44),

    E2 = XY - Z^2, E3 = XYZ.  Each element stops on its own rule (the others
    are masked out), and only +, *, / and sqrt are used, so an element's
    value does not depend on the array it sits in.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (x, y, z)))
    a0 = (x + y + z) / 3.0
    q = _RF_Q * np.maximum(np.maximum(np.abs(a0 - x), np.abs(a0 - y)), np.abs(a0 - z))
    xm, ym, zm, am = (v.flatten() for v in (x, y, z, a0))
    q, scale = q.ravel(), np.ones(q.size)           # 4^-m Q and 4^-m
    # two zero arguments never meet the rule (inf); a NaN never fails it
    poles = (xm == 0.0) * 1 + (ym == 0.0) + (zm == 0.0) >= 2
    live = np.flatnonzero((q >= np.abs(am)) & ~poles)
    while live.size:
        sx, sy, sz = np.sqrt(xm[live]), np.sqrt(ym[live]), np.sqrt(zm[live])
        lam = sx * sy + sx * sz + sy * sz
        xm[live] = 0.25 * (xm[live] + lam)
        ym[live] = 0.25 * (ym[live] + lam)
        zm[live] = 0.25 * (zm[live] + lam)
        am[live] = 0.25 * (am[live] + lam)
        q[live] *= 0.25
        scale[live] *= 0.25
        live = live[q[live] >= np.abs(am[live])]
    t = am / scale                                   # 4^m A_m, exact
    X = (a0.ravel() - x.ravel()) / t
    Y = (a0.ravel() - y.ravel()) / t
    Z = -X - Y
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(am)
    rf[poles] = np.inf
    rf = rf.reshape(x.shape)
    return rf if rf.ndim else float(rf)


def autocorrelate_singular(f: BSExample, t):
    """f*f(t) for the BS example in closed form, vectorized over t.

    f*f is even, so write t for |t|.  With y = x + t/2, A = (1+t)/2 and
    B = (1-t)/2 the overlap is |y| <= B, where
    f(x) f(x+t) = m(y-t/2) m(y+t/2) / (4 sqrt((A^2-y^2)(B^2-y^2))).  The
    antiderivative of the square-root factor is an incomplete elliptic
    integral of the first kind (Byrd & Friedman 219.00), in Carlson's form

        P(Y) = Y R_F(A^2 (B-Y)(B+Y), B^2 (A-Y)(A+Y), A^2 B^2),

    odd in Y.  Expanding m(u) m(v) = (1 - 1_U/4)(1 - 1_V/4) over the windows
    U = [t/2-1/4, t/2+1/4] and V = -U gives, for 0 < t < 1,

        f*f(t) = P(B)/2 - [P(min(t/2+1/4, B)) + P(1/4-t/2)]/8   (t <= 3/4)
                        + P(1/4-t/2)/32                          (t <= 1/2).

    Each factor B-Y, A+Y, ... is formed as c + k t with c a multiple of 1/4,
    so no argument of R_F cancels (the parameter 1 - k^2 = t/A^2 is never
    formed as a difference).  The value extends continuously to pi/4 at
    t = 1 and diverges at t = 0 (the example is not in L^2), where +inf is
    returned.  A scalar t gives a float.
    """
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)) or np.any(np.abs(t) > 1.0):
        raise ValueError(f"t must lie in [-1, 1], got {t}")
    a = np.abs(t)
    A, B = 0.5 * (1.0 + a), 0.5 * (1.0 - a)
    A2, B2 = A * A, B * B
    low, mid = a <= 0.25, a <= 0.75
    # rows: Y = B, Y = t/2 + 1/4 (t <= 1/4), Y = 1/4 - t/2 (t <= 3/4); rows
    # outside their range get the harmless arguments (1, 1, 1).  Row 0 is
    # R_F(0, t, A^2) scaled by 2^100 (exact), so a subnormal t stays finite.
    x = np.stack([np.zeros_like(a),
                  np.where(low, A2 * (0.25 - a) * 0.75, 1.0),
                  np.where(mid, A2 * 0.25 * (0.75 - a), 1.0)])
    y = np.stack([_RF_SCALE * a,
                  np.where(low, B2 * 0.25 * (0.75 + a), 1.0),
                  np.where(mid, B2 * (0.25 + a) * 0.75, 1.0)])
    z = np.stack([_RF_SCALE * A2, np.where(low, A2 * B2, 1.0), np.where(mid, A2 * B2, 1.0)])
    rf = _carlson_rf(x, y, z)
    p_b = math.sqrt(_RF_SCALE) * rf[0]
    p_up = np.where(low, (0.5 * a + 0.25) * rf[1], p_b)
    p_in = (0.25 - 0.5 * a) * rf[2]
    out = 0.5 * p_b - np.where(mid, 0.125 * (p_up + p_in), 0.0) \
        + np.where(a <= 0.5, p_in / 32.0, 0.0)
    out = np.where(a == 1.0, math.pi / 4.0, np.where(a == 0.0, math.inf, out))
    if not np.all(np.isfinite(out) | (a == 0.0)):
        raise RuntimeError("singular correlation is not finite at some t in (0, 1]")
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# periodization and dilation
# ---------------------------------------------------------------------------


def periodize(g: GridFunction) -> GridFunction:
    """Window the 1-periodization onto [-1, 1]: G = 1_[-1,1] * sum_n g(. - n).

    Requires the grid to be compatible with the unit lattice (1/h integer and
    the origin on that lattice), so that integer translates land exactly on
    grid cells; then ||G||_1 = 2 ||g||_1 holds exactly.
    """
    h = g.spacing
    k = round(1.0 / h)
    if k < 1 or abs(k * h - 1.0) > 1e-9:
        raise ValueError(f"periodize needs 1/spacing integral, got spacing={h}")
    r = (g.origin + 1.0) / h
    if abs(r - round(r)) > 1e-6:
        raise ValueError("periodize needs the grid origin on the [-1,1] lattice")
    # source cell i lands on target cells j = round(r) + i + n k for every integer n
    folded = np.bincount((round(r) + np.arange(g.cells)) % k, g.samples, minlength=k)
    return GridFunction(origin=-1.0, spacing=h, samples=np.tile(folded, 2))


def dilate(f: GridFunction, lam: float) -> GridFunction:
    """f_lambda(x) = f(lambda x); exact on the rescaled grid."""
    if not lam > 0:
        raise ValueError("dilation factor must be positive")
    return GridFunction(f.origin / lam, f.spacing / lam, f.samples)


# ---------------------------------------------------------------------------
# measure autocorrelation
# ---------------------------------------------------------------------------


class MeasureCorrelation:
    """Precomputed pieces of mu*mu for repeated interval evaluations.

    mu*mu([b,a]) = sum over atom pairs with x_i - x_j in [b,a]
                 + sum_i m_i [ Fd(x_i - b) - Fd(x_i - a) ]    (atom x, density y)
                 + sum_i m_i [ Fd(x_i + a) - Fd(x_i + b) ]    (density x, atom y)
                 + int_b^a (fd * fd)(t) dt
    with Fd the density antiderivative.
    """

    def __init__(self, mu: MixedMeasure):
        self.mu = mu
        locs, masses = mu.atom_locations, mu.atom_masses
        if len(locs):
            diff = locs[:, None] - locs[None, :]
            prod = masses[:, None] * masses[None, :]
            order = np.argsort(diff, axis=None)
            self._pair_locs = diff.ravel()[order]
            self._pair_masses = prod.ravel()[order]
        else:
            self._pair_locs = np.zeros(0)
            self._pair_masses = np.zeros(0)
        self._pair_cum = np.concatenate(([0.0], np.cumsum(self._pair_masses)))
        self.density_corr = autocorrelate(mu.density) if mu.density is not None else None

    def _atom_pair_mass(self, lo, hi) -> np.ndarray:
        i = np.searchsorted(self._pair_locs, lo, side="left")
        j = np.searchsorted(self._pair_locs, hi, side="right")
        return self._pair_cum[np.maximum(i, j)] - self._pair_cum[i]  # 0 when hi < lo

    def interval_mass(self, lo, hi) -> np.ndarray:
        """mu*mu([lo, hi]); 0 where hi < lo, the point mass mu*mu({lo}) where
        hi == lo.  A NaN end is refused (ValueError)."""
        lo, hi = _window(lo, hi)
        total = self._atom_pair_mass(lo, hi).astype(np.float64)
        mu = self.mu
        if mu.density is not None:
            d = mu.density
            for x, m in mu.atoms:  # no NaN end: lo and hi are checked, x is finite
                total = total + m * d._integral(x - hi, x - lo)
                total = total + m * d._integral(x + lo, x + hi)
            c = self.density_corr
            total = total + lattice_window_integral(c.values, c.spacing, lo, hi)
        return total if total.ndim else float(total)


def measure_correlation(mu: MixedMeasure) -> MeasureCorrelation:
    return MeasureCorrelation(mu)
