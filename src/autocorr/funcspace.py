"""Domain types for nonnegative test functions and finite measures.

The workhorse type is :class:`GridFunction`, a nonnegative piecewise-constant
function on a uniform grid (samples are cell-midpoint values, which for the
cell model are also the cell values); a step function with equal cells is a
GridFunction as it stands.  The analytic families (Gaussian, interval
indicator) are sampled onto grids.  The singular boundary-blowup
counterexample :class:`BSExample` is not: its correlation has a closed form.
:class:`MixedMeasure` represents a finite nonnegative measure as an atom list
plus an optional absolutely continuous part.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import numpy.polynomial.legendre

__all__ = [
    "GridFunction",
    "Gaussian",
    "Indicator",
    "BSExample",
    "AnalyticFamily",
    "MixedMeasure",
    "sample",
    "bs_l1",
]

#: Relative clamp size above which clamping negative samples emits a warning.
CLAMP_WARN_REL = 1e-12
_MAX_DFT = 2 ** 24  # cells that ``sample`` makes at most; the Fourier side's DFTs stay below


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]: the one node cache.

    It sits at the bottom of the import graph so that every module can share
    it.  The arrays are shared by every caller, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    return _readonly(x), _readonly(w)


_PIECE_BLOCK = 512       # pieces per call of f: 12288 points at n = 24, 98 kB an array


def _gauss_pieces(f, edges, n: int) -> np.ndarray:
    """n-point Gauss-Legendre integrals of f (on flat arrays) over each [edges[i], edges[i+1]]."""
    x, w = _leggauss(n)
    mid, rad = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    out = np.empty(mid.size)
    for s in range(0, mid.size, _PIECE_BLOCK):
        blk = slice(s, s + _PIECE_BLOCK)
        vals = f((mid[blk, None] + rad[blk, None] * x).ravel()).reshape(-1, n)
        out[blk] = (vals @ w) * rad[blk]
    return out


def _l1_norm(samples: np.ndarray, spacing):
    """||f||_1 of the cell model with these samples and cell width (a numpy
    float), or one per row of a (rows, n) stack or of a 1-D array of widths."""
    return spacing * samples.sum(axis=-1)


def _l2_norm(samples: np.ndarray, spacing):
    """||f||_2 as ``_l1_norm`` gives ||f||_1; ``np.vecdot`` sums each row as
    ``np.dot`` sums a 1-D array (einsum and matmul sum in another order)."""
    return np.sqrt(spacing * np.vecdot(samples, samples))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nonnegative piecewise-constant function on a uniform grid.

    Cell ``k`` covers ``[origin + k*h, origin + (k+1)*h)`` and holds the value
    ``samples[k]``; the sample is read as the midpoint value of the cell.
    Instances are immutable and safe to share across workers.
    """

    origin: float
    spacing: float
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("samples must be a nonempty 1-D array")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if not np.isfinite(self.origin):
            raise ValueError("origin must be finite")
        neg = s < 0
        if neg.any():
            worst = float(-s[neg].min())
            scale = float(np.max(np.abs(s)))
            if worst > CLAMP_WARN_REL * max(scale, 1e-300):
                warnings.warn(
                    f"clamped negative samples to 0 (worst {worst:.3e}, "
                    f"scale {scale:.3e})",
                    stacklevel=3,
                )
            s = np.where(neg, 0.0, s)
        object.__setattr__(self, "samples", _readonly(s))
        object.__setattr__(self, "origin", float(self.origin))
        object.__setattr__(self, "spacing", float(self.spacing))

    # -- geometry ----------------------------------------------------------

    @property
    def cells(self) -> int:
        return int(self.samples.size)

    @property
    def width(self) -> float:
        return self.cells * self.spacing

    @property
    def support(self) -> tuple[float, float]:
        return (self.origin, self.origin + self.width)

    # -- norms ---------------------------------------------------------------

    @property
    def l1_norm(self) -> float:
        return float(_l1_norm(self.samples, self.spacing))

    @property
    def l2_norm(self) -> float:
        return float(_l2_norm(self.samples, self.spacing))

    @property
    def total_variation(self) -> float:
        """Total variation of the cell model (edge jumps included)."""
        s = self.samples
        return float(s[0] + np.abs(np.diff(s)).sum() + s[-1])

    # -- integrals -----------------------------------------------------------

    def _antiderivative(self, x: np.ndarray) -> np.ndarray:
        """int_{-inf}^x of the cell model, elementwise."""
        n, h, s = self.cells, self.spacing, self.samples
        cum = np.concatenate(([0.0], np.cumsum(s) * h))  # values at cell boundaries
        t = np.clip((x - self.origin) / h, 0.0, float(n))
        k = np.minimum(t.astype(np.int64), n - 1)
        return np.where(t >= n, cum[-1], cum[k] + s[k] * (t - k) * h)

    def integral(self, lo, hi):
        """Exact integral of the cell model over ``[lo, hi]`` (0 when hi <= lo).

        Takes scalars or broadcastable arrays; scalars give a float.
        """
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        out = np.where(hi > lo, self._antiderivative(hi) - self._antiderivative(lo), 0.0)
        return out if out.ndim else float(out)

    # -- algebra ---------------------------------------------------------------

    def scaled(self, c: float) -> "GridFunction":
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        return GridFunction(self.origin, self.spacing, self.samples * c)


# ---------------------------------------------------------------------------
# analytic families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gaussian:
    """f(x) = exp(-b x^2), b > 0."""

    b: float

    def __post_init__(self):
        if not (np.isfinite(self.b) and self.b > 0):
            raise ValueError(f"Gaussian width parameter must be positive, got {self.b}")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.exp(-self.b * x * x)

    def default_support(self) -> tuple[float, float]:
        # tail mass of exp(-b x^2) beyond sqrt(25/b) is below 1e-10 relative
        s = math.sqrt(25.0 / self.b)
        return (-s, s)


@dataclass(frozen=True)
class Indicator:
    """f = 1_[-A, A], A > 0."""

    halfwidth: float

    def __post_init__(self):
        if not (np.isfinite(self.halfwidth) and self.halfwidth > 0):
            raise ValueError(f"Indicator halfwidth must be positive, got {self.halfwidth}")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return (np.abs(x) <= self.halfwidth).astype(np.float64)

    def default_support(self) -> tuple[float, float]:
        return (-self.halfwidth, self.halfwidth)


@dataclass(frozen=True)
class BSExample:
    """The singular compactly supported counterexample of the min problem.

    f(x) = 1_[-1/2,1/2](x)/sqrt(1-4x^2) - 1_[-1/4,1/4](x)/(4 sqrt(1-4x^2)),
    nonnegative on [-1/2, 1/2], zero outside, with inverse-square-root blowup
    at |x| = 1/2.  Not square integrable.  Its autocorrelation has a closed
    form through Carlson's R_F (see ``autocorrelate_singular`` in
    :mod:`autocorr.correlate`); its L1 norm 11 pi/24 is checked by
    Gauss-Legendre on three pieces (:func:`bs_l1`).  It is not sampled onto
    grids.
    """

    def multiplier(self, x) -> np.ndarray:
        """The bounded factor m(x) = 1 - (1/4) 1_[-1/4,1/4](x)."""
        x = np.asarray(x, dtype=np.float64)
        return np.where(np.abs(x) <= 0.25, 0.75, 1.0)


AnalyticFamily = Union[Gaussian, Indicator]


def bs_l1() -> float:
    """L1 norm of the BS example by singularity-absorbing quadrature.

    With x = sin(u)/2 the integrand becomes m(sin(u)/2)/2, bounded with two
    jump points at u = +-pi/6; 8-point Gauss-Legendre on each of the three
    pieces between -pi/2, -pi/6, pi/6 and pi/2 should give 11*pi/24.
    """
    edges = np.array([-math.pi / 2, -math.pi / 6, math.pi / 6, math.pi / 2])
    m = BSExample().multiplier
    return float(_gauss_pieces(lambda u: 0.5 * m(np.sin(u) / 2.0), edges, 8).sum())


def sample(family: AnalyticFamily, support: Optional[tuple[float, float]] = None,
           cells: int = 1024) -> GridFunction:
    """Midpoint-sample an analytic family onto a uniform grid."""
    if cells < 2:
        raise ValueError(f"cells must be >= 2, got {cells}")
    if cells > _MAX_DFT:  # before any allocation
        raise ValueError(f"cells must be at most {_MAX_DFT}, got {cells}")
    if support is None:
        support = family.default_support()
    lo, hi = float(support[0]), float(support[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise ValueError(f"support must have finite ends and a finite width, got {support}")
    if not hi > lo:
        raise ValueError(f"support must be a nonempty interval, got {support}")
    vals, h = _midpoint_samples(family, lo, hi, cells)
    return GridFunction(lo, h, vals)


def _midpoint_samples(family: AnalyticFamily, lo: float, hi: float,
                      cells: int) -> tuple[np.ndarray, float]:
    """The cell-midpoint values of ``family`` on [lo, hi] and the cell width.

    The arithmetic of :func:`sample`, without its validation or the
    :class:`GridFunction`; callers that skip ``sample`` check the values.
    """
    h = (hi - lo) / cells
    return np.asarray(family(lo + (np.arange(cells) + 0.5) * h), dtype=np.float64), h


# ---------------------------------------------------------------------------
# mixed measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MixedMeasure:
    """Finite nonnegative measure: atoms plus an absolutely continuous part.

    Canonical form: atom locations strictly increasing, duplicates merged,
    zero-mass atoms dropped.  Singular continuous parts are not representable.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    density: Optional[GridFunction] = None

    def __post_init__(self):
        canon: dict[float, float] = {}
        for loc, mass in self.atoms:
            loc, mass = float(loc), float(mass)
            if not (np.isfinite(loc) and np.isfinite(mass)):
                raise ValueError("atom locations and masses must be finite")
            if mass < 0:
                raise ValueError(f"atom mass must be nonnegative, got {mass}")
            canon[loc] = canon.get(loc, 0.0) + mass
        merged = tuple(sorted((loc, m) for loc, m in canon.items() if m > 0.0))
        object.__setattr__(self, "atoms", merged)

    @property
    def atom_locations(self) -> np.ndarray:
        return np.array([a[0] for a in self.atoms], dtype=np.float64)

    @property
    def atom_masses(self) -> np.ndarray:
        return np.array([a[1] for a in self.atoms], dtype=np.float64)

    @property
    def total_variation(self) -> float:
        tv = float(self.atom_masses.sum()) if self.atoms else 0.0
        if self.density is not None:
            tv += self.density.l1_norm
        return tv
