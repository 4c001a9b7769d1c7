"""Numerical toolkit for sharp autocorrelation inequalities on the real line.

Computes the explicit constants of the mean / Gaussian-mean / window-minimum
autocorrelation inequalities, evaluates the inequality ratios on test
functions and measures through both the time side and the Fourier side,
searches parametrized families for lower-bound examples, and desk-checks the
computable residues of the qualitative arguments (dual positive-mass bound,
spectral inequality at the sinc minimizer, the two-atom non-solution).
"""

__version__ = "0.1.0"

from .constants import (
    BoundReport,
    SincRoots,
    gaussian_mean_lower,
    hy_coefficient,
    indicator_min_lower,
    mean_upper_constant,
    mean_upper_sweep,
    min_l1_constant,
    min_mixed_constant,
    minimize_over_p,
    sinc_min_roots,
)
from .correlate import (
    Correlation,
    ZeroFunctionError,
    autocorrelate,
    autocorrelate_singular,
    dilate,
    periodize,
)
from .dualcheck import (
    BetaPowerBump,
    CosineBump,
    StandardBump,
    case2bb_residual,
    case2bb_scan,
    dual_mass_report,
    nu_spectrum_check,
)
from .funcspace import (
    AnalyticFamily,
    BSExample,
    Gaussian,
    GridFunction,
    Indicator,
    MixedMeasure,
    bs_l1,
    sample,
)
from .functionals import (
    InvariantViolation,
    RatioResult,
    q_gauss,
    q_mean,
    q_min_01,
    q_min_01_bs,
    q_min_12,
)
from .search import SearchRecord, baseline, search
from .spectral import (
    GaussianWeight,
    IntervalWeight,
    MomentResult,
    fourier_measure,
    mean_functional_fourier,
    weight_lp_moment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
