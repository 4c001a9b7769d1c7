"""Inequality-ratio tests: closed-form examples, scale invariance, ceilings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autocorr import (
    BSExample,
    Gaussian,
    GaussianWeight,
    GridFunction,
    Indicator,
    IntervalWeight,
    InvariantViolation,
    ZeroFunctionError,
    autocorrelate_singular,
    mean_functional_fourier,
    q_gauss,
    q_mean,
    q_min_01,
    q_min_01_bs,
    q_min_12,
    sample,
)
from autocorr import functionals, verification
from autocorr.correlate import at_width, lattice_and_norms, lattice_autocorrelation
from autocorr.functionals import (
    MIN01_CEILING,
    gauss_ceiling,
    gauss_ratio,
    mean_ratio,
    min01_ratio,
    min12_ratio,
)

PI = math.pi


def random_fn(seed: int) -> GridFunction:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    return GridFunction(float(rng.uniform(-1.5, 0)), float(rng.uniform(0.02, 0.15)),
                        rng.uniform(0, 1, n))


class TestQMean:
    def test_indicator_half(self):
        f = sample(Indicator(0.5), cells=256)
        r = q_mean(f)
        assert r.numerator == pytest.approx(0.75, abs=1e-12)
        assert r.l1 == pytest.approx(1.0) and r.l2 == pytest.approx(1.0)
        assert r.value == pytest.approx(0.75, abs=1e-12)
        assert abs(r.fourier_numerator - 0.75) < 1e-6

    def test_wide_indicator(self):
        # int_{-1/2}^{1/2} (2A - |t|) dt = 2A - 1/4 at A = 5
        f = sample(Indicator(5.0), cells=2000)
        value = mean_ratio(lattice_and_norms(f.samples, f.spacing))[0]
        assert value == pytest.approx(9.75 / (10.0 * math.sqrt(10.0)), abs=1e-10)

    def test_scale_invariance(self):
        f = sample(Indicator(0.5), cells=64)
        base = q_mean(f).value
        for c in (0.1, 1.0, 7.0):
            assert q_mean(f.scaled(c)).value == pytest.approx(base, rel=1e-12)

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunctionError):
            q_mean(GridFunction(0.0, 1.0, [0.0, 0.0]))


class TestQGauss:
    def test_best_gaussian(self):
        a = 2 * PI
        f = sample(Gaussian(2 * a), cells=2001)
        r = q_gauss(f, a)
        assert r.value == pytest.approx(a ** 0.25 / (PI ** 0.25 * math.sqrt(2)), abs=1e-6)
        assert r.value == pytest.approx(0.8409, abs=1e-4)
        assert r.value <= 0.8773826753016617

    def test_indicator_dual_agreement(self):
        f = sample(Indicator(0.5), cells=512)
        r = q_gauss(f, 2 * PI)
        assert abs(r.numerator - r.fourier_numerator) <= 1e-6 * r.l1 * r.l2

    def test_ceiling_formula(self):
        assert gauss_ceiling(2 * PI) == pytest.approx((16.0 / 27.0) ** 0.25, rel=1e-14)


class TestFourierSide:
    def test_fourier_numerator_is_the_fourier_mean(self):
        # the reported Fourier side is mean_functional_fourier at tol 1e-6 l1 l2, as a float
        for f in (sample(Indicator(0.5), cells=128), random_fn(3)):
            r, g = q_mean(f), q_gauss(f, 2 * PI)
            tol = 1e-6 * (r.l1 * r.l2)
            four = mean_functional_fourier(f, IntervalWeight(), tol=tol)
            assert type(four) is float and r.fourier_numerator == four
            assert g.fourier_numerator == mean_functional_fourier(f, GaussianWeight(2 * PI),
                                                                  tol=tol)

    def test_term_limit_refused_before_the_dft(self, monkeypatch):
        # the coarse lattice's time side is its closed form; the Fourier side
        # would sum 3.8e8 terms up to its cutoff, and refuses them
        # before any DFT
        def no_fft(*args, **kwargs):
            raise AssertionError("a DFT was started")

        monkeypatch.setattr(np.fft, "fft", no_fft)
        f = sample(Gaussian(1.0), support=(-1000.0, 1000.0), cells=2048)
        with pytest.raises(ValueError, match="terms, more than 67108864: the cutoff Xi"):
            q_gauss(f, 1e10)


class TestQMin12:
    def test_indicator_three_quarters(self):
        f = sample(Indicator(0.75), cells=384)
        r = q_min_12(f)
        assert r.numerator == pytest.approx(1.0, abs=1e-12)  # 2A - 1/2
        assert r.value == pytest.approx(0.54433, abs=1e-5)

    def test_narrow_indicator_vanishes(self):
        f = sample(Indicator(0.25), cells=128)
        assert q_min_12(f).value == 0.0

    def test_min_below_mean(self):
        for seed in range(20):
            f = random_fn(seed)
            assert q_min_12(f).value <= q_mean(f).value + 1e-9

    def test_window_consistency_by_evenness(self):
        from autocorr import autocorrelate

        for seed in range(10):
            f = random_fn(seed)
            c = autocorrelate(f)
            assert c.min_on(-0.5, 0.5) == pytest.approx(c.min_on(0.0, 0.5), abs=1e-10)


class TestQMin01:
    def test_gaussian_b1(self):
        # min at t = 1: (pi/2)^(1/2) e^(-1/2) / pi  (the closed-form recipe)
        f = sample(Gaussian(1.0), cells=4001)
        r = q_min_01(f)
        expected = math.sqrt(PI / 2) * math.exp(-0.5) / PI
        assert r.value == pytest.approx(expected, abs=1e-6)
        assert r.value == pytest.approx(0.241971, abs=1e-5)

    def test_narrow_indicator_vanishes_at_one(self):
        f = sample(Indicator(0.5), cells=128)
        assert q_min_01(f).value == 0.0

    def test_bs_example(self):
        r = q_min_01_bs()
        assert r.value >= (PI / 4) / (11 * PI / 24) ** 2 - 1e-3
        assert r.value == pytest.approx(144.0 / (121.0 * PI), abs=1e-6)
        assert r.value >= 0.37  # exceeds the known floor
        assert r.method == "singular-quadrature"

    def test_bs_grid_minimum_is_at_t_one(self):
        # q_min_01_bs reads one 129-point grid; a 4097-point grid of (0, 1]
        # finds the same minimum, pi/4 at t = 1
        t = np.linspace(0.0, 1.0, 4097)[1:]
        vals = autocorrelate_singular(BSExample(), t)
        assert int(np.argmin(vals)) == t.size - 1
        assert vals.min() == PI / 4
        assert q_min_01_bs().numerator == PI / 4

    def test_bs_correlation_needs_no_quadrature(self):
        # that no QUADPACK is loaded is checked by test_api's import guard
        assert q_min_01_bs().value == 0.3788150711608748
        assert verification.criterion_5().passed

    def test_criterion_5_reads_the_ratio(self):
        # criterion 5 measures the numerator, the norm and the ratio of the
        # one q_min_01_bs it runs
        r = q_min_01_bs()
        measured = [c.measured for c in verification.criterion_5().checks]
        assert measured == [r.numerator, r.l1, r.value]


class TestCeilings:
    def test_random_functions_respect_all_ceilings(self):
        for seed in range(40):
            f = random_fn(seed)
            assert q_mean(f).value <= 0.8641 + 1e-4
            assert q_gauss(f, 2 * PI).value <= gauss_ceiling(2 * PI) + 1e-4
            assert q_min_12(f).value <= 0.829604 + 1e-4
            assert q_min_01(f).value <= MIN01_CEILING + 1e-4

    def test_error_estimates_nonnegative(self):
        f = sample(Indicator(0.5), cells=64)
        for r in (q_mean(f), q_gauss(f, 1.0), q_min_12(f), q_min_01(f)):
            assert r.error_estimate >= 0
            assert r.value * r.denominator == pytest.approx(r.numerator, rel=1e-12)


@st.composite
def _nonzero_cells(draw):
    """A grid function of 1..40 cells, zero or in [1e-3, 1e3], one of them nonzero."""
    n = draw(st.integers(1, 40))
    cell = st.floats(1e-3, 1e3)
    samples = np.array(draw(st.lists(st.one_of(st.just(0.0), cell), min_size=n, max_size=n)))
    samples[draw(st.integers(0, n - 1))] = draw(cell)
    return GridFunction(draw(st.floats(-2.0, 0.0)), draw(st.floats(0.01, 0.5)), samples)


def _fields(r) -> tuple:
    return r.value, r.numerator, r.l1, r.l2, r.error_estimate


class TestSharedLattice:
    # every core reads the one (c, h, l1, l2) tuple that its q_* builds
    @settings(max_examples=100, deadline=None)
    @given(f=_nonzero_cells(), a=st.sampled_from([0.5, 2 * PI, 20.0]))
    def test_cores_on_one_tuple_equal_q_fields(self, f, a):
        lat = lattice_and_norms(f.samples, f.spacing)
        # the weighted means' q_* add the Fourier side, which can only raise the error
        for core, q in ((mean_ratio(lat), q_mean(f)), (gauss_ratio(lat, a), q_gauss(f, a))):
            assert core[:4] == _fields(q)[:4] and core[5] is None
            assert q.error_estimate >= core[4]
        assert min12_ratio(lat) == _fields(q_min_12(f))
        assert min01_ratio(lat) == _fields(q_min_01(f))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 40), spacing=st.floats(1e-3, 10.0))
    def test_zero_cells_refused(self, n, spacing):
        with pytest.raises(ZeroFunctionError):
            lattice_and_norms(np.zeros(n), spacing)


def _bits(x) -> list:
    """The bit patterns of an array or a float: +0 and -0 differ."""
    return np.atleast_1d(np.asarray(x, dtype=np.float64)).view(np.int64).tolist()


_CORES = {"mean": mean_ratio, "gauss": lambda lat: gauss_ratio(lat, 2 * PI),
          "min12": min12_ratio, "min01": min01_ratio}


class TestStackedRows:
    """The tuple and the cores on a (rows, n) stack of functions on one cell
    width, as the search evaluates a round: every field of every row has the
    bits of the row's own 1-D call, and a refused stack raises what its first
    refused row raises alone."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 20), n=st.integers(1, 40), spacing=st.floats(0.01, 0.2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fields_equal_their_rows(self, rows, n, spacing, seed):
        rng = np.random.default_rng(seed)
        stack = rng.uniform(0.0, 4.0, (rows, n)) ** 2
        stack[:, rng.integers(0, n)] += 1.0  # no zero row
        lat = lattice_and_norms(stack, spacing)
        singles = [lattice_and_norms(row, spacing) for row in stack]
        for field in (0, 2, 3):
            assert _bits(lat[field]) == _bits(np.array([single[field] for single in singles]))
        for name, core in _CORES.items():
            fields = core(lat)
            alone = [core(single) for single in singles]
            for k in range(5):  # a window minimum's error is one constant for all rows
                assert _bits(np.broadcast_to(fields[k], rows)) == \
                    [_bits(one[k])[0] for one in alone], (name, k)

    def test_stack_above_elision_size(self):
        rng = np.random.default_rng(6)
        stack = rng.uniform(0.5, 1.0, (3, 8192))
        lat = lattice_and_norms(stack, 1.0 / 8192)
        for core in (min12_ratio, min01_ratio, mean_ratio):
            assert _bits(core(lat)[0]) == \
                [_bits(core(lattice_and_norms(row, 1.0 / 8192))[0])[0] for row in stack]

    @pytest.mark.parametrize("bad, error", [(0.0, ZeroFunctionError), (1e200, ValueError),
                                            (1e-170, ValueError)])
    def test_refused_row(self, bad, error):
        stack = np.ones((4, 3))
        stack[2] *= bad
        for first in (stack, stack[::-1].copy()):
            with np.errstate(all="ignore"), pytest.raises(error) as exc:
                lattice_and_norms(first, 1.0 / 3)
            with np.errstate(all="ignore"), pytest.raises(error) as alone:
                lattice_and_norms(first[2 if first is stack else 1], 1.0 / 3)
            assert type(exc.value) is type(alone.value)
            assert str(exc.value) == str(alone.value)

    def test_first_refused_row_decides(self):
        stack = np.array([[1.0, 1.0], [0.0, 0.0], [1e200, 1e200]])
        with np.errstate(all="ignore"), pytest.raises(ZeroFunctionError):
            lattice_and_norms(stack, 0.5)
        with np.errstate(all="ignore"), pytest.raises(ValueError) as exc:
            lattice_and_norms(stack[[0, 2, 1]], 0.5)
        assert not isinstance(exc.value, ZeroFunctionError)

    def test_ceiling_breach_in_one_row(self, monkeypatch):
        # a lowered ceiling between the two rows' ratios stands in for a
        # numerics bug in one row; the message names that row's ratio
        stack = np.array([[1.0, 3.0], [1.0, 1.0], [3.0, 1.0]])
        values = [min12_ratio(lattice_and_norms(row, 0.5))[0] for row in stack]
        assert values[0] == values[2] < values[1] == 0.5
        monkeypatch.setattr(functionals, "MIN12_CEILING", values[0] + 1e-3)
        with pytest.raises(InvariantViolation) as exc:
            min12_ratio(lattice_and_norms(stack, 0.5))
        assert f"min12 ratio {values[1]!r} " in str(exc.value)


@st.composite
def _profile_and_widths(draw):
    """A profile of 1..64 cells, some of them zero (at times all of them), and
    1..8 cell widths from 1e-300 to 1e300."""
    n = draw(st.integers(1, 64))
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    profile = np.array(draw(st.lists(cell, min_size=n, max_size=n)))
    exponents = draw(st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=8))
    return profile, [10.0 ** e for e in exponents]


def _outcome(call):
    """The bits of a tuple's fields, or a refusal's type and message."""
    try:
        return tuple(_bits(np.ravel(field)) for field in call())
    except ValueError as exc:
        return type(exc), str(exc)


class TestOneWidthStep:
    """Every lattice is the unit-width lattice times its cell width: a
    profile's one unit lattice put at a width, or at a block of widths one row
    each, is the tuple of ``lattice_and_norms`` at that width in every bit,
    and a refusal is its refusal, by type and message."""

    @settings(max_examples=100, deadline=None)
    @given(case=_profile_and_widths())
    def test_unit_lattice_at_each_width_is_the_tuple(self, case):
        profile, widths = case
        unit = lattice_autocorrelation(profile)
        alone = [_outcome(lambda h=h: lattice_and_norms(profile, h)) for h in widths]
        assert [_outcome(lambda h=h: at_width(unit, profile, h)) for h in widths] == alone
        block = _outcome(lambda: at_width(unit, profile, np.array(widths)))
        refused = [one for one in alone if isinstance(one[0], type)]
        if refused:  # the first refused width decides
            assert block == refused[0]
        else:  # the rows in order, each its width's own fields
            assert block == tuple(sum((one[k] for one in alone), []) for k in range(4))


def _ramp(scale: float, cells: int = 16) -> GridFunction:
    return GridFunction(-0.5, 1.0 / cells, scale * np.linspace(0.5, 1.0, cells))


_RATIOS = (q_mean, lambda f: q_gauss(f, 2 * PI), q_min_12, q_min_01)


class TestSampleScale:
    # the ratios are scale-invariant, but f*f must fit the float range: these
    # used to give NaN ratios (large), drifted ones or ZeroFunctionError (small);
    # the last has a finite f*f(0) = 1e299 but an l1 l2 that overflows, and its
    # window minima read 0.0
    @pytest.mark.parametrize("f", [
        _ramp(1e155), _ramp(1e160), _ramp(1e-160), _ramp(1e-162), _ramp(1e152, cells=1024),
        GridFunction(-0.5, 1.0 / 3, [1e200, 2e200, 3e200]),
        GridFunction(-0.5, 1.0 / 3, [1e-170, 2e-170, 3e-170]),
        GridFunction(-8e19, 1e19, np.full(16, 2.5e139)),
    ], ids=["ramp-1e155", "ramp-1e160", "ramp-1e-160", "ramp-1e-162", "ramp1024-1e152",
            "steps-1e200", "steps-1e-170", "wide-denominator"])
    def test_scale_outside_float_range_refused(self, f):
        calls = [lambda: lattice_and_norms(f.samples, f.spacing)]
        calls += [lambda q=q: q(f) for q in _RATIOS]
        for call in calls:  # with no numpy warning on the way (filterwarnings)
            with pytest.raises(ValueError) as exc:
                call()
            assert not isinstance(exc.value, ZeroFunctionError)

    # the values before the scale check, bit for bit
    @pytest.mark.parametrize("scale, expected", [
        (1.0, [0.7475582020561031, 0.7754505170371854, 0.47942415676272343, 0.0]),
        (1e150, [0.7475582020561035, 0.7754505170371858, 0.4794241567627236, 0.0]),
    ])
    def test_scale_in_range_unchanged(self, scale, expected):
        assert [q(_ramp(scale)).value for q in _RATIOS] == expected

    def test_nan_ratio_breaches_the_ceiling_check(self):
        with pytest.raises(InvariantViolation, match="not finite"):
            functionals._ceiling_check("mean", math.nan, functionals.MEAN_CEILING, 0.0)
