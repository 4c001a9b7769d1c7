"""Autocorrelation engine tests: grid, singular, periodization, measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autocorr import (
    BSExample,
    Correlation,
    GridFunction,
    Indicator,
    Gaussian,
    GaussianWeight,
    IntervalWeight,
    MixedMeasure,
    autocorrelate,
    autocorrelate_singular,
    dilate,
    periodize,
    sample,
)
from autocorr.correlate import (
    _carlson_rf,
    lattice_autocorrelation,
    lattice_min,
    lattice_value,
    lattice_window_integral,
    measure_correlation,
)

PI = math.pi


def random_grid(seed: int, n_max: int = 40) -> GridFunction:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max))
    return GridFunction(float(rng.uniform(-1, 0)), float(rng.uniform(0.02, 0.2)),
                        rng.uniform(0, 1, n))


class TestAutocorrelate:
    def test_indicator_triangle(self):
        f = sample(Indicator(0.5), cells=128)
        c = autocorrelate(f)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5):
            assert c.value(t) == pytest.approx(max(0.0, 1.0 - abs(t)), abs=1e-12)

    def test_gaussian_closed_form(self):
        f = sample(Gaussian(1.0), cells=4001)
        c = autocorrelate(f)
        assert c.value(0.0) == pytest.approx(math.sqrt(PI / 2), abs=1e-6)
        assert c.value(0.7) == pytest.approx(math.sqrt(PI / 2) * math.exp(-0.49 / 2),
                                             abs=1e-6)

    def test_single_cell_self_overlap(self):
        h, m = 0.25, 3.0
        f = GridFunction(0.0, h, [m / h])  # one cell of mass m
        c = autocorrelate(f)
        assert c.value(0.0) == pytest.approx(m * m / h, rel=1e-14)

    def test_method_agreement(self):
        # the FFT lattice against the O(n^2) direct sum h sum_j s_j s_{j+m},
        # with the exact zeros at t = +-(support length) at the ends
        for seed in range(5):
            rng = np.random.default_rng(seed)
            f = GridFunction(-1.0, 2.0 / 2 ** 14, rng.uniform(0, 1, 2 ** 14))
            direct = np.concatenate(([0.0], np.correlate(f.samples, f.samples, mode="full")
                                     * f.spacing, [0.0]))
            fft = autocorrelate(f).values
            assert np.max(np.abs(direct - fft)) <= 1e-9 * np.max(direct)

    def test_lattice_kernel_is_the_correlation(self):
        # the functionals read the kernel's array with no Correlation around
        # it, so the kernel itself must clamp the FFT's rounding noise at 0
        # (two far-apart unit cells leave exact zeros between the lags)
        ends = np.zeros(64)
        ends[0] = ends[-1] = 1.0
        for f in [GridFunction(0.0, 0.1, ends)] + [random_grid(seed) for seed in range(20)]:
            c = lattice_autocorrelation(f.samples) * f.spacing
            assert c.min() >= 0.0
            assert np.array_equal(c, autocorrelate(f).values)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_invariants(self, seed):
        f = random_grid(seed)
        c = autocorrelate(f)
        vals = c.values
        # evenness, peak at zero, Fubini mass
        assert np.array_equal(vals, vals[::-1])
        assert np.all(vals <= vals[vals.size // 2] + 1e-12)
        assert c.mass == pytest.approx(f.l1_norm ** 2, rel=1e-8)

    def test_integral_window_exact(self):
        f = sample(Indicator(0.5), cells=64)
        c = autocorrelate(f)
        # int over [-1/2, 1/2] of the unit triangle
        assert c.integral_window(-0.5, 0.5) == pytest.approx(0.75, abs=1e-14)
        assert c.integral_window(-2, 2) == pytest.approx(1.0, abs=1e-14)

    def test_integral_window_array_matches_scalar_loop(self, random_windows):
        rng = np.random.default_rng(12)
        for seed in range(10):
            c = autocorrelate(random_grid(seed))
            W = c.halfwidth
            lo, hi = random_windows(rng, (-W, W))
            scalar = np.array([c.integral_window(float(a), float(b))
                               for a, b in zip(lo, hi)])
            assert np.array_equal(c.integral_window(lo, hi), scalar)
            assert isinstance(c.integral_window(-0.5, 0.5), float)

    def test_lattice(self):
        for seed in range(5):
            f = random_grid(seed)
            c = autocorrelate(f)
            n, h = f.cells, f.spacing
            assert np.array_equal(c.lattice, (np.arange(2 * n + 1) - n) * h)
            assert c.values[0] == c.values[-1] == 0.0
            with pytest.raises(ValueError):
                c.values[0] = 1.0
        with pytest.raises(ValueError):
            Correlation(0.1, np.ones(4))  # no lattice has an even number of points

    def test_weighted_integral_of_one_is_window_integral(self):
        # the interval weight is 1 on [-1/2, 1/2]; a weight's own time side
        # is the one implementation, so both agree bit for bit
        for seed in range(10):
            c = autocorrelate(random_grid(seed))
            assert c.weighted_integral(IntervalWeight()) == c.integral_window(-0.5, 0.5)
            for a in (0.5, 2 * PI, 20.0):
                w = GaussianWeight(a)
                assert c.weighted_integral(w) == w.correlation_integral(c.values, c.spacing)

    def test_min_on(self):
        f = sample(Indicator(0.75), cells=96)
        c = autocorrelate(f)
        assert c.min_on(-0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert c.min_on(0.0, 2.0) == 0.0  # window exits the support

    @pytest.mark.parametrize("lo, hi", [(math.nan, 0.5), (-0.5, math.nan)])
    @pytest.mark.parametrize("path", ["1-D", "one-spacing", "per-row"])
    def test_nan_window_end_rejected(self, path, lo, hi):
        # a NaN end passed the hi < lo refusal: the 1-D and one-spacing paths
        # then failed in a float-to-int conversion, the per-row path with
        # IndexError
        c = autocorrelate(sample(Indicator(0.75), cells=96))
        stack = np.array([c.values, c.values])
        with pytest.raises(ValueError, match="NaN end"):
            if path == "1-D":
                c.min_on(lo, hi)
            elif path == "one-spacing":
                lattice_min(stack, c.spacing, lo, hi)
            else:
                lattice_min(stack, np.array([c.spacing, 2.0 * c.spacing]), lo, hi)


def _masked_lattice_min(c, spacing, lo, hi):
    """The reference: the window minimum with both ends read through the array
    branch and the interior picked by a mask over every lattice point."""
    W = c.size // 2 * spacing
    cands = lattice_value(c, spacing, np.array([lo, hi], dtype=np.float64)).tolist()
    if lo < -W or hi > W:
        cands.append(0.0)
    ts = (np.arange(c.size) - c.size // 2) * spacing
    inside = (ts >= lo) & (ts <= hi)
    if inside.any():
        cands.append(float(c[inside].min()))
    return min(cands)


@st.composite
def _lattice_and_window(draw):
    """A lattice of 1..40 cells and a window [lo, hi] with lo <= hi: inside the
    support, sticking out of it, ending on lattice points, or inside one cell."""
    n = draw(st.integers(1, 40))
    spacing = draw(st.floats(1e-3, 10.0))
    samples = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n)))
    c = lattice_autocorrelation(samples) * spacing
    ts = (np.arange(2 * n + 1) - n) * spacing
    kind = draw(st.sampled_from(["any", "lattice ends", "one cell"]))
    if kind == "lattice ends":
        i, j = sorted(draw(st.lists(st.integers(0, 2 * n), min_size=2, max_size=2)))
        return c, spacing, float(ts[i]), float(ts[j])
    if kind == "one cell":
        k = draw(st.integers(0, 2 * n - 1))
        a, b = sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                    min_size=2, max_size=2)))
        return c, spacing, float(ts[k] + a * spacing), float(ts[k] + b * spacing)
    u = sorted(draw(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2)))
    return c, spacing, u[0] * n * spacing, u[1] * n * spacing


class TestLatticeKernels:
    @settings(max_examples=300, deadline=None)
    @given(case=_lattice_and_window())
    def test_min_equals_masked_reference(self, case):
        c, spacing, lo, hi = case
        assert lattice_min(c, spacing, lo, hi).hex() == \
            _masked_lattice_min(c, spacing, lo, hi).hex()
        if hi > lo:
            with pytest.raises(ValueError, match="empty window"):
                lattice_min(c, spacing, hi, lo)

    @settings(max_examples=300, deadline=None)
    @given(case=_lattice_and_window(), beyond=st.floats(-3.0, 3.0))
    def test_value_scalar_branch_equals_array_branch(self, case, beyond):
        c, spacing, lo, hi = case
        ts = [lo, hi, beyond * c.size * spacing, 0.0, -0.0]
        array = lattice_value(c, spacing, np.array(ts))
        for t, v in zip(ts, array):
            scalar = lattice_value(c, spacing, t)
            assert isinstance(scalar, float)
            assert scalar.hex() == float(v).hex(), t
            assert lattice_value(c, spacing, np.float64(t)).hex() == scalar.hex()
            assert lattice_value(c, spacing, np.array(t)).hex() == scalar.hex()


def _bits(x) -> list:
    """The bit patterns of an array or a float: +0 and -0 differ."""
    return np.atleast_1d(np.asarray(x, dtype=np.float64)).view(np.int64).tolist()


class TestStackedLattices:
    """A (rows, n) stack on one spacing gives each row the bits of its 1-D call."""

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 20), n=st.integers(1, 40), spacing=st.floats(1e-3, 10.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_equal_their_own_calls(self, rows, n, spacing, seed):
        rng = np.random.default_rng(seed)
        stack = rng.uniform(0.0, 4.0, (rows, n)) ** 2
        stack[rng.uniform(size=stack.shape) < 0.2] = 0.0
        c = lattice_autocorrelation(stack) * spacing
        assert c.shape == (rows, 2 * n + 1)
        singles = [lattice_autocorrelation(row) * spacing for row in stack]
        assert _bits(c) == _bits(np.array(singles))
        for lo, hi in [(-0.5, 0.5), (0.0, 1.0), (-3.0 * n * spacing, 0.25), (0.3, 0.3)]:
            assert _bits(lattice_min(c, spacing, lo, hi)) == \
                [_bits(lattice_min(single, spacing, lo, hi))[0] for single in singles]
            assert _bits(lattice_value(c, spacing, hi)) == \
                [_bits(lattice_value(single, spacing, hi))[0] for single in singles]
        with pytest.raises(ValueError, match="empty window"):
            lattice_min(c, spacing, 1.0, 0.0)

    @pytest.mark.parametrize("t", [np.float32(0.3), np.int64(1), np.float32(-0.5),
                                   np.array([0.3, 0.5]), np.array([-0.55, 0.0, 2.0])],
                             ids=["float32", "int64", "float32-negative", "array", "array-3"])
    def test_value_at_numpy_t_reads_each_row(self, t):
        # a numpy scalar or array t used to index the stack's rows, not its
        # columns: a (40, 9) stack gave row 5's lattice at float32(0.3)
        rng = np.random.default_rng(11)
        spacing = 0.25
        c = lattice_autocorrelation(rng.uniform(0.0, 1.0, (40, 4))) * spacing
        value = lattice_value(c, spacing, t)
        assert value.shape == (40,) + np.shape(t)
        assert _bits(value) == _bits(np.array([lattice_value(row, spacing, t) for row in c]))
        lo, hi = np.float32(-0.5), np.float32(0.5)
        assert _bits(lattice_min(c, spacing, lo, hi)) == \
            [_bits(lattice_min(row, spacing, lo, hi))[0] for row in c]

    def test_stack_above_elision_size(self):
        # from 256 KiB numpy may reuse a temporary's buffer, which for the
        # product of the spectrum and its conjugate rounded otherwise: this
        # stack's spectrum is 3 x 8193 complex values, 384 KiB
        rng = np.random.default_rng(5)
        stack = rng.uniform(0.0, 1.0, (3, 8192))
        c = lattice_autocorrelation(stack) / 8192
        assert _bits(c) == _bits(np.array([lattice_autocorrelation(row) / 8192
                                           for row in stack]))


@st.composite
def _stack_of_spacings(draw):
    """A (rows, 2n + 1) stack of lattices and its spacing: one float for every
    row, or one spacing per row, each row correlated at its own spacing."""
    rows, n = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        spacing = draw(st.floats(1e-3, 10.0))
        row_spacings = [spacing] * rows
    else:
        spacing = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=rows, max_size=rows)))
        row_spacings = spacing.tolist()
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.0, 4.0, (rows, n)) ** 2
    samples[rng.uniform(size=samples.shape) < 0.2] = 0.0
    c = np.array([lattice_autocorrelation(s) * h for s, h in zip(samples, row_spacings)])
    return c, spacing, row_spacings


class TestOneSpacingPerRow:
    """Each kernel on a stack, at one spacing or one per row, gives each row
    the bits of its own 1-D call (``lattice_window_integral`` through
    ``_lattice_antiderivative``)."""

    @settings(max_examples=150, deadline=None)
    @given(case=_stack_of_spacings(), t=st.floats(-30.0, 30.0),
           window=st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=2))
    def test_rows_equal_their_own_calls(self, case, t, window):
        c, spacing, row_spacings = case
        lo, hi = sorted(window)
        ts = np.array([t, lo, hi, 0.0, -0.0])
        pairs = list(zip(c, row_spacings))
        for x in (t, np.float64(t), ts):
            assert _bits(lattice_value(c, spacing, x)) == \
                _bits(np.array([lattice_value(row, h, x) for row, h in pairs]))
        for a, b in [(lo, hi), (-0.5, 0.5), (0.0, 1.0), (hi, hi)]:
            assert _bits(lattice_min(c, spacing, a, b)) == \
                [_bits(lattice_min(row, h, a, b))[0] for row, h in pairs]
        los, his = np.array([lo, -0.5, hi, 0.0]), np.array([hi, 0.5, lo, 1.0])
        for a, b in [(lo, hi), (-0.5, 0.5), (hi, lo), (los, his), (los[:, None], his)]:
            got = lattice_window_integral(c, spacing, a, b)
            want = np.array([lattice_window_integral(row, h, a, b) for row, h in pairs])
            assert np.shape(got) == want.shape
            assert _bits(got) == _bits(want)
        with pytest.raises(ValueError, match="empty window"):
            lattice_min(c, spacing, 1.0, 0.0)

    def test_window_past_the_support_reads_the_last_cell(self):
        # rows whose lattice ends inside the window next to rows that reach
        # past it: every row clips the window to its own support
        spacing = np.array([0.01, 0.5, 2.0])
        c = np.array([lattice_autocorrelation(np.ones(4)) * h for h in spacing])
        got = lattice_window_integral(c, spacing, -0.5, 0.5)
        assert _bits(got) == [_bits(lattice_window_integral(row, h, -0.5, 0.5))[0]
                              for row, h in zip(c, spacing)]
        assert got[0] == pytest.approx((4 * 0.01) ** 2)  # the whole mass ||f||_1^2


class TestSingularBS:
    def test_floor_on_sweep(self):
        bs = BSExample()
        for t in np.arange(0.0, 1.0001, 0.1):
            v = autocorrelate_singular(bs, float(t))
            assert v >= PI / 4 - 1e-4

    def test_endpoint_value(self):
        # outer-arc overlap only; the substitution extends continuously to pi/4
        assert autocorrelate_singular(BSExample(), 1.0) == pytest.approx(PI / 4, abs=1e-9)

    def test_evenness(self):
        v1 = autocorrelate_singular(BSExample(), 0.3)
        v2 = autocorrelate_singular(BSExample(), -0.3)
        assert v1 == pytest.approx(v2, abs=1e-8)

    def test_divergence_at_zero(self):
        assert math.isinf(autocorrelate_singular(BSExample(), 0.0))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            autocorrelate_singular(BSExample(), 1.2)

    @pytest.mark.parametrize("t", [1e-3, 1 / 512, 0.01, 0.1, 0.25, 0.3, 0.5, 0.51,
                                   0.75, 0.9, 0.999])
    def test_closed_form_against_mpmath(self, t):
        # oracle: the theta-substituted integrand x = mid + rad sin(theta),
        # bounded, integrated at 30 digits piecewise between its jump points
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            tm = mpmath.mpf(t)
            a, b = mpmath.mpf(-0.5), mpmath.mpf(0.5) - tm
            mid, rad = (a + b) / 2, (b - a) / 2

            def m(x):
                return mpmath.mpf(0.75) if abs(x) <= 0.25 else mpmath.mpf(1)

            def g(theta):
                x = mid + rad * mpmath.sin(theta)
                return m(x) * m(x + tm) / (4 * mpmath.sqrt((0.5 - x) * (x + tm + 0.5)))

            jumps = sorted(mpmath.asin((xc - mid) / rad)
                           for xc in (-0.25, 0.25, -0.25 - tm, 0.25 - tm) if a < xc < b)
            ref = float(mpmath.quad(g, [-mpmath.pi / 2, *jumps, mpmath.pi / 2]))
        assert autocorrelate_singular(BSExample(), t) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_array_matches_scalar_loop(self):
        bs = BSExample()
        ts = np.linspace(-1.0, 1.0, 513)
        scalar = np.array([autocorrelate_singular(bs, float(t)) for t in ts])
        assert np.array_equal(autocorrelate_singular(bs, ts), scalar)
        assert autocorrelate_singular(bs, ts.reshape(27, 19)).shape == (27, 19)
        assert isinstance(autocorrelate_singular(bs, 0.3), float)

    def test_endpoint_exact(self):
        assert autocorrelate_singular(BSExample(), 1.0) == math.pi / 4
        assert autocorrelate_singular(BSExample(), -1.0) == math.pi / 4

    def test_subnormal_t_is_finite(self):
        # R_F(0, t, A^2) is evaluated at 2^100 scale; unscaled, scipy returns
        # inf once its second argument is subnormal
        v = autocorrelate_singular(BSExample(), 5e-324)
        assert math.isfinite(v)
        assert v > autocorrelate_singular(BSExample(), 1e-300)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            autocorrelate_singular(BSExample(), math.nan)
        with pytest.raises(ValueError):
            autocorrelate_singular(BSExample(), np.array([0.5, math.nan]))


def _rf_arguments():
    # seeded (x, y, z): x = 0 in a fifth of the rows, x/y up to 1e300 either
    # way, and the scaled subnormal row the BS correlation forms at t = 5e-324
    rng = np.random.default_rng(20)
    n = 400
    x = np.exp(rng.uniform(-690.0, 690.0, n)) * (rng.uniform(size=n) < 0.8)
    y = np.exp(rng.uniform(-690.0, 690.0, n))
    z = np.exp(rng.uniform(-3.0, 3.0, n))
    x = np.concatenate([x, [0.0, 0.0, 1.0, 0.0]])
    y = np.concatenate([y, [5e-324 * 2.0 ** 100, 1.0, 1.0, 1e-300]])
    z = np.concatenate([z, [0.25 * 2.0 ** 100, 1.0, 1.0, 1e300]])
    return x, y, z


class TestCarlsonRF:
    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        x, y, z = _rf_arguments()
        got = _carlson_rf(x, y, z)
        with mpmath.workdps(40):
            rel = [abs(mpmath.mpf(g) / mpmath.elliprf(a, b, c) - 1)
                   for a, b, c, g in zip(x, y, z, got)]
        assert float(max(rel)) <= 1e-15

    def test_scalar_matches_array(self):
        x, y, z = _rf_arguments()
        got = _carlson_rf(x, y, z)
        assert np.array_equal(got, [_carlson_rf(a, b, c) for a, b, c in zip(x, y, z)])
        assert isinstance(_carlson_rf(0.0, 1.0, 2.0), float)

    def test_special_values(self):
        assert _carlson_rf(1.0, 1.0, 1.0) == 1.0
        assert _carlson_rf(0.0, 0.0, 1.0) == math.inf
        assert math.isnan(_carlson_rf(math.nan, 1.0, 1.0))
        # R_F(0, 1, 1) = pi/2
        assert _carlson_rf(0.0, 1.0, 1.0) == pytest.approx(PI / 2, rel=4e-16)


class TestPeriodize:
    def test_indicator(self):
        g = sample(Indicator(0.5), cells=64)
        G = periodize(g)
        assert G.support == (-1.0, 1.0)
        assert np.allclose(G.samples, 1.0)
        cG = autocorrelate(G)
        for t in (0.0, 0.3, 0.7, 1.0):
            assert cG.value(t) == pytest.approx(2.0 - abs(t), abs=1e-12)
            assert cG.value(t) >= max(0.0, 1.0 - abs(t))

    def test_random_domination_and_mass(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.choice([8, 16, 32]))
            g = GridFunction(-0.5, 1.0 / n, rng.uniform(0, 1, n))
            G = periodize(g)
            assert G.l1_norm == pytest.approx(2 * g.l1_norm, rel=1e-10)
            cg, cG = autocorrelate(g), autocorrelate(G)
            ts = cg.lattice
            keep = (ts >= 0) & (ts <= 1)
            assert np.all(cG.value(ts[keep]) - cg.values[keep] >= -1e-9)

    def test_fold_matches_translate_loop(self):
        # supports wider than two periods, origins far from [-1, 1]
        rng = np.random.default_rng(17)
        for _ in range(40):
            k = int(rng.integers(1, 9))
            g = GridFunction(int(rng.integers(-40, 40)) / k - 1.0, 1.0 / k,
                             rng.uniform(0, 1, int(rng.integers(1, 7 * k))))
            want = np.zeros(2 * k)
            for n in range(-200, 200):
                # the translate by n moves source cell i onto target cell i + off
                off = round((g.origin + n + 1.0) * k)
                for i, v in enumerate(g.samples):
                    if 0 <= i + off < 2 * k:
                        want[i + off] += v
            G = periodize(g)
            assert G.origin == -1.0 and G.spacing == g.spacing
            assert np.allclose(G.samples, want, rtol=0, atol=1e-14)

    def test_incompatible_grid_rejected(self):
        with pytest.raises(ValueError):
            periodize(GridFunction(-0.5, 0.3, [1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            periodize(GridFunction(-0.55, 0.25, [1.0] * 4))


class TestDilateMollify:
    def test_dilation_identity(self):
        f = sample(Indicator(0.6), cells=240)
        lam = 0.8
        ca = autocorrelate(dilate(f, lam))
        cb = autocorrelate(f)
        # f_lam * f_lam (x) = (1/lam) (f*f)(lam x), exact on the shared lattice
        assert np.max(np.abs(ca.values - cb.values / lam)) <= 1e-9 * f.l1_norm ** 2


class TestMeasureAutocorrelate:
    def test_single_atom(self):
        mu = MixedMeasure(atoms=((0.0, 1.0),))
        for eps in (0.01, 0.5, 3.0):
            assert measure_correlation(mu).interval_mass(-eps, eps) == 1.0

    def test_interval_mass_array_matches_scalar_loop(self, random_windows):
        rng = np.random.default_rng(13)
        for seed in range(10):
            d = random_grid(seed)
            atoms = tuple(zip(rng.uniform(-1, 1, 3), rng.uniform(0, 1, 3)))
            mc = measure_correlation(MixedMeasure(atoms=atoms, density=d))
            lo, hi = random_windows(rng, (-2.0, 2.0))
            scalar = np.array([mc.interval_mass(float(a), float(b)) for a, b in zip(lo, hi)])
            assert np.array_equal(mc.interval_mass(lo, hi), scalar)

    def test_reversed_window_is_empty(self):
        d = sample(Indicator(0.4), cells=64)
        mc = measure_correlation(MixedMeasure(atoms=((0.0, 0.6), (0.3, 0.4)), density=d))
        assert mc.interval_mass(0.5, -0.5) == 0.0
        assert mc.interval_mass(0.3, 0.29) == 0.0  # atom pair at 0.3 lies in neither order
        lo = np.array([0.5, 0.3, 2.0, -0.1])
        hi = np.array([-0.5, -0.3, 1.0, -0.2])
        assert np.array_equal(mc.interval_mass(lo, hi), np.zeros(4))
        # a point window keeps its atom mass mu*mu({0}) = 0.6^2 + 0.4^2
        assert mc.interval_mass(0.0, 0.0) == pytest.approx(0.52, rel=1e-12)

    def test_two_atoms_sumset(self):
        mc = measure_correlation(MixedMeasure(atoms=((0.0, 1.0), (1.0, 1.0))))
        # pair masses 1, 2, 1 at -1, 0, 1 and nothing in between
        assert mc.interval_mass(np.array([-1.0, 0.0, 1.0]),
                                np.array([-1.0, 0.0, 1.0])).tolist() == [1.0, 2.0, 1.0]
        assert mc.interval_mass(-0.99, -0.01) == 0.0
        assert mc.interval_mass(-2.0, 2.0) == 4.0

    def test_lebesgue_differentiation(self):
        mu = MixedMeasure(density=sample(Indicator(0.5), cells=256))
        t = 0.3
        mc = measure_correlation(mu)
        vals = [mc.interval_mass(t - eps, t) / eps for eps in (0.1, 0.01, 0.001)]
        errs = [abs(v - 0.7) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_symmetry_and_nonnegativity(self):
        d = sample(Indicator(0.4), cells=64)
        mu = MixedMeasure(atoms=((0.3, 0.7),), density=d)
        a, b = 0.2, 0.9
        mc = measure_correlation(mu)
        left = mc.interval_mass(a, b)
        right = mc.interval_mass(-b, -a)
        assert left == pytest.approx(right, rel=1e-12)
        assert left >= 0
