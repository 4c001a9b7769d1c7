"""Fourier-side tests: transforms, sinc-power moments, weighted means."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autocorr import (
    Gaussian,
    GaussianWeight,
    GridFunction,
    Indicator,
    IntervalWeight,
    MixedMeasure,
    fourier_measure,
    mean_functional_fourier,
    q_mean,
    sample,
    weight_lp_moment,
)
from autocorr.spectral import INTERVAL_MOMENT_P_MAX, MOMENT_TOL

PI = math.pi

# golden value of int |sinc|^pi, frozen from the accelerated evaluation and
# cross-checked below against an independent brute-force quadrature
I_SINC_PI = 0.7510464312546705


def fourier(f, xi):
    """The transform of a grid function's step model, as a density measure."""
    return fourier_measure(MixedMeasure(density=f), xi)


class TestFourier:
    def test_sinc_zero_at_integers(self):
        f = sample(Indicator(0.5), cells=256)
        assert abs(fourier(f, 1.0)) < 1e-8
        assert abs(fourier(f, 2.0)) < 1e-8

    def test_zero_frequency_is_l1(self):
        f = sample(Gaussian(2.0), cells=501)
        assert fourier(f, 0.0) == pytest.approx(f.l1_norm, abs=1e-12)

    def test_gaussian_self_transform(self):
        f = sample(Gaussian(PI), cells=16001)
        assert abs(fourier(f, 1.0) - math.exp(-PI)) < 1e-6

    def test_bounded_by_l1(self):
        f = sample(Gaussian(0.5), cells=701)
        xis = np.linspace(-30, 30, 301)
        vals = np.abs(fourier(f, xis))
        assert np.all(vals <= f.l1_norm + 1e-12)


class TestFourierMeasure:
    def test_unit_atom(self):
        mu = MixedMeasure(atoms=((0.0, 1.0),))
        for xi in (0.0, 0.37, 5.0):
            assert fourier_measure(mu, xi) == pytest.approx(1.0)

    def test_symmetric_pair_is_cosine(self):
        mu = MixedMeasure(atoms=((-0.5, 0.5), (0.5, 0.5)))
        for xi in (0.0, 0.3, 1.7):
            assert fourier_measure(mu, xi) == pytest.approx(math.cos(PI * xi), abs=1e-12)

    def test_linearity_of_parts(self):
        d = sample(Indicator(0.5), cells=128)
        atoms = ((-0.5, 0.25), (0.5, 0.25))
        mu = MixedMeasure(atoms=atoms, density=d)
        xi = 0.713
        parts = (fourier_measure(MixedMeasure(atoms=atoms), xi)
                 + fourier_measure(MixedMeasure(density=d), xi))
        assert fourier_measure(mu, xi) == pytest.approx(parts, abs=1e-10)

    @pytest.mark.parametrize("parts", ["atoms", "density", "both"])
    def test_keeps_the_shape_of_xi(self, parts):
        atoms = ((-0.5, 0.25), (0.3, 0.25)) if parts != "density" else ()
        density = sample(Indicator(0.5), cells=96) if parts != "atoms" else None
        mu = MixedMeasure(atoms=atoms, density=density)
        xis = np.linspace(-7.0, 7.0, 24).reshape(2, 3, 4)
        got = fourier_measure(mu, xis)
        assert got.shape == (2, 3, 4)
        flat = fourier_measure(mu, xis.ravel())
        assert np.array_equal(got.ravel(), flat)
        assert got[1, 2, 3] == pytest.approx(fourier_measure(mu, float(xis[1, 2, 3])), abs=1e-15)

    def test_density_is_its_step_function(self):
        # eight cells of the indicator of [-1/2, 1/2] are that indicator, whose
        # transform is sinc; the bare midpoint sum gave 0.372557 at xi = 0.7
        # and -0.105072 at xi = 3.3
        f = sample(Indicator(0.5), cells=8)
        xis = np.array([0.0, 0.3, 0.7, 1.5, 3.3, 11.2, -5.45])
        assert np.max(np.abs(fourier(f, xis) - np.sinc(xis))) <= 1e-15

    def test_bounded_by_tv(self):
        d = sample(Indicator(0.3), cells=64)
        mu = MixedMeasure(atoms=((0.0, 0.4),), density=d)
        xis = np.linspace(-20, 20, 101)
        assert np.all(np.abs(fourier_measure(mu, xis)) <= mu.total_variation + 1e-12)


class TestWeightLpMoment:
    def test_interval_p2_is_plancherel(self):
        m = weight_lp_moment(IntervalWeight(), 2.0)
        assert abs(m.value - 1.0) <= 1e-9
        assert m.error_bound < 1e-9

    def test_gaussian_normalization(self):
        m = weight_lp_moment(GaussianWeight(2 * PI), 2.0)
        assert abs(m.value - 1.0) <= 1e-10

    def test_interval_pi_dual_quadrature(self):
        # independent oracle: brute half-period summation to T = 2000 with the
        # crude (pi T)^(1-p) tail majorant (feasible because pi - 1 > 2)
        integrate = pytest.importorskip("scipy.integrate")
        p = PI
        brute = 0.0
        for k in range(2000):
            v, _ = integrate.quad(
                lambda x: abs(math.sin(PI * x) / (PI * x)) ** p if x else 1.0,
                k, k + 1, epsabs=1e-13, epsrel=1e-12, limit=100)
            brute += v
        brute *= 2.0
        tail = 2.0 * PI ** -p * 2000.0 ** (1 - p) / (p - 1)
        m = weight_lp_moment(IntervalWeight(), p)
        assert abs(m.value - brute) <= 1e-8 + tail
        assert m.value == pytest.approx(I_SINC_PI, abs=5e-9)

    # I(2) = 1 (Plancherel) and I(4) = 2/3 exactly; the other two from 25-digit
    # mpmath on the same head / Hurwitz-zeta split
    @pytest.mark.parametrize("p, exact", [(2.0, 1.0), (4.0, 2.0 / 3.0),
                                          (2.407, 0.8733735107886480028),
                                          (PI, 0.7510464312546704505)])
    def test_interval_oracle(self, p, exact):
        m = weight_lp_moment(IntervalWeight(), p)
        assert abs(m.value - exact) <= 5e-15 * exact
        assert abs(m.value - exact) <= m.error_bound

    def test_uncertified_moment_rejected(self):
        # at p = 600 the fixed rule's error bound exceeds MOMENT_TOL, and the
        # rule also overflows, which must still end in this error, not a NaN value
        with np.errstate(all="ignore"), pytest.raises(RuntimeError):
            weight_lp_moment(IntervalWeight(), 600.0)

    def test_certified_at_p_max(self):
        # the CLI accepts p up to this constant, so MOMENT_TOL must hold there
        m = weight_lp_moment(IntervalWeight(), INTERVAL_MOMENT_P_MAX)
        assert 0.0 < m.error_bound <= MOMENT_TOL == 1e-9

    def test_divergent_p_rejected(self):
        with pytest.raises(ValueError):
            weight_lp_moment(IntervalWeight(), 1.0)
        with pytest.raises(ValueError):
            weight_lp_moment(GaussianWeight(1.0), 0.5)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    @pytest.mark.parametrize("w", [IntervalWeight(), GaussianWeight(1.0)],
                             ids=["interval", "gaussian"])
    def test_nonfinite_p_rejected(self, w, p):
        # NaN passed the old p <= 1 and p < 1 refusals and inf is no moment
        # order: the interval weight's Gauss-Jacobi nodes raised numpy's
        # LinAlgError, and the Gaussian closed form gave NaN and 0
        with pytest.raises(ValueError, match="p < inf"):
            weight_lp_moment(w, p)

    def test_monotone_decreasing_in_p(self):
        ps = np.arange(2.0, 10.0001, 0.1)
        vals = [weight_lp_moment(IntervalWeight(), float(p)).value for p in ps]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("a, b", [(3.0, 3.0), (3.407, 1.0), (44.5, 44.5), (86.0, 86.0),
                                      (101.0, 101.0), (301.0, 301.0), (301.0, 1.0)])
    def test_beta_within_its_rounding(self, a, b):
        mpmath = pytest.importorskip("mpmath")
        from autocorr.spectral import _beta

        value, rel = _beta(a, b)
        with mpmath.workdps(40):
            assert float(abs(value / mpmath.beta(a, b) - 1)) <= rel

    @pytest.mark.parametrize("p", [1.5, 2.0, 50.0, 100.0, 300.0])
    def test_rounding_never_below_1e14(self, p):
        from autocorr.spectral import _interval_lp_moment

        value, bound = _interval_lp_moment(p)
        assert bound >= 1e-14 * value


class TestHurwitzZeta:
    def test_against_mpmath(self):
        # mpmath's Hurwitz zeta needs the extra digits: at 40 it errs by 2e-12
        # near s = 22
        mpmath = pytest.importorskip("mpmath")
        from autocorr.spectral import _hurwitz_zeta

        rng = np.random.default_rng(31)
        ss = np.concatenate([1.0 + np.exp(rng.uniform(math.log(1e-9), math.log(319.0), 300)),
                             [1.0 + 2.0 ** -52, 2.0, 3.0, 22.0, 190.0, 320.0]])
        worst = 0.0
        with mpmath.workdps(80):
            for s in ss:
                ref = mpmath.zeta(float(s), 50)
                if ref > mpmath.mpf(2.0) ** -1022:
                    worst = max(worst, float(abs(_hurwitz_zeta(float(s), 50) / ref - 1)))
        assert worst <= 2e-16

    def test_underflow_is_zero(self):
        from autocorr.spectral import _hurwitz_zeta

        assert [_hurwitz_zeta(s, 50) for s in (320.0, 600.0, 1e5, 1e300)] == [0.0] * 4


class TestWeightTails:
    @pytest.mark.parametrize("w", [IntervalWeight(), GaussianWeight(2 * PI), GaussianWeight(0.5)],
                             ids=["interval", "gauss-2pi", "gauss-0.5"])
    def test_cutoff_meets_half_tolerance(self, w):
        # mean_functional_fourier truncates at cutoff(f, tol), leaving at most tol/2
        f = sample(Gaussian(3.0), cells=256)
        for tol in (1e-6, 1e-9):
            hi = w.cutoff(f, tol)
            assert w.tail_bound(f, hi) <= 0.5 * tol * (1 + 1e-12)
            assert w.tail_bound(f, 2 * hi) < w.tail_bound(f, hi)

    def test_gaussian_cutoff_sums_the_cells_once(self, monkeypatch):
        # the cutoff and the tail bound read ||f||_1, cached on f: the cells
        # are summed once however often either is called
        import autocorr.funcspace as funcspace

        calls, l1_norm = [], funcspace._l1_norm
        monkeypatch.setattr(funcspace, "_l1_norm", lambda *args: calls.append(1) or l1_norm(*args))
        f, w = sample(Gaussian(3.0), cells=256), GaussianWeight(200.0)
        hi = w.cutoff(f, 1e-9)
        assert hi > 10 and len(calls) == 1  # many steps, one sum
        assert w.cutoff(f, 1e-12) > hi and len(calls) == 1
        assert f.l1_norm == float(l1_norm(f.samples, f.spacing))

    @pytest.mark.parametrize("a", [0.5, 2 * PI, 200.0, 1e8, 1e12])
    def test_gaussian_cutoff_is_the_closed_form(self, a):
        # c Xi^2 = log(||f||_1^2 / (c tol/2)) leaves tail_bound = (tol/2)/Xi;
        # at a = 1e8 the loop's cap near 1e4 left 1.66e7 times tol/2
        f = sample(Gaussian(1.0), cells=65536)
        w = GaussianWeight(a)
        for rel in (1e-6, 1e-8, 1e-12):
            tol = rel * f.l1_norm * f.l2_norm
            hi = w.cutoff(f, tol)
            assert hi >= 1.0 and w.tail_bound(f, hi) <= 0.5 * tol
            if hi > 1.0:
                assert w.tail_bound(f, hi) == pytest.approx(0.5 * tol / hi, rel=1e-9)
        if a == 1e8:
            assert w.cutoff(f, 1e-8 * f.l1_norm * f.l2_norm) > 1.5e4

    def test_cutoffs_have_no_cap(self):
        # the interval weight's cutoff was capped at 2e5, short of tol/2 here
        f = sample(Gaussian(3.0), cells=256)
        w = IntervalWeight()
        hi = w.cutoff(f, 1e-16)
        assert hi > 2e5 and w.tail_bound(f, hi) <= 0.5e-16 * (1 + 1e-12)

    def test_gaussian_cutoff_at_the_ends(self):
        # no tail: the zero function, and a subnormal a (c = inf); a = 1e308
        # needs a cutoff past the float range, which is inf, not an error
        zero = GridFunction(0.0, 0.1, np.zeros(4))
        f = sample(Gaussian(1.0), cells=64)
        assert GaussianWeight(2 * PI).cutoff(zero, 1e-9) == 1.0
        assert GaussianWeight(5e-324).cutoff(f, 1e-9) == 1.0
        assert GaussianWeight(1e308).cutoff(f, 1e-8) == math.inf


def _mp_time_side(c, h, a, dps=40):
    """int (f*f) w on the piecewise-linear lattice c at spacing h, in mpmath:
    per cell [p, q] of the nonnegative half, with c = alpha + beta t there,
    alpha (erf(sqrt(a) q) - erf(sqrt(a) p))/2 + beta (e^(-a p^2) - e^(-a q^2))
    / (2 sqrt(a pi)), doubled as c and w are even."""
    mpmath = pytest.importorskip("mpmath")
    n = c.size // 2
    with mpmath.workdps(dps):
        am, hm = mpmath.mpf(a), mpmath.mpf(h)
        ra, total = mpmath.sqrt(am), mpmath.mpf(0)
        for k in range(n):
            p, q = k * hm, (k + 1) * hm
            c0, c1 = mpmath.mpf(c[n + k]), mpmath.mpf(c[n + k + 1])
            beta = (c1 - c0) / hm
            total += ((c0 - beta * p) * (mpmath.erf(ra * q) - mpmath.erf(ra * p)) / 2
                      + beta * (mpmath.exp(-am * p * p) - mpmath.exp(-am * q * q))
                      / (2 * mpmath.sqrt(am * mpmath.pi)))
        return float(2 * total)


def _gauss_time_cases():
    """(label, lattice values, spacing, a, ||f||_1) of the Gaussian time side."""
    from autocorr.correlate import lattice_autocorrelation
    from autocorr.search import _SCANS
    from autocorr.verification import random_grid_function

    cases = []
    for b in (4 * PI, 1e-4):    # the search geometry at a = 2 pi; h = 0.98
        s, h = _SCANS["gaussian"].profile, _SCANS["gaussian"].spacing(math.sqrt(b) ** 2)
        cases.append((f"gaussian-b={b:g}", lattice_autocorrelation(s) * h, h, 2 * PI,
                      h * float(s.sum())))
    rng = np.random.default_rng(61)
    for i in range(9):          # criterion-6-like random functions
        f = random_grid_function(rng)
        cases.append((f"random-{i}", lattice_autocorrelation(f.samples) * f.spacing,
                      f.spacing, (0.5, 2 * PI, 20.0)[i % 3], f.l1_norm))
    return cases


_GAUSS_CASES = _gauss_time_cases()


class TestGaussianTimeSide:
    @pytest.mark.parametrize("label, c, h, a, l1", _GAUSS_CASES,
                             ids=[case[0] for case in _GAUSS_CASES])
    def test_against_erf_closed_form(self, label, c, h, a, l1):
        # the lattice is even, bit for bit, so its nonnegative half doubled
        # is the whole integral
        assert np.array_equal(c, c[::-1])
        got = GaussianWeight(a).correlation_integral(c, h)
        assert abs(got - _mp_time_side(c, h, a, dps=30)) <= 1e-14 * l1 * l1

    @pytest.mark.parametrize("label, c, h, a, l1", _GAUSS_CASES,
                             ids=[case[0] for case in _GAUSS_CASES])
    def test_more_nodes_move_it_within_the_remainder(self, monkeypatch, label, c, h, a, l1):
        from autocorr import spectral

        w = GaussianWeight(a)
        k = spectral._gauss_node_count(h * math.sqrt(2 * a))
        value = w.correlation_integral(c, h)
        monkeypatch.setattr(spectral, "_gauss_node_count", lambda s: k + 4)
        finer = w.correlation_integral(c, h)
        cells = min(c.size // 2, math.ceil(math.sqrt(46 / a) / h))
        remainder = 2.0 ** -58 * cells * h * math.sqrt(a / PI) * float(c.max())
        rounding = 16 * np.finfo(float).eps * value
        assert abs(value - finer) <= remainder + rounding

    def test_node_counts(self):
        from autocorr.spectral import _gauss_node_count

        # b = 1e6, the search geometry b = 4 pi, and b = 1e-4 (h = 0.98), at a = 2 pi
        for b, k in ((1e6, 3), (4 * PI, 4), (1e-4, 16)):
            h = 10 / math.sqrt(b) / 1024
            assert _gauss_node_count(h * math.sqrt(4 * PI)) == k
        counts = [_gauss_node_count(s) for s in np.geomspace(1e-8, 19.9, 60)]
        assert counts == sorted(counts) and counts[-1] <= 64

    def test_coarse_lattice_is_the_closed_form(self):
        # past the 64-node limit h sqrt(2a) = 19.94 the reach lies inside the
        # first cell, and the integral has a two-term closed form: 40 random
        # lattices, h sqrt(2a) up to 2e4 and a from 1e-2 to 1e308, the first
        # just past the limit at a = 1e-2 and the second at a = 1e308
        from autocorr.correlate import lattice_autocorrelation
        from autocorr.spectral import _node_limits

        rng = np.random.default_rng(41)
        edge = float(_node_limits()[-1])
        for i in range(40):
            s = edge * math.exp(rng.uniform(0.0, math.log(2e4 / edge))) if i else edge * 1.0001
            a = 10.0 ** rng.uniform(-2.0, 308.0) if i > 1 else (1e-2, 1e308)[i]
            h = s / (math.sqrt(2.0) * math.sqrt(a))
            c = lattice_autocorrelation(rng.uniform(0.0, 2.0, int(rng.integers(1, 9))) ** 2) * h
            got = GaussianWeight(a).correlation_integral(c, h)
            assert abs(got - _mp_time_side(c, h, a)) <= 1e-15 * float(c.max()), (s, a)

    def test_gauss_legendre_error_is_measured(self):
        # numpy's rounded Gauss-Legendre weights: the quadrature, proven below
        # 2^-54 c_0 with exact nodes, errs by up to 3.8e-14 c_0 near
        # h sqrt(2a) = 18.8 (worst of 568 widths spread over each node count's
        # range); this holds it under 5e-14 c_0 from h sqrt(2a) = 1e-6 to 19.94
        from autocorr.correlate import lattice_autocorrelation
        from autocorr.spectral import _node_limits

        limits = np.concatenate([[1e-6], _node_limits()[_node_limits() > 1e-6]])
        ss = np.unique(np.concatenate([np.geomspace(lo, hi, 3)
                                       for lo, hi in zip(limits[:-1], limits[1:])]))
        a, worst = 2 * PI, 0.0
        for s in ss.tolist():
            h = s / math.sqrt(2 * a)
            for f in (np.ones(1), np.array([1.0, 0.2, 3.0, 0.5])):
                c = lattice_autocorrelation(f) * h
                err = abs(GaussianWeight(a).correlation_integral(c, h) - _mp_time_side(c, h, a))
                worst = max(worst, err / float(c.max()))
        assert worst <= 5e-14

    def test_node_counts_are_the_per_k_rule(self):
        # the limits stand for the rule that tried k = 1, 2, ... in turn: at
        # every limit, a few ulps either side and across the whole range of s
        from autocorr.spectral import _gauss_node_count, _meets_rule, _node_limits

        def first_k(s):
            return next((k for k in range(1, 65) if _meets_rule(k, s)), None)

        limits = _node_limits().tolist()
        assert limits == sorted(set(limits)) and 19.94 < limits[-1] < 19.95
        probes = [s + k * math.ulp(s) for s in limits for k in range(-3, 4)]
        probes += np.geomspace(1e-20, 25.0, 2001).tolist()
        for s in probes:
            # 65 past the last limit: the closed form, no nodes
            assert _gauss_node_count(s) == (65 if first_k(s) is None else first_k(s)), s

    def test_either_side_of_the_node_limit(self):
        # 64 nodes just below h sqrt(2a) = 19.94 and the closed form just
        # above it give the integral to the measured quadrature error
        from autocorr.correlate import lattice_autocorrelation
        from autocorr.spectral import _gauss_node_count, _node_limits

        a, edge = 2 * PI, float(_node_limits()[-1])
        for s, k in ((edge, 64), (math.nextafter(edge, math.inf), 65), (edge * 1.01, 65)):
            h = s / (math.sqrt(2.0) * math.sqrt(a))
            assert _gauss_node_count(h * math.sqrt(2.0) * math.sqrt(a)) == k
            c = lattice_autocorrelation(np.array([1.0, 0.3, 2.0])) * h
            got = GaussianWeight(a).correlation_integral(c, h)
            assert abs(got - _mp_time_side(c, h, a)) <= 5e-14 * float(c.max())


def _bits(x) -> list:
    return np.atleast_1d(np.asarray(x, dtype=np.float64)).view(np.int64).tolist()


def _one_lattice_time_side(values, h, a):
    """The Gaussian time side as each lattice had it alone: the first node
    count that meets the rule, its own exp table over its cells and its own
    einsum (a one-cell table sums in another order than a wider one); past
    the 64-node limit, the first cell's closed form with erf and exp, which
    round to 1 and 0 there."""
    from autocorr.spectral import _meets_rule

    n = values.size // 2
    s = h * math.sqrt(2.0) * math.sqrt(a)
    k = next((k for k in range(1, 65) if _meets_rule(k, s)), None)
    if k is None:
        x, c0, c1 = h * math.sqrt(a), float(values[n]), float(values[n + 1])
        return (c0 * math.erf(x) - (c0 - c1) * -math.expm1(-x * x)
                / (h * math.sqrt(math.pi) * math.sqrt(a)))
    cells = min(n, math.ceil(GaussianWeight(a).reach / h))
    x, wgt = np.polynomial.legendre.leggauss(k)
    u = 0.5 * (1.0 + x)
    t = h * np.add.outer(u, np.arange(cells))
    pieces = np.einsum("pk,kj->pj", np.stack((wgt * (1.0 - u), wgt * u)), np.exp(-a * t * t))
    omega = np.append(pieces[0], 0.0) + np.append(0.0, pieces[1])
    return h * math.sqrt(a / math.pi) * float(values[n:n + cells + 1] @ omega)


class TestStackedWeights:
    """Both weights on a (rows, 2n + 1) stack, at one spacing or one per row,
    give each row the bits of its own 1-D call."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 12), n=st.integers(1, 40),
           a=st.sampled_from([0.5, 2 * PI, 1e4, 1e300]),
           log_s=st.lists(st.floats(-8.0, math.log(2e4)), min_size=12, max_size=12),
           shared=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_equal_their_own_calls(self, rows, n, a, log_s, shared, seed):
        # s = h sqrt(2a) from 3e-4 to 19.94 spans one to 64 Gauss nodes, and
        # past 19.94 up to 2e4 a row is the closed form of its first cell; at
        # a = 1e4 the widest cells exceed the reach, one-cell rows
        from autocorr.correlate import lattice_autocorrelation

        hs = np.exp(np.array(log_s[:rows])) / (math.sqrt(2.0) * math.sqrt(a))
        if shared:
            hs[:] = hs[0]
        rng = np.random.default_rng(seed)
        samples = rng.uniform(0.0, 4.0, (rows, n)) ** 2
        c = np.array([lattice_autocorrelation(f) * h for f, h in zip(samples, hs)])
        spacing = float(hs[0]) if shared else hs
        for w in (IntervalWeight(), GaussianWeight(a)):
            got = w.correlation_integral(c, spacing)
            assert got.shape == (rows,)
            assert _bits(got) == [_bits(w.correlation_integral(row, float(h)))[0]
                                  for row, h in zip(c, hs)]
        assert _bits(got) == [_bits(_one_lattice_time_side(row, float(h), a))[0]
                              for row, h in zip(c, hs)]

    def test_nodes_and_one_cell_rows_mixed(self):
        # rows needing 2 .. 61 nodes, and cells of one lattice step past the
        # reach, in one stack
        from autocorr.correlate import lattice_autocorrelation
        from autocorr.spectral import _gauss_node_count

        a = 1e4
        hs = np.geomspace(1e-4, 19.9, 40) / math.sqrt(2 * a)
        c = np.array([lattice_autocorrelation(np.linspace(1.0, 2.0, 9)) * h for h in hs])
        w = GaussianWeight(a)
        nodes = {_gauss_node_count(h * math.sqrt(2 * a)) for h in hs}
        assert len(nodes) > 10 and any(h >= w.reach for h in hs)
        got = w.correlation_integral(c, hs)
        assert _bits(got) == [_bits(w.correlation_integral(row, float(h)))[0]
                              for row, h in zip(c, hs)]
        assert _bits(got) == [_bits(_one_lattice_time_side(row, float(h), a))[0]
                              for row, h in zip(c, hs)]


class TestOneWidthPerCall:
    """Each row of a Gaussian stack is its own one-width call, and omega is
    built once per distinct width of the call."""

    A = 2 * PI
    # h1 and h2 need the same node count, h3 is wider than the reach: one-cell
    # rows, and h4 is past the 64-node limit: the first cell's closed form
    WIDTHS = (0.01, 0.011, 3.0, 25 / math.sqrt(4 * PI))

    def _stack(self, hs, n=9, seed=5):
        from autocorr.correlate import lattice_autocorrelation

        rng = np.random.default_rng(seed)
        return np.array([lattice_autocorrelation(rng.uniform(0.0, 2.0, n) ** 2) * h for h in hs])

    def _counted(self, monkeypatch):
        calls = []
        build = GaussianWeight._hat_integrals

        def counting(self, *args):
            calls.append(args)
            return build(self, *args)

        monkeypatch.setattr(GaussianWeight, "_hat_integrals", counting)
        return calls

    def test_repeating_widths_equal_their_own_calls(self):
        from autocorr.spectral import _gauss_node_count

        h1, h2, h3, h4 = self.WIDTHS
        w = GaussianWeight(self.A)
        assert h3 > w.reach and _gauss_node_count(h4 * math.sqrt(2 * self.A)) == 65
        assert _gauss_node_count(h1 * math.sqrt(2 * self.A)) == _gauss_node_count(
            h2 * math.sqrt(2 * self.A))
        hs = np.array([h1, h4, h2, h1, h3, h2, h4, h3])
        c = self._stack(hs)
        got = w.correlation_integral(c, hs)
        assert _bits(got) == [_bits(w.correlation_integral(row, float(h)))[0]
                              for row, h in zip(c, hs)]
        assert _bits(got) == [_bits(_one_lattice_time_side(row, float(h), self.A))[0]
                              for row, h in zip(c, hs)]

    def test_one_omega_per_distinct_width(self, monkeypatch):
        # however wide the stack's table would be (16 rows of 401 cells), one
        # width builds one omega, and each row reads it
        calls = self._counted(monkeypatch)
        w = GaussianWeight(0.5)
        c = self._stack([0.01] * 16, n=400)
        for spacing in (0.01, np.full(16, 0.01)):
            calls.clear()
            w.correlation_integral(c, spacing)
            assert len(calls) == 1
        calls.clear()
        h1, h2, h3, h4 = self.WIDTHS  # h4 builds none: its rows are the closed form
        GaussianWeight(self.A).correlation_integral(self._stack([h1, h4, h2, h1, h3, h2, h4]),
                                                   np.array([h1, h4, h2, h1, h3, h2, h4]))
        assert [args[0] for args in calls] == [h1, h2, h3]

    def test_subnormal_a_reads_every_cell(self):
        # the reach sqrt(46/a) is inf below a ~ 2.6e-307: every cell counts,
        # as on a lattice narrower than the reach (ceil(inf) raised OverflowError)
        c = self._stack([0.1, 0.2], n=6)
        for a in (5e-324, 1e-310):
            w = GaussianWeight(a)
            assert w.reach == math.inf
            got = w.correlation_integral(c, np.array([0.1, 0.2]))
            assert np.all(np.isfinite(got)) and got[0] == w.correlation_integral(c[0], 0.1)

    def test_q_gauss_at_subnormal_a_refuses_its_fourier_side(self):
        from autocorr import q_gauss

        with pytest.raises(ValueError, match="DFT longer"):
            q_gauss(sample(Indicator(0.5), cells=16), 5e-324)


class TestGaussianMomentEnds:
    def test_huge_a_warns_nothing(self):
        # sqrt(40 a/(pi^2 p)) overflowed from a ~ 4.5e306, and the cross-check
        # then integrated NaN
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = GaussianWeight(1e308).lp_moment(2.0)
        assert m.value == math.sqrt(1e308 / (2 * PI))

    def test_nan_cross_check_raises(self, monkeypatch):
        from autocorr import spectral

        monkeypatch.setattr(spectral, "_gauss_pieces", lambda *args: np.array([math.nan]))
        with pytest.raises(RuntimeError, match="cross-check failed"):
            GaussianWeight(2 * PI).lp_moment(2.0)


class TestMeanFunctionalFourier:
    def test_indicator_interval_weight(self):
        # time side: int_{-1/2}^{1/2} (1 - |t|) dt = 3/4
        f = sample(Indicator(0.5), cells=512)
        m = mean_functional_fourier(f, IntervalWeight(), tol=1e-7)
        assert abs(m - 0.75) < 1e-6

    def test_gaussian_closed_form(self):
        # sqrt(a/pi) iint f f e^{-a t^2} = pi^(1/2)/(2b + b^2/a)^(1/2) = 1/4
        f = sample(Gaussian(4 * PI), cells=4001)
        m = mean_functional_fourier(f, GaussianWeight(2 * PI), tol=1e-8)
        assert abs(m - 0.25) < 1e-6

    @staticmethod
    def _exactness_gap(f, w, tol):
        # |time side - Fourier side| less the truncation tail the Fourier side
        # may drop; the time side is the lattice value
        from autocorr.correlate import lattice_autocorrelation

        time_side = w.correlation_integral(lattice_autocorrelation(f.samples) * f.spacing,
                                           f.spacing)
        four = mean_functional_fourier(f, w, tol=tol)
        return abs(time_side - four) - w.tail_bound(f, w.cutoff(f, tol))

    @pytest.mark.parametrize("w", [IntervalWeight()] + [GaussianWeight(a)
                                                       for a in (0.05, 0.5, 2 * PI, 20.0)],
                             ids=["interval", "gauss-0.05", "gauss-0.5", "gauss-2pi", "gauss-20"])
    def test_trapezoid_sum_is_exact(self, w):
        # Poisson summation leaves only the truncation tail; at a = 0.05 the
        # weight's reach is 30, several times the support, so a step that
        # ignored it would alias
        from autocorr.verification import random_grid_function

        rng = np.random.default_rng(17)
        for _ in range(9):
            f = random_grid_function(rng)
            scale = f.l1_norm * f.l2_norm
            assert self._exactness_gap(f, w, 1e-11 * scale) <= 1e-14 * scale

    def test_indicator_is_exact_at_tight_tolerances(self):
        f = sample(Indicator(0.5), cells=2048)
        for tol in (1e-6, 1e-8, 1e-10, 1e-12):
            assert self._exactness_gap(f, IntervalWeight(), tol) <= 1e-14

    def test_memory_stays_flat(self):
        # the Fourier side builds no (xi, cells) table: its memory is the
        # length-M DFT and the lattice terms up to the cutoff
        import tracemalloc

        from autocorr import q_mean

        f = sample(Gaussian(1.0), cells=4096)
        q_mean(f, tol=1e-8)
        tracemalloc.start()
        try:
            q_mean(f, tol=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_memory_bounded_on_a_wide_support(self):
        # about 2.85e6 lattice terms up to the cutoff, folded onto M = 2049
        # bins: built all at once they peaked at 114 MB
        import tracemalloc

        f = sample(Gaussian(1.0), support=(-1000, 1000), cells=2048)
        tol = 1e-8 * f.l1_norm * f.l2_norm
        tracemalloc.start()
        try:
            mean_functional_fourier(f, IntervalWeight(), tol=tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_term_count_bounded_on_a_wide_support(self):
        # Xi (width + R) terms: this default support, about [-1.6e6, 1.6e6],
        # needs 2.0e8 terms, about 12 s of work
        f = sample(Gaussian(1e-11), cells=2048)
        with pytest.raises(ValueError, match="terms"):
            q_mean(f)

    @pytest.mark.parametrize("a, terms", [(1e13, "6.92e+07"), (1e308, "inf")])
    def test_term_count_bounded_for_a_narrow_weight(self, a, terms):
        # the cutoff Xi grows like sqrt(a): the term limit refuses it, naming
        # the cutoff and the weight, in floats where Xi is past the float
        # range (math.ceil(inf) raised OverflowError)
        from autocorr import q_gauss

        f = sample(Gaussian(1.0), cells=2048)  # autocorr evaluate's function and tol
        with pytest.raises(ValueError) as exc:
            q_gauss(f, a, tol=1e-8)
        assert type(exc.value) is ValueError
        assert str(exc.value).startswith(f"the Fourier side would sum {terms} terms")
        assert "the cutoff Xi = " in str(exc.value) and f"GaussianWeight(a={a!r})" in str(exc.value)

    def test_dft_length_bounded_on_a_narrow_support(self, monkeypatch):
        # M = floor((width + R)/h) + 1 grows like R/h: this default support,
        # about [-5e-6, 5e-6], would take a length-1.02e8 DFT (about 14 GB
        # in all), so an FFT that long fails the test instead of running
        real_fft = np.fft.fft

        def capped_fft(a, n=None, *args, **kwargs):
            assert n is None or n < 2 ** 24, f"a length-{n} DFT was started"
            return real_fft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", capped_fft)
        f = sample(Gaussian(1e12), cells=2048)
        with pytest.raises(ValueError, match="DFT"):
            q_mean(f)

    def test_time_fourier_cross_check(self):
        from autocorr import autocorrelate

        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(8, 32))
            f = GridFunction(float(rng.uniform(-1, 0)), float(rng.uniform(0.02, 0.12)),
                             rng.uniform(0, 1, n))
            scale = f.l1_norm * f.l2_norm
            corr = autocorrelate(f)
            time_side = corr.integral_window(-0.5, 0.5)
            four = mean_functional_fourier(f, IntervalWeight(), tol=1e-6 * scale)
            assert abs(time_side - four) <= 1e-6 * scale
            gw = GaussianWeight(2 * PI)
            time_g = corr.weighted_integral(gw)
            four_g = mean_functional_fourier(f, gw, tol=1e-6 * scale)
            assert abs(time_g - four_g) <= 1e-6 * scale


class TestNodeCache:
    def test_nodes_are_shared_and_read_only(self):
        from autocorr.spectral import _leggauss

        x, w = _leggauss(24)
        assert _leggauss(24)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(24)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w *= 2.0


class TestPhaseSum:
    """The blocked engine of fourier_measure and the standard bump."""

    @staticmethod
    def _centred_direct(f, xi):
        # h sum_m s_m exp(-2 pi i xi y_m) in long double, y_m measured from
        # the centre of the support
        ld = np.longdouble
        y = (np.arange(f.cells, dtype=ld) - ld(f.cells - 1) / 2) * ld(f.spacing)
        theta = 2 * np.arccos(ld(-1)) * xi[:, None] * y[None, :]
        s = f.samples.astype(ld)
        return (np.cos(theta) @ s) * ld(f.spacing), -(np.sin(theta) @ s) * ld(f.spacing)

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 1025])
    def test_long_double_oracle(self, n):
        from autocorr.spectral import _PHASE_BLOCK, _phase_sum

        rng = np.random.default_rng(n)
        f = GridFunction(0.0, 1.0 / max(n, 2), rng.uniform(0, 1, n))
        # more xi than one block, of both signs, and the zero frequency
        xis = np.concatenate([rng.uniform(-60, 60, _PHASE_BLOCK + 188), [0.0, -0.5 / f.spacing]])
        got = f.spacing * _phase_sum(f.samples, f.spacing, xis)
        re, im = self._centred_direct(f, xis.astype(np.longdouble))
        err = np.hypot((got.real - re).astype(np.float64), (got.imag - im).astype(np.float64))
        assert np.max(err) <= 1e-13 * f.l1_norm
        assert got[-2] == pytest.approx(f.l1_norm, abs=1e-14 * f.l1_norm)
