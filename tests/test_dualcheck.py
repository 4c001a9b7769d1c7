"""Dual-bound, spectrum-check, and case-2bb residual tests."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autocorr import (
    BetaPowerBump,
    CosineBump,
    Indicator,
    MixedMeasure,
    StandardBump,
    case2bb_residual,
    case2bb_scan,
    dual_mass_report,
    nu_spectrum_check,
    sample,
    sinc_min_roots,
)
from autocorr import dualcheck
from autocorr.dualcheck import NormalizationError, negative_part_bound_check

PI = math.pi
LOWER = 0.41076748818940534  # 1/(2(1+theta0))

ALL_BUMPS = [StandardBump(), CosineBump(), BetaPowerBump(2), BetaPowerBump(3)]


class TestBumpFamilies:
    @pytest.mark.parametrize("bump", ALL_BUMPS, ids=lambda b: b.label + str(getattr(b, "k", "")))
    def test_probability_density(self, bump):
        integrate = pytest.importorskip("scipy.integrate")
        total, _ = integrate.quad(lambda x: float(bump.density(x)), -1, 1,
                                  epsabs=1e-12, limit=200)
        assert total == pytest.approx(1.0, abs=1e-10)
        xs = np.linspace(-1.3, 1.3, 301)
        dens = bump.density(xs)
        assert np.all(dens >= 0)
        assert np.allclose(dens, bump.density(-xs))  # evenness
        assert float(bump.hat(0.0)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("bump", ALL_BUMPS, ids=lambda b: b.label + str(getattr(b, "k", "")))
    def test_hat_shape(self, bump):
        assert type(bump.hat(0.3)) is float
        xi = np.linspace(0.0, 5.0, 6).reshape(2, 3)
        out = bump.hat(xi)
        assert isinstance(out, np.ndarray) and out.shape == (2, 3)

    def test_bump_normalizer_oracle(self):
        # int exp(-1/(1-x^2)) over [-1, 1] from 25-digit mpmath
        from autocorr.dualcheck import _bump_normalizer

        exact = 0.443993816168079437823
        assert abs(_bump_normalizer() - exact) <= 2e-16 * exact

    def test_hat_against_direct_quadrature(self):
        integrate = pytest.importorskip("scipy.integrate")
        for bump in (CosineBump(), BetaPowerBump(2)):
            for xi in (0.31, 0.8, 2.7):
                direct, _ = integrate.quad(lambda x: float(bump.density(x)), 0, 1,
                                           weight="cos", wvar=2 * PI * xi,
                                           epsabs=1e-13, limit=200)
                assert float(bump.hat(xi)) == pytest.approx(2 * direct, abs=1e-10)

    def test_standard_bump_hat_against_qawo(self):
        # QUADPACK's oscillatory rule per xi, over the cutoff 64 and the
        # tail-bound samples above it
        integrate = pytest.importorskip("scipy.integrate")
        from autocorr.dualcheck import _bump_normalizer

        z = _bump_normalizer()

        def den(x):
            return math.exp(-1.0 / (1.0 - x * x)) / z if abs(x) < 1.0 else 0.0

        xis = np.concatenate([np.linspace(0.0, 70.0, 99), [64.0]])
        oracle = [2 * integrate.quad(den, 0, 1, weight="cos", wvar=2 * PI * xi,
                                     epsabs=1e-13, limit=200)[0] for xi in xis]
        assert np.max(np.abs(StandardBump().hat(xis) - oracle)) <= 1e-12
        assert StandardBump().hat(xis.reshape(4, 25)).shape == (4, 25)

    def test_standard_bump_hat_against_mpmath(self):
        # the same half-trapezoid rule summed at 40 digits: nodes j/1024,
        # end weight 1/2, normalized by the rule's own mass so that phihat(0) = 1;
        # cos(2 pi xi j/N) by the Chebyshev recurrence
        mpmath = pytest.importorskip("mpmath")
        N = 1024
        xis = np.concatenate([np.linspace(0.0, 70.0, 57), [64.0, -0.37, -41.3]])
        with mpmath.workdps(40):
            phi = [mpmath.exp(-1 / (1 - (mpmath.mpf(j) / N) ** 2)) for j in range(N)]
            phi[0] /= 2
            mass = 2 * mpmath.fsum(phi)
            ref = []
            for xi in xis:
                c1 = mpmath.cospi(2 * mpmath.mpf(float(xi)) / N)
                prev, cur, acc = c1, mpmath.mpf(1), mpmath.mpf(0)
                for c in phi:
                    acc += c * cur
                    prev, cur = cur, 2 * c1 * cur - prev
                ref.append(float(2 * acc / mass))
        assert np.max(np.abs(StandardBump().hat(xis) - ref)) <= 1e-15

    def test_cosine_hat_against_mpmath(self):
        # near xi = 3000 the three sincs cancel terms of 1e-4 to values of
        # 1e-12 and err by 1e-16; the closed form used for |xi| >= 2 errs by
        # about 1e-24 there
        mpmath = pytest.importorskip("mpmath")

        def oracle(xi):
            x = mpmath.mpf(float(xi))
            return float(mpmath.sincpi(2 * x)
                         + (mpmath.sincpi(2 * x - 1) + mpmath.sincpi(2 * x + 1)) / 2)

        far = np.concatenate([np.linspace(2999.9, 3000.1, 201),
                              -np.linspace(2999.9, 3000.1, 21)])
        near = np.linspace(-2.5, 2.5, 201)
        with mpmath.workdps(40):
            far_ref = np.array([oracle(x) for x in far])
            near_ref = np.array([oracle(x) for x in near])
        assert np.max(np.abs(CosineBump().hat(far) - far_ref)) <= 1e-21
        assert np.max(np.abs(CosineBump().hat(near) - near_ref)) <= 1e-15
        assert CosineBump().hat(far.reshape(2, 111)).shape == (2, 111)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_beta_power_hat_against_mpmath(self, k):
        # (2k+1)!! j_k(z)/z^k through J_(k+1/2) at 40 digits, on both sides of
        # the series/recurrence crossover z = k + 2, i.e. xi = (k+2)/(2 pi)
        mpmath = pytest.importorskip("mpmath")
        cross = (k + 2) / (2 * PI)
        xis = np.concatenate([np.linspace(0.0, 200.0, 1001), np.linspace(0.0, 2.0, 201),
                              cross * (1 + np.array([-1e-12, 0.0, 1e-12]))])
        scale = math.prod(range(1, 2 * k + 2, 2))
        with mpmath.workdps(40):
            def oracle(xi):
                z = 2 * mpmath.pi * mpmath.mpf(float(xi))
                if z == 0:
                    return 1.0
                return float(scale * mpmath.sqrt(mpmath.pi / (2 * z))
                             * mpmath.besselj(k + mpmath.mpf(1) / 2, z) / z ** k)
            ref = np.array([oracle(x) for x in xis])
        got = BetaPowerBump(k).hat(xis)
        assert np.max(np.abs(got - ref)) <= 1e-15
        assert np.array_equal(got, [BetaPowerBump(k).hat(float(x)) for x in xis])

    @pytest.mark.parametrize("k", [2.0, 2.5, True, "2", None])
    def test_beta_power_needs_integer_k(self, k):
        with pytest.raises(ValueError):
            BetaPowerBump(k)

    def test_beta_power_accepts_numpy_integer(self):
        assert BetaPowerBump(np.int64(3)).hat(0.0) == BetaPowerBump(3).hat(0.0) == 1.0


class TestPositivePartMass:
    # frozen from the sign-split quadrature, cross-checked against brute
    # half-period splitting
    EXPECTED = {
        "cosine": 1.0204507,
        "beta-power": 0.9705560,
        "standard-bump": 0.9232850,
    }

    @pytest.mark.parametrize("bump", [StandardBump(), CosineBump(), BetaPowerBump(2)],
                             ids=lambda b: b.label)
    def test_lower_bound_and_refinement(self, bump):
        rep = dual_mass_report(bump)
        assert rep.positive_mass >= LOWER - 1e-4
        assert rep.positive_mass >= rep.refined_bound - 1e-4
        assert rep.positive_mass == pytest.approx(self.EXPECTED[rep.bump], abs=1e-5)

    @pytest.mark.parametrize("bump", [StandardBump(), CosineBump(), BetaPowerBump(2)],
                             ids=lambda b: b.label)
    def test_sum_diff_identity(self, bump):
        rep = dual_mass_report(bump)
        # phi(0) = pos - neg and pos <= |phihat| mass
        assert rep.sum_diff_gap <= 2e-8
        assert rep.positive_mass <= rep.abs_mass + 1e-12

    # the per-bracket brentq and per-xi QUADPACK implementation gave these
    PINNED = {
        "standard-bump": (0.9232850273630229, 0.09471618751860178),
        "cosine": (1.020450768320109, 0.020450768319743462),
        "beta-power": (0.9705559529942357, 0.033055952992953386),
    }

    @pytest.mark.parametrize("bump", [StandardBump(), CosineBump(), BetaPowerBump(2)],
                             ids=lambda b: b.label)
    def test_pinned_masses(self, bump):
        rep = dual_mass_report(bump)
        pos, neg = self.PINNED[rep.bump]
        assert rep.positive_mass == pytest.approx(pos, abs=1e-10)
        assert rep.negative_mass == pytest.approx(neg, abs=1e-10)

    # every dual_report.json field of ``autocorr dual`` at the commit whose
    # cut list still kept an integer cut next to each root at an integer
    REPORTED = {
        "standard-bump": {
            "positive_mass": 0.9232850273628728, "negative_mass": 0.09471618751860134,
            "value0": 0.8285688398691052, "lower_bound": 0.41076748818940534,
            "refined_bound": 0.5586380457684266, "margin": 0.5125175391734674,
            "refined_margin": 0.3646469815944462, "sum_diff_gap": 2.483380168172289e-11,
            "error_bound": 6.686836876588128e-10, "identity_gap": 0.0,
            "inequality_slack": 0.8877211369054135,
        },
        "cosine": {
            "positive_mass": 1.0204507683201087, "negative_mass": 0.020450768319743462,
            "value0": 1.0, "lower_bound": 0.41076748818940534,
            "refined_bound": 0.5892325118105947, "margin": 0.6096832801307034,
            "refined_margin": 0.43121825650951406, "sum_diff_gap": 3.652633751016765e-13,
            "error_bound": 4.999005353521675e-09, "identity_gap": 0.0,
            "inequality_slack": 1.0497867258430968,
        },
        "beta-power": {
            "positive_mass": 0.9705559529942369, "negative_mass": 0.03305595299294395,
            "value0": 0.9375, "lower_bound": 0.41076748818940534,
            "refined_bound": 0.5780784478342703, "margin": 0.5597884648048316,
            "refined_margin": 0.3924775051599666, "sum_diff_gap": 1.2929657344784573e-12,
            "error_bound": 9.993667569279041e-09, "identity_gap": 5.684341886080802e-14,
            "inequality_slack": 0.9554736351911615,
        },
    }
    # pieces the cut list gave before integers next to a root were left out
    CUT_AT_EVERY_INTEGER = {"standard-bump": 185, "cosine": 8748, "beta-power": 7378}

    @pytest.mark.parametrize("bump", [StandardBump(), CosineBump(), BetaPowerBump(2)],
                             ids=lambda b: b.label)
    def test_no_near_empty_pieces(self, bump, monkeypatch):
        # the cosine transform vanishes at the integers, so an integer cut
        # beside each bisected root left a piece about 1e-13 long
        edges = []
        real = dualcheck._gauss_pieces

        def recorded(f, cuts, n):
            edges.append(cuts)
            return real(f, cuts, n)

        monkeypatch.setattr(dualcheck, "_gauss_pieces", recorded)
        rep = dual_mass_report(bump)
        (cuts,) = edges
        lengths = np.diff(cuts)
        assert lengths.min() > 1e-6 and lengths.max() <= 1.0 + 1e-9
        before = self.CUT_AT_EVERY_INTEGER[bump.label]
        if bump.label == "cosine":
            assert lengths.size < before - 2000
        else:
            assert lengths.size == before
        for name, value in self.REPORTED[bump.label].items():
            assert getattr(rep, name) == pytest.approx(value, abs=1e-14), name

    def test_cutoffs_fixed_by_dual_tol(self):
        # dual_mass_report and the cutoffs take no tolerance of their own
        assert list(inspect.signature(dual_mass_report).parameters) == ["phi"]
        assert [math.ceil(b.cutoff()) for b in dualcheck.BUMPS] == [64, 3258, 2460]

    @pytest.mark.parametrize("bump", dualcheck.BUMPS, ids=lambda b: b.label)
    def test_error_bound_within_dual_tol(self, bump):
        # at a tolerance of 1e-10 the standard and beta-power bumps reported
        # error bounds of 6.7e-10 and 1.01e-10
        assert dual_mass_report(bump).error_bound <= dualcheck.DUAL_TOL

    @pytest.mark.parametrize("start, tol", [(0, 1e-12), (3000, 1e-4), (3000, 1e-9)])
    def test_batched_roots_cosine(self, start, tol):
        # the Hann transform vanishes exactly at the half-integers xi >= 1; near
        # xi = 3000 the three-sinc form carries rounding noise of 1e-16 on
        # values of 1e-12, which held any root finder to about 1e-5 (the 1e-4
        # case); the closed form used for |xi| >= 2 places the roots to 1e-9
        from autocorr.dualcheck import _chandrupatla_roots

        bump = CosineBump()
        xs = (np.arange(start * 16, start * 16 + 64) + 0.2137) / 16
        ys = bump.hat(xs)
        cross = np.flatnonzero(ys[:-1] * ys[1:] < 0.0)
        roots = _chandrupatla_roots(bump.hat, xs[cross], xs[cross + 1], ys[cross], ys[cross + 1])
        exact = np.round(2.0 * roots) / 2.0
        assert exact.size >= 6 and exact[0] == max(start + 0.5, 1.0)
        assert np.all(np.diff(exact) == 0.5)
        assert np.max(np.abs(roots - exact)) <= tol

    def test_density_below_abs_mass(self):
        # phi(x) <= ||phihat||_1 pointwise
        for bump in (CosineBump(), BetaPowerBump(2)):
            absm = dual_mass_report(bump).abs_mass
            for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
                assert float(bump.density(x)) <= absm + 1e-9


def _reference_bisection(f, a: float, b: float) -> float:
    """Plain scalar bisection of [a, b] to the refiner's stop width."""
    from autocorr.dualcheck import _BRACKET_RTOL, _BRACKET_XTOL

    fa = f(np.array([a]))[0]
    while b - a > _BRACKET_XTOL + _BRACKET_RTOL * abs(b):
        m = 0.5 * (a + b)
        fm = f(np.array([m]))[0]
        if fm == 0.0:
            return m
        if np.sign(fm) == np.sign(fa):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def _sin_decay(x):
    return np.sin(np.pi * x) * np.exp(-x / 7.0)


class TestRootRefinement:
    """The batched Chandrupatla refiner of the sign changes of phihat."""

    # (hat calls, xi points) of one dual_mass_report with 40 bisection steps
    # per batch and 65 complex exps per xi of the standard bump
    BISECTION_WORK = {"standard-bump": (43, 10215), "cosine": (54, 443279),
                      "beta-power": (56, 395363)}

    @pytest.mark.parametrize("bump", [StandardBump(), CosineBump(), BetaPowerBump(2)],
                             ids=lambda b: b.label)
    def test_work_count(self, bump, monkeypatch):
        calls = []          # (points, made while refining)
        refining = [False]
        real_hat, real_refine = type(bump).hat, dualcheck._chandrupatla_roots

        def counted_hat(self, xi):
            calls.append((np.size(xi), refining[0]))
            return real_hat(self, xi)

        def flagged_refine(*args):
            refining[0] = True
            try:
                return real_refine(*args)
            finally:
                refining[0] = False

        monkeypatch.setattr(type(bump), "hat", counted_hat)
        monkeypatch.setattr(dualcheck, "_chandrupatla_roots", flagged_refine)
        dual_mass_report(bump)
        bisection_calls, bisection_points = self.BISECTION_WORK[bump.label]
        refine_calls = sum(inside for _, inside in calls)
        assert refine_calls < 40 and len(calls) < bisection_calls
        if bump.label != "standard-bump":
            assert refine_calls <= 12
        assert sum(points for points, _ in calls) < bisection_points

    @staticmethod
    def _check(f, true: np.ndarray, a: np.ndarray, b: np.ndarray):
        from autocorr.dualcheck import _BRACKET_RTOL, _BRACKET_XTOL, _chandrupatla_roots

        roots = _chandrupatla_roots(f, a, b, f(a), f(b))
        width = _BRACKET_XTOL + _BRACKET_RTOL * np.abs(true)
        assert np.all((a <= roots) & (roots <= b))
        assert np.all(np.abs(roots - true) <= width)
        reference = np.array([_reference_bisection(f, x, y) for x, y in zip(a, b)])
        assert np.all(np.abs(roots - reference) <= 2.0 * width)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(2, 6600), st.floats(1e-3, 0.49),
                              st.floats(1e-3, 0.49)), min_size=1, max_size=30))
    def test_cosine_far_field(self, brackets):
        # the Hann transform vanishes exactly at xi = m/2 for m >= 2, the
        # roots up to its cutoff near 3300; no bracket holds two of them
        m, below, above = (np.array(v, dtype=np.float64) for v in zip(*brackets))
        true = m / 2.0
        self._check(CosineBump().hat, true, true - below, true + above)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 200), st.floats(1e-3, 0.99),
                              st.floats(1e-3, 0.99)), min_size=1, max_size=30))
    def test_known_simple_roots(self, brackets):
        # sin(pi x) exp(-x/7) has its simple roots at the integers
        k, below, above = (np.array(v, dtype=np.float64) for v in zip(*brackets))
        self._check(_sin_decay, k, k - below, k + above)

    def test_zero_sample_collapses_its_bracket(self):
        # the secant step from [2.5, 3.5] lands on the root 3 of x - 3 exactly;
        # the other bracket of the batch goes on to the root 6 of sin(pi x)
        from autocorr.dualcheck import _BRACKET_RTOL, _BRACKET_XTOL, _chandrupatla_roots

        def f(x):
            return np.where(x < 5.0, x - 3.0, _sin_decay(x))

        a, b = np.array([2.5, 5.7]), np.array([3.5, 6.2])
        roots = _chandrupatla_roots(f, a, b, f(a), f(b))
        assert roots[0] == 3.0
        assert abs(roots[1] - 6.0) <= _BRACKET_XTOL + 6.0 * _BRACKET_RTOL


class TestNegativePartBound:
    @pytest.mark.parametrize("bump", [StandardBump(), CosineBump(), BetaPowerBump(2)],
                             ids=lambda b: b.label)
    def test_identity_and_inequality(self, bump):
        rep = dual_mass_report(bump)
        assert rep.identity_gap <= 1e-8
        assert rep.inequality_slack >= -1e-8

    # frozen identity gaps and inequality slacks, one pair per bump
    PINNED = {
        "standard-bump": (0.0, 0.8877211369054141),
        "cosine": (0.0, 1.0497867258430953),
        "beta-power": (5.684341886080802e-14, 0.955473635191162),
    }

    @pytest.mark.parametrize("bump", [StandardBump(), CosineBump(), BetaPowerBump(2)],
                             ids=lambda b: b.label)
    def test_pinned(self, bump):
        rep = dual_mass_report(bump)
        gap, slack = self.PINNED[rep.bump]
        assert rep.identity_gap == pytest.approx(gap, abs=1e-10)
        assert rep.inequality_slack == pytest.approx(slack, abs=1e-10)
        assert (rep.identity_gap, rep.inequality_slack) == \
            negative_part_bound_check(bump, rep.negative_mass, rep.value0)

    def test_label_is_not_an_option(self):
        # every BetaPowerBump is "beta-power": a label could not tell k apart
        with pytest.raises(TypeError):
            BetaPowerBump(2, "x")
        assert BetaPowerBump(3).label == "beta-power"


def _tuned_atom_density_measure():
    """Atom pair at +-1/2 plus a scaled unit-interval density, with the scale
    tuned so the 1025-point window-ratio lattice infimum is exactly 1/2."""
    optimize = pytest.importorskip("scipy.optimize")
    from autocorr.correlate import measure_correlation

    def make(c):
        d = sample(Indicator(0.5), cells=1024).scaled(c)
        return MixedMeasure(atoms=((-0.5, 0.5), (0.5, 0.5)), density=d)

    def lattice_inf(c):
        ts = np.linspace(0.0, 1.0, 1025)
        mc = measure_correlation(make(c))
        return float(np.min(np.asarray(mc.interval_mass(ts[:-1], ts[1:])) / (ts[1] - ts[0])))

    c = optimize.brentq(lambda c: lattice_inf(c) - 0.5, 0.4, 0.6, xtol=1e-12)
    return make(c)


class TestNuSpectrumCheck:
    def test_tuned_construction(self):
        mu = _tuned_atom_density_measure()
        rep = nu_spectrum_check(mu)
        assert abs(rep.window_inf - 0.5) <= 1e-6
        assert rep.nu_min >= -1e-6
        theta0 = sinc_min_roots().theta0
        assert rep.nu_hat_xi0 >= theta0 - 1e-6
        assert rep.nu_hat_xi0 <= rep.nu_hat_0 + 1e-6
        assert rep.nu_hat_0 == pytest.approx(rep.tv ** 2 - 1.0, abs=1e-8)

    def test_batched_calls_equal_the_per_level_ones(self):
        # one interval_mass call over the whole dyadic lattice and one
        # fourier_measure call at [xi0, 0] give what one call per level and
        # one per frequency give, bit for bit
        from autocorr.correlate import measure_correlation
        from autocorr.spectral import fourier_measure

        mu = _tuned_atom_density_measure()
        rep = nu_spectrum_check(mu)
        mc = measure_correlation(mu)
        nu_min = math.inf
        for j in range(11):
            w = 2.0 ** (-j)
            edges = np.arange(-1.0, 1.0 + w / 2, w)
            masses = np.asarray(mc.interval_mass(edges[:-1], edges[1:]))
            nu_min = min(nu_min, float((masses - 0.5 * w).min()))
        assert rep.nu_min == nu_min
        xi0 = sinc_min_roots().xi0
        assert rep.nu_hat_xi0 == float(abs(fourier_measure(mu, xi0)) ** 2 - np.sinc(2 * xi0))
        assert rep.nu_hat_0 == float(abs(fourier_measure(mu, 0.0)) ** 2 - 1.0)

    def test_near_extremal_density(self):
        # renormalized pure density whose window infimum is 1/2: scaled
        # indicator of halfwidth 1, correlation triangle 2 - |t| on [0, 1]
        optimize = pytest.importorskip("scipy.optimize")
        from autocorr.correlate import measure_correlation

        def make(c):
            return MixedMeasure(density=sample(Indicator(1.0), cells=2048).scaled(c))

        def lattice_inf(c):
            ts = np.linspace(0.0, 1.0, 1025)
            mc = measure_correlation(make(c))
            return float(np.min(np.asarray(mc.interval_mass(ts[:-1], ts[1:])) / (ts[1] - ts[0])))

        c = optimize.brentq(lambda c: lattice_inf(c) - 0.5, 0.5, 1.0, xtol=1e-12)
        rep = nu_spectrum_check(make(c))
        assert rep.nu_hat_xi0 >= sinc_min_roots().theta0 - 1e-4

    def test_renormalized_search_output(self):
        # a genuine min01 search output over [-1, 1], renormalized to the
        # window infimum 1/2, passes the full spectrum check
        optimize = pytest.importorskip("scipy.optimize")
        from autocorr import search
        from autocorr.correlate import measure_correlation
        from autocorr.funcspace import GridFunction

        rec = search("min01", "piecewise", budget=1600, seed=2, dimension=8,
                     halfwidth=1.0)
        assert rec.best_value > 0
        vals = np.asarray(rec.best_params) ** 2

        def make(c):
            return MixedMeasure(density=GridFunction(-1.0, 0.25, c * vals))

        def lattice_inf(c):
            ts = np.linspace(0.0, 1.0, 1025)
            mc = measure_correlation(make(c))
            return float(np.min(np.asarray(mc.interval_mass(ts[:-1], ts[1:])) / (ts[1] - ts[0])))

        hi = 1.0
        while lattice_inf(hi) < 0.5:
            hi *= 2.0
        c = optimize.brentq(lambda c: lattice_inf(c) - 0.5, 1e-3, hi, xtol=1e-12)
        rep = nu_spectrum_check(make(c))
        assert rep.nu_hat_xi0 >= sinc_min_roots().theta0 - 1e-4
        assert rep.nu_min >= -1e-6

    def test_normalization_failure_names_interval(self):
        mu = MixedMeasure(density=sample(Indicator(1.0), cells=512))
        with pytest.raises(NormalizationError) as err:
            nu_spectrum_check(mu)
        lo, hi = err.value.interval
        assert 0.0 <= lo < hi <= 1.0


class TestCase2bb:
    def test_residual_at_one(self):
        assert case2bb_residual(1.0) > 0.05

    def test_scan_floor(self):
        grid, residuals = case2bb_scan()
        assert len(grid) == 81
        assert grid[0] == pytest.approx(0.01) and grid[-1] == pytest.approx(100.0)
        assert residuals.min() >= 0.01

    def test_scan_equals_the_per_a_formula(self):
        # the residual written out per a, with f0 applied at each shift: the
        # scan builds the a-free arrays once and must agree bit for bit
        alpha0 = sinc_min_roots().alpha0
        w = 1.0 - alpha0
        t = np.linspace(-1.2, 1.2, 4001)
        lhs = np.where(np.abs(t) <= 1.0, 0.5, 0.0)

        def reference(a):
            def f0(x):
                return np.where(np.abs(x) <= w, 1.0 / (4.0 * a), 0.0)

            triangle = np.maximum(0.0, 2.0 * w - np.abs(t)) / (16.0 * a * a)
            rhs = 2.0 * a * f0(t - alpha0) + 2.0 * a * f0(t + alpha0) + triangle
            return float(np.max(np.abs(lhs - rhs)))

        grid, residuals = case2bb_scan()
        expected = [reference(float(a)) for a in grid]
        assert np.array_equal(residuals, expected)
        for a in (0.3, 1.0, 7.0):
            assert case2bb_residual(a) == reference(a)

    def test_continuity_in_a(self):
        grid, residuals = case2bb_scan()
        ratios = residuals[1:] / residuals[:-1]
        assert np.all(ratios < 10.0) and np.all(ratios > 0.1)

    def test_structural_constants(self):
        r = sinc_min_roots()
        assert r.alpha0 == pytest.approx(0.6992, abs=1e-4)
        assert r.alpha0 > 2.0 / 3.0
        assert 2.0 * (1.0 - r.alpha0) < 1.0  # f0*f0 support stays inside [-1, 1]

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            case2bb_residual(-1.0)

    @pytest.mark.parametrize("a", [math.inf, 1e308, 1e160, 1e-160, math.nan])
    def test_rejects_a_outside_the_float_range(self, a):
        # inf and 1e308 returned NaN (2a times 1/(4a) is inf times 0), and
        # 1e-160 raised numpy's overflow warning (filterwarnings: an error)
        with pytest.raises(ValueError, match="16 a\\^2"):
            case2bb_residual(a)
