"""Constant-pipeline tests against frozen oracles and closed forms."""

import math

import numpy as np
import pytest

from autocorr import (
    GaussianWeight,
    GridFunction,
    IntervalWeight,
    gaussian_mean_lower,
    hy_coefficient,
    indicator_min_lower,
    mean_upper_constant,
    mean_upper_sweep,
    min_l1_constant,
    min_mixed_constant,
    minimize_over_p,
    q_mean,
    sinc_min_roots,
    weight_lp_moment,
)
from autocorr.constants import BoundReport, gaussian_closed_form

PI = math.pi


class TestHYCoefficient:
    def test_p2_closed_form(self):
        assert hy_coefficient(2.0) == pytest.approx(2.0 * 3.0 ** -0.75, rel=1e-14)
        assert hy_coefficient(2.0) == pytest.approx(0.877383, abs=5e-7)

    def test_p2_gaussian_route(self):
        # K_2 equals (8a/(27 pi))^(1/4) / I_gauss(2; a)^(1/2) at a = 2 pi
        a = 2 * PI
        assert hy_coefficient(2.0) == pytest.approx((16.0 / 27.0) ** 0.25, rel=1e-13)
        assert (8 * a / (27 * PI)) ** 0.25 == pytest.approx(hy_coefficient(2.0), rel=1e-13)

    def test_continuity(self):
        assert abs(hy_coefficient(2 + 1e-6) - hy_coefficient(2)) < 1e-5

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            hy_coefficient(1.0)

    def test_rejects_infinite_p(self):
        # it used to return NaN
        with pytest.raises(ValueError, match="need 1 < p < inf"):
            hy_coefficient(math.inf)


class TestMeanUpperConstant:
    def test_interval_p2(self):
        rep = mean_upper_constant(IntervalWeight(), 2.0)
        assert rep.value == pytest.approx(0.877383, abs=1e-6)
        assert set(rep.ingredients) >= {"p", "K_p", "I_w_p"}

    def test_gaussian_p2(self):
        rep = mean_upper_constant(GaussianWeight(2 * PI), 2.0)
        assert rep.value == pytest.approx(0.8773, abs=5e-4)

    def test_gaussian_closed_form_parse(self):
        # pipeline matches the p = 2-consistent parse of the printed display,
        # the one closed form the report carries
        for p in (2.0, 2.5, PI, 4.0):
            rep = mean_upper_constant(GaussianWeight(2 * PI), p)
            assert rep.value == pytest.approx(gaussian_closed_form(p, 2 * PI), abs=1e-8)
            assert [k for k in rep.ingredients if k.startswith("closed_form")] == \
                ["closed_form_paper_consistent"]
            assert rep.ingredients["closed_form_paper_consistent"] == \
                gaussian_closed_form(p, 2 * PI)
        # the powers in the closed form overflow from p = 143; the logs do not
        for p in (119.0, 143.0, 300.0):
            rep = mean_upper_constant(GaussianWeight(2 * PI), p)
            assert rep.value == pytest.approx(gaussian_closed_form(p, 2 * PI), rel=1e-12)
        assert gaussian_closed_form(2.0, 2 * PI) == (8.0 * 2 * PI / (27.0 * PI)) ** 0.25

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            mean_upper_constant(IntervalWeight(), 1.5)

    @pytest.mark.parametrize("w", [IntervalWeight(), GaussianWeight(1.0)],
                             ids=["interval", "gaussian"])
    def test_rejects_infinite_p(self, w):
        # p = inf used to reach the moment: numpy's LinAlgError for the
        # interval weight, a NaN constant refused as a report for the Gaussian
        with pytest.raises(ValueError, match="the mean bound needs 2 <= p < inf"):
            mean_upper_constant(w, math.inf)


class TestMinimizeOverP:
    def test_interval_value(self):
        rep = minimize_over_p(IntervalWeight())
        assert rep.value == pytest.approx(0.864, abs=5e-4)
        # frozen golden minimizer
        assert rep.ingredients["p_star"] == pytest.approx(2.40712, abs=2e-3)
        assert rep.value == pytest.approx(0.8638483, abs=1e-5)

    def test_gaussian_dominated_by_p2(self):
        rep = minimize_over_p(GaussianWeight(2 * PI))
        assert rep.value <= 0.8773826753016617 + 1e-9

    def test_degenerate_range(self):
        rep = minimize_over_p(IntervalWeight(), p_range=(2.0, 2.0))
        assert rep.value == pytest.approx(mean_upper_constant(IntervalWeight(), 2.0).value,
                                          rel=1e-12)

    @pytest.mark.parametrize("hi", [2.1, 2.3])
    def test_grid_reaches_the_range_end(self, hi):
        # C_p decreases on [2, 2.3], so its least value on [2, hi] is at hi,
        # which the grid must reach
        rep = minimize_over_p(IntervalWeight(), p_range=(2.0, hi))
        assert rep.value <= mean_upper_constant(IntervalWeight(), hi).value + 1e-6

    @pytest.mark.parametrize("p_range", [(2.0, 12.0), (2.0, 2.1), (299.0, 300.0)])
    @pytest.mark.parametrize("w", [IntervalWeight(), GaussianWeight(2 * PI)],
                             ids=["interval", "gaussian"])
    def test_grid_best_read_off_the_sweep(self, w, p_range):
        # the infimum scans the sweep's reports; there is no second grid
        best = min(mean_upper_sweep(w, p_range), key=lambda rep: rep.value)
        rep = minimize_over_p(w, p_range)
        assert rep.ingredients["grid_best_p"] == best.ingredients["p"]
        assert rep.ingredients["grid_best_value"] == best.value

    def test_sweep_spans_the_range(self):
        ps = [rep.ingredients["p"] for rep in mean_upper_sweep(IntervalWeight(), (3.3, 7.9))]
        assert ps[0] == 3.3 and ps[-1] == 7.9 and max(np.diff(ps)) <= 0.25

    # a NaN lower end used to pass every comparison and fail in the grid's
    # int(), with numpy's own error
    @pytest.mark.parametrize("p_range", [(1.5, 3.0), (5.0, 4.0), (2.0, math.inf),
                                         (math.nan, 3.0)])
    def test_bad_range_rejected(self, p_range):
        with pytest.raises(ValueError, match="p range"):
            minimize_over_p(IntervalWeight(), p_range)

    def test_feasibility_grid(self):
        # the bound holds pointwise in p on the whole 0.1-step grid, not only
        # at the minimum
        rng = np.random.default_rng(17)
        fs = [GridFunction(float(rng.uniform(-1, 0)), float(rng.uniform(0.02, 0.1)),
                           rng.uniform(0, 1, int(rng.integers(6, 24))))
              for _ in range(5)]
        worst = max(q_mean(f).value for f in fs)
        for p in np.arange(2.0, 10.001, 0.1):
            assert worst <= mean_upper_constant(IntervalWeight(), float(p)).value + 1e-6


class TestGoldenMin:
    def test_one_point_grid(self):
        from autocorr.constants import _golden_min

        assert _golden_min(lambda x: (x - 1.0) ** 2, np.array([2.5]), 0, 1e-9) == 2.5

    @pytest.mark.parametrize("end", [0, 10])
    def test_minimum_at_an_end(self, end):
        from autocorr.constants import _golden_min

        grid = np.linspace(0.0, 1.0, 11)
        x_min = grid[end]
        assert _golden_min(lambda x: (x - x_min) ** 2, grid, end, 1e-9) == \
            pytest.approx(x_min, abs=1e-9)


class TestRoots:
    def test_frozen_values(self):
        r = sinc_min_roots()
        assert r.y0 == pytest.approx(4.493409457909064, abs=1e-9)
        assert r.theta0 == pytest.approx(0.217234, abs=1e-6)
        assert r.xi0 == pytest.approx(0.71514, abs=1e-5)
        assert r.alpha0 > 2.0 / 3.0

    def test_residuals(self):
        r = sinc_min_roots()
        assert r.residual_y0 <= 1e-12
        assert r.residual_sinc_min <= 1e-10

    def test_bisection_oracle(self):
        # plain bisection on (pi, 3 pi/2), independent of brentq
        lo, hi = PI, 1.5 * PI
        g = lambda y: y * math.cos(y) - math.sin(y)  # noqa: E731
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(lo) * g(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert sinc_min_roots().y0 == pytest.approx(0.5 * (lo + hi), abs=1e-12)


class TestMinL1Constant:
    def test_values(self):
        win2, win1 = min_l1_constant()
        assert win2.value == pytest.approx(0.821534, abs=5e-6)
        assert win1.value == pytest.approx(0.410767, abs=5e-6)

    def test_consistency(self):
        win2, win1 = min_l1_constant()
        assert 2.0 * win1.value == pytest.approx(win2.value, rel=1e-12)


class TestMinMixedConstant:
    def test_value(self):
        rep = min_mixed_constant()
        assert rep.value <= 0.829604 + 1e-6
        assert rep.value == pytest.approx(0.829604, abs=5e-4)
        assert rep.ingredients["C_pi"] == pytest.approx(0.8325554, abs=1e-5)

    def test_shares_the_pipeline_product(self):
        # C_pi comes from the helper behind every C_p, and equals the formula
        # written out here bit for bit; the ingredient keys are unchanged
        rep = min_mixed_constant()
        c_pi = hy_coefficient(PI) * \
            weight_lp_moment(IntervalWeight(), PI).value ** (1 / PI)
        L = sinc_min_roots().min_l1_half
        assert rep.ingredients["C_pi"] == c_pi
        assert rep.value == (L ** (PI / 2 - 1) * c_pi ** (PI / 2)) ** (1 / (PI - 1))
        assert list(rep.ingredients) == ["p", "K_p", "I_w_p", "I_w_p_error",
                                         "C_pi", "stefan", "alpha"]

    def test_rounded_stefan_sensitivity(self):
        rep = min_mixed_constant()
        c_pi = rep.ingredients["C_pi"]
        p = PI
        rounded = (0.821534 ** (p / 2 - 1) * c_pi ** (p / 2)) ** (1 / (p - 1))
        assert abs(rounded - rep.value) < 1e-5

    def test_p2_degenerates_to_c2(self):
        # at p = 2 the stefan exponent vanishes, so the interpolation returns
        # C_2 = 0.877383 (not the 0.8641 mean bound; see the decisions ledger)
        c2 = mean_upper_constant(IntervalWeight(), 2.0).value
        L = min_l1_constant()[0].value
        p = 2.0
        interpolated = (L ** (p / 2 - 1) * c2 ** (p / 2)) ** (1 / (p - 1))
        assert interpolated == pytest.approx(c2, rel=1e-14)


class TestIndicatorMinLower:
    def test_maximizer_and_value(self):
        rep = indicator_min_lower()
        assert rep.ingredients["A_star"] == 0.75
        assert rep.value == pytest.approx((2.0 / 3.0) ** 1.5, rel=1e-14)
        assert rep.value == pytest.approx(0.544, abs=5e-4)

    def test_stationarity_oracle(self):
        # numeric maximization of (u - 1/2) u^(-3/2) over u = 2A
        us = np.linspace(0.5, 5.0, 200001)
        vals = (us - 0.5) * us ** -1.5
        assert us[np.argmax(vals)] == pytest.approx(1.5, abs=1e-4)
        assert vals.max() == pytest.approx(indicator_min_lower().value, abs=1e-9)

    def test_boundary_value_zero(self):
        u = 0.5  # A = 1/4
        assert (u - 0.5) * u ** -1.5 == 0.0


class TestGaussianMeanLower:
    def test_a_2pi(self):
        rep = gaussian_mean_lower(2 * PI)
        assert rep.value == pytest.approx(2.0 ** -0.25, rel=1e-14)
        assert rep.value == pytest.approx(0.84090, abs=5e-4)

    def test_scan_peaks_at_2a(self):
        # down to subnormal a: the scan used to read 2/b, which overflows
        # below a ~ 1e-307, and raised "Gaussian scan maximum 0.0 disagrees
        # with the closed form"
        for a in (0.5, 2 * PI, 11.0, 1e-320, 5e-324, 1e-300, 1e300):
            rep = gaussian_mean_lower(a)
            assert rep.ingredients["scan_best_b"] == pytest.approx(2 * a, rel=0.01)
            assert rep.ingredients["scan_best_value"] == pytest.approx(rep.value, rel=1e-12)

    def test_small_a_scan_agreement(self):
        rep = gaussian_mean_lower(0.5)
        assert rep.ingredients["scan_best_value"] == pytest.approx(rep.value, abs=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gaussian_mean_lower(0.0)


class TestBoundReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundReport(name="x", value=-1.0, kind="upper-bound")
        # no constant is a root: the roots are SincRoots, not reports
        for kind in ("sideways", "root"):
            with pytest.raises(ValueError, match="kind"):
                BoundReport(name="x", value=1.0, kind=kind)
        with pytest.raises(ValueError, match="not finite"):
            BoundReport(name="x", value=1.0, kind="lower-bound",
                        ingredients={"bad": float("nan")})

    def test_ordering_of_emitted_table(self):
        # lower bounds sit below their upper bounds
        assert 0.8 <= minimize_over_p(IntervalWeight()).value
        assert gaussian_mean_lower(2 * PI).value <= \
            mean_upper_constant(GaussianWeight(2 * PI), 2.0).value
        assert indicator_min_lower().value <= min_mixed_constant().value
