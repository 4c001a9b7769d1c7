"""Domain-type tests: grids, analytic families, measures."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autocorr import (
    Gaussian,
    GridFunction,
    Indicator,
    MixedMeasure,
    bs_l1,
    sample,
)
from autocorr.funcspace import _l2_norm


class TestGridFunction:
    def test_basic_norms(self):
        f = GridFunction(0.0, 0.5, [1.0, 2.0, 3.0])
        assert f.l1_norm == pytest.approx(3.0, abs=0)
        assert f.l2_norm == pytest.approx(math.sqrt(0.5 * 14.0), rel=1e-15)
        assert f.support == (0.0, 1.5)
        assert f.total_variation == pytest.approx(1 + 1 + 1 + 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(0.0, -1.0, [1.0])
        with pytest.raises(ValueError):
            GridFunction(0.0, 1.0, [])
        with pytest.raises(ValueError):
            GridFunction(0.0, 1.0, [np.nan])

    def test_negative_clamp_warns_when_large(self):
        with pytest.warns(UserWarning):
            f = GridFunction(0.0, 1.0, [1.0, -1e-6])
        assert f.samples[1] == 0.0

    def test_negative_clamp_silent_when_fp_noise(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = GridFunction(0.0, 1.0, [1.0, -1e-16])
        assert f.samples[1] == 0.0

    def test_value_at_and_integral(self):
        f = GridFunction(-1.0, 0.5, [1.0, 2.0, 0.0, 4.0])
        # the value of a cell is its mean; 0 off the support
        assert f.integral(-1.0, -0.5) / 0.5 == 1.0
        assert f.integral(0.5, 1.0) / 0.5 == 4.0
        assert f.integral(-1.0, 1.0) == pytest.approx(f.l1_norm, abs=0)
        assert f.integral(-0.75, -0.5) == pytest.approx(0.25)
        assert f.integral(2.0, 3.0) == 0.0

    def test_integral_array_matches_scalar_loop(self, random_windows):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = GridFunction(rng.uniform(-1, 1), rng.uniform(0.01, 0.2),
                             rng.uniform(0, 2, rng.integers(1, 60)))
            lo, hi = random_windows(rng, f.support)
            scalar = np.array([f.integral(float(a), float(b)) for a, b in zip(lo, hi)])
            assert np.array_equal(f.integral(lo, hi), scalar)
            assert isinstance(f.integral(float(lo[0]), float(hi[0])), float)

    def test_immutable(self):
        f = GridFunction(0.0, 1.0, [1.0])
        with pytest.raises(ValueError):
            f.samples[0] = 2.0

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(min_value=1e-3, max_value=1e3),
           n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**31))
    def test_norm_homogeneity(self, c, n, seed):
        rng = np.random.default_rng(seed)
        f = GridFunction(-1.0, 0.1, rng.uniform(0, 1, n))
        g = f.scaled(c)
        assert g.l1_norm == pytest.approx(c * f.l1_norm, rel=1e-12)
        assert g.l2_norm == pytest.approx(c * f.l2_norm, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 40), n=st.integers(1, 1024), spacing=st.floats(1e-3, 10.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stacked_l2_norm_is_each_rows_dot(self, rows, n, spacing, seed):
        # the stack's one vecdot sums each row as the 1-D call's np.dot does
        rng = np.random.default_rng(seed)
        stack = rng.uniform(0.0, 4.0, (rows, n)) ** 2
        got = _l2_norm(stack, spacing)
        want = np.sqrt(spacing * np.array([np.dot(row, row) for row in stack]))
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert [float(x) for x in got] == [_l2_norm(row, spacing) for row in stack]


class TestSampling:
    def test_indicator_geometry(self):
        f = sample(Indicator(0.5), support=(-1, 1), cells=4)
        assert f.spacing == 0.5
        assert list(f.samples) == [0.0, 1.0, 1.0, 0.0]

    def test_gaussian_l1(self):
        f = sample(Gaussian(1.0), support=(-8, 8), cells=2001)
        assert abs(f.l1_norm - math.sqrt(math.pi)) < 1e-6

    def test_gaussian_l2(self):
        f = sample(Gaussian(2.0), cells=4001)
        assert abs(f.l2_norm - (math.pi / 4) ** 0.25) < 1e-6

    def test_bs_l1_quadrature(self):
        # exact value 11 pi/24 via the substitution x = sin(u)/2
        assert abs(bs_l1() - 11 * math.pi / 24) < 1e-4
        assert abs(bs_l1() - 1.4398966328953218) < 1e-10

    def test_bad_parameters_rejected(self):
        for bad in (Gaussian, Indicator):
            with pytest.raises(ValueError):
                bad(-1.0)
        with pytest.raises(ValueError):
            sample(Indicator(1.0), cells=1)

    @pytest.mark.parametrize("family, support", [
        (Gaussian(1e-320), None), (Gaussian(1.0), (-1e308, 1e308)),
        (Gaussian(1.0), (-math.inf, 0.0)), (Indicator(1.0), (0.0, math.nan))])
    def test_nonfinite_support_rejected(self, family, support):
        # refused before any arithmetic on the ends: exp(-b x^2) at b = 1e-320
        # has the default support +-inf, which warned "invalid value" first,
        # and (-1e308, 1e308) has a width the float range cannot hold
        with pytest.raises(ValueError, match="finite ends and a finite width"):
            sample(family, support=support)

    @pytest.mark.parametrize("family,exact_l1,exact_l2", [
        (Gaussian(1.0), math.sqrt(math.pi), (math.pi / 2) ** 0.25),
        (Gaussian(3.0), math.sqrt(math.pi / 3), (math.pi / 6) ** 0.25),
        (Indicator(0.7), 1.4, math.sqrt(1.4)),
    ])
    def test_refinement_convergence(self, family, exact_l1, exact_l2):
        # doubling the cell count never grows the error beyond 10% plus an
        # FP-noise floor (smooth families plateau at the support truncation)
        errs = []
        for k in range(8, 15):
            f = sample(family, cells=2 ** k)
            errs.append(abs(f.l1_norm - exact_l1) + abs(f.l2_norm - exact_l2))
        for a, b in zip(errs, errs[1:]):
            assert b <= 1.1 * a + 1e-12 * exact_l1


class TestMixedMeasure:
    def test_canonical_form(self):
        mu = MixedMeasure(atoms=((1.0, 0.5), (0.0, 1.0), (1.0, 0.25), (2.0, 0.0)))
        assert mu.atoms == ((0.0, 1.0), (1.0, 0.75))
        locs = mu.atom_locations
        assert np.all(np.diff(locs) > 0)

    def test_total_variation(self):
        d = sample(Indicator(0.5), cells=32)
        mu = MixedMeasure(atoms=((0.0, 2.0),), density=d)
        assert mu.total_variation == pytest.approx(2.0 + d.l1_norm, rel=1e-14)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            MixedMeasure(atoms=((0.0, -1.0),))


class TestGaussPieces:
    @pytest.mark.parametrize("n", [1, 5, 24])
    def test_exact_for_degree_2n_minus_1(self, n):
        from autocorr.funcspace import _gauss_pieces

        rng = np.random.default_rng(n)
        poly = np.polynomial.Polynomial(rng.uniform(-1, 1, 2 * n))
        edges = np.sort(rng.uniform(-2.0, 3.0, 9))
        prim = poly.integ()
        exact = prim(edges[1:]) - prim(edges[:-1])
        got = _gauss_pieces(poly, edges, n)
        scale = np.polynomial.Polynomial(np.abs(poly.coef))(3.0)
        assert np.allclose(got, exact, rtol=0, atol=1e-14 * scale)

    def test_blocks_match_sub_ranges(self):
        from autocorr.funcspace import _PIECE_BLOCK, _gauss_pieces

        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.cos(3.0 * x) * np.exp(-0.01 * x)

        edges = np.cumsum(np.random.default_rng(5).uniform(0.1, 1.0, 2 * _PIECE_BLOCK + 101))
        whole = _gauss_pieces(f, edges, 7)
        assert max(sizes) == 7 * _PIECE_BLOCK and len(sizes) == 3
        cuts = range(0, edges.size, _PIECE_BLOCK)
        parts = [_gauss_pieces(f, edges[c:c + _PIECE_BLOCK + 1], 7) for c in cuts]
        assert np.array_equal(whole, np.concatenate(parts))
