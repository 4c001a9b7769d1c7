"""Search tests: determinism, soundness, floors, record invariants."""

import importlib
import math

import pytest

from autocorr import baseline, search
from autocorr.functionals import gauss_ceiling, min01_ceiling

PI = math.pi


class TestDeterminism:
    def test_identical_runs(self):
        a = search("min12", "indicator", budget=400, seed=9)
        b = search("min12", "indicator", budget=400, seed=9)
        assert a.trace == b.trace
        assert a.best_value == b.best_value
        assert a.best_params == b.best_params

    def test_different_seeds_may_differ_but_stay_sound(self):
        vals = {search("min12", "indicator", budget=300, seed=s).best_value
                for s in (1, 2)}
        assert all(v <= 0.829604 + 1e-4 for v in vals)

    def test_no_regression_with_budget(self):
        small = search("min12", "indicator", budget=300, seed=4)
        large = search("min12", "indicator", budget=900, seed=4)
        assert large.best_value >= small.best_value - 1e-12


class TestRecordInvariants:
    def test_trace_best_so_far(self):
        rec = search("min12", "indicator", budget=300, seed=2)
        vals = [v for _, v in rec.trace]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        idxs = [i for i, _ in rec.trace]
        assert idxs == list(range(1, len(idxs) + 1))
        assert rec.evaluations == len(rec.trace)
        assert rec.best_value == vals[-1]

    def test_budget_respected(self):
        rec = search("min12", "indicator", budget=200, seed=0)
        assert rec.evaluations <= 200

    def test_small_budget_rejected(self):
        with pytest.raises(ValueError):
            search("min12", "indicator", budget=50, seed=0)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            search("median", "indicator", budget=200, seed=0)
        with pytest.raises(ValueError):
            search("min12", "splines", budget=200, seed=0)
        with pytest.raises(ValueError):
            search("gauss", "gaussian", budget=200, seed=0)  # missing a
        with pytest.raises(ValueError):
            search("mean", "bs-example", budget=200, seed=0)


class TestFloorsAndSoundness:
    def test_indicator_min12_floor(self):
        rec = search("min12", "indicator", budget=500, seed=0)
        assert rec.best_value >= 0.5443 - 1e-3
        assert rec.best_params[0] ** 2 == pytest.approx(0.75, abs=5e-3)

    def test_gaussian_gauss_floor(self):
        a = 2 * PI
        rec = search("gauss", "gaussian", budget=500, seed=0, a=a)
        assert rec.best_value >= 0.8408 - 1e-3
        assert rec.best_params[0] ** 2 == pytest.approx(2 * a, rel=0.02)
        assert rec.best_value <= gauss_ceiling(a) + 1e-4

    def test_bs_example_floor(self):
        rec = search("min01", "bs-example", budget=300, seed=1)
        assert rec.best_value >= 0.375
        assert rec.best_value == pytest.approx(144.0 / (121.0 * PI), abs=1e-6)

    def test_bs_example_is_one_evaluation(self, monkeypatch):
        # no free parameter: one evaluation plus the re-evaluation check
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed

        calls = []
        real = search_mod.q_min_01_bs

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(search_mod, "q_min_01_bs", counted)
        rec = search("min01", "bs-example", seed=3)
        assert rec.evaluations == 1
        assert rec.trace == ((1, rec.best_value),)
        assert rec.dimension == 0 and rec.best_params == ()
        assert rec.best_value == pytest.approx(144.0 / (121.0 * PI), abs=1e-6)
        assert len(calls) == 2

    def test_piecewise_min01_is_zero_on_unit_support(self):
        # any bounded function supported in [-1/2, 1/2] has a continuous
        # correlation vanishing at t = 1, so the [0,1] minimum is exactly 0
        # (the non-L2 BS example is the only positive-floor route)
        rec = search("min01", "piecewise", budget=1600, seed=1, dimension=16)
        assert rec.best_value == 0.0
        assert rec.best_value <= min01_ceiling() + 1e-4

    def test_piecewise_min12_sound(self):
        rec = search("min12", "piecewise", budget=1600, seed=3, dimension=8)
        assert 0.0 <= rec.best_value <= 0.829604 + 1e-4

    def test_mean_ceiling_never_broken(self):
        rec = search("mean", "piecewise", budget=1600, seed=5, dimension=8)
        assert rec.best_value <= 0.8641 + 1e-4


class TestBaseline:
    def test_indicator_min12(self):
        assert baseline("min12", "indicator") == pytest.approx(0.54433, abs=1e-3)

    def test_bs_min01(self):
        assert baseline("min01", "bs-example") == pytest.approx(0.3788, abs=1e-3)

    def test_gaussian_mean_scan_recorded(self):
        v = baseline("mean", "gaussian")
        assert 0.5 < v <= 0.8641

    def test_search_reaches_baseline(self):
        for objective, family, kwargs in [
            ("min12", "indicator", {}),
            ("gauss", "gaussian", {"a": 2 * PI}),
        ]:
            floor = baseline(objective, family, **kwargs)
            rec = search(objective, family, budget=600, seed=0, **kwargs)
            assert rec.best_value >= floor - 1e-3

    def test_no_baseline_for_piecewise(self):
        with pytest.raises(ValueError):
            baseline("min12", "piecewise")


class TestEvaluationFailure:
    def test_aborts_with_failing_params(self):
        import numpy as np

        from autocorr.search import SearchError, _evaluate

        def broken_build(params):
            raise ArithmeticError("boom")

        params = np.array([1.0, 2.0])
        with pytest.raises(SearchError) as err:
            _evaluate(broken_build, lambda f: 0.0, params)
        assert np.array_equal(err.value.params, params)
