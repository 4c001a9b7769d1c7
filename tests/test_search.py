"""Search tests: determinism, soundness, floors, record invariants."""

import hashlib
import importlib
import math

import numpy as np
import pytest

from autocorr import (
    Gaussian,
    GridFunction,
    Indicator,
    InvariantViolation,
    ZeroFunctionError,
    baseline,
    q_gauss,
    q_mean,
    q_min_01,
    q_min_01_bs,
    q_min_12,
    sample,
    search,
)
from autocorr.functionals import gauss_ceiling, min01_ceiling
from autocorr.search import (
    OBJECTIVES,
    _baseline_full,
    _evaluate,
    _family_builder,
    _objective_kernel,
)

functionals = importlib.import_module("autocorr.functionals")

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

    @pytest.mark.parametrize("objective, family", [("min12", "piecewise"),
                                                   ("min12", "indicator"),
                                                   ("min01", "bs-example")])
    def test_negative_dimension_rejected(self, objective, family):
        # -3 used to run the 16-cell default and record 16
        with pytest.raises(ValueError, match="dimension"):
            search(objective, family, dimension=-3)

    @pytest.mark.parametrize("objective, family", [("min01", "bs-example"),
                                                   ("min12", "indicator")])
    def test_negative_seed_rejected(self, monkeypatch, objective, family):
        # bs-example seeds no generator, and the other families would seed
        # one only after restart 0 had spent its budget
        search_mod = importlib.import_module("autocorr.search")
        monkeypatch.setattr(search_mod, "_evaluate", None)  # rejected before any evaluation
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            search(objective, family, budget=100, seed=-1)

    @pytest.mark.parametrize("dimension, budget", [(200, 100), (16, 271)])
    def test_budget_below_simplex_seeding_rejected(self, monkeypatch, dimension, budget):
        # each of max(4, dim) restarts needs dim + 1 evaluations to seed its
        # simplex; (200, 100) used to fail as an invariant violation, and
        # (16, 271) ran 16 restarts that never finished seeding
        search_mod = importlib.import_module("autocorr.search")
        monkeypatch.setattr(search_mod, "_evaluate", None)  # rejected before any evaluation
        with pytest.raises(ValueError, match="simplex"):
            search("min12", "piecewise", budget=budget, dimension=dimension)

    def test_budget_that_seeds_every_simplex_runs(self):
        rec = search("min12", "piecewise", budget=272, dimension=16)
        assert rec.dimension == 16
        assert rec.evaluations == 272

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            search("median", "indicator", budget=200, seed=0)
        with pytest.raises(ValueError):
            search("min12", "splines", budget=200, seed=0)
        with pytest.raises(ValueError):
            search("gauss", "gaussian", budget=200, seed=0)  # missing a
        with pytest.raises(ValueError):
            search("mean", "bs-example", budget=200, seed=0)


class TestTieRule:
    """The winner is the first evaluation that attains the best value, so
    ties keep the lowest restart index and, within it, the earliest point."""

    @staticmethod
    def _run(monkeypatch, objective):
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        calls, starts = [], []
        simplex = search_mod._nelder_mead

        def marked(fn, x0):
            starts.append(len(calls))  # the index of this restart's first evaluation
            simplex(fn, x0)

        def evaluate(build, kernel, params):
            calls.append((tuple(float(x) for x in params), objective(params)))
            return calls[-1][1]

        monkeypatch.setattr(search_mod, "_nelder_mead", marked)
        monkeypatch.setattr(search_mod, "_evaluate", evaluate)
        rec = search("min12", "piecewise", budget=400, seed=0, dimension=2)
        assert len(starts) == 4 and rec.evaluations == len(calls)
        return rec, calls, starts

    def test_constant_objective_keeps_restart_0_start(self, monkeypatch):
        rec, calls, starts = self._run(monkeypatch, lambda x: 0.5)
        assert rec.best_value == 0.5
        assert rec.best_params == (1.0, 1.0)  # restart 0 starts at the ones vector
        assert calls[starts[1]][0] != rec.best_params

    def test_later_restart_tying_the_maximum_loses(self, monkeypatch):
        rec, calls, starts = self._run(monkeypatch, lambda x: min(float(x.sum()), 3.0))
        assert rec.best_value == 3.0
        first = next(i for i, (_, v) in enumerate(calls) if v == 3.0)
        assert 0 < first < starts[1]  # reached inside restart 0, not at its start
        assert any(v == 3.0 for _, v in calls[starts[1]:])
        assert rec.best_params == calls[first][0]


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
        # no free parameter: one evaluation, and no re-evaluation
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
        assert len(calls) == 1

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

    def test_scan_cached_read_only(self, monkeypatch):
        # the search seeds restart 0 from the floor's scan instead of repeating it
        value, params = _baseline_full("min12", "indicator")
        assert isinstance(params, tuple)
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        monkeypatch.setattr(search_mod, "_evaluate", None)  # no evaluation may run
        assert _baseline_full("min12", "indicator") == (value, params)
        assert baseline("min12", "indicator") == value


class TestEvaluationFailure:
    # an evaluation's error propagates with its own class, not re-wrapped
    def test_aborts_with_failing_params(self):
        def broken_build(params):
            raise ArithmeticError("boom")

        with pytest.raises(ArithmeticError, match="boom"):
            _evaluate(broken_build, lambda s, h: 0.0, np.array([1.0, 2.0]))

    def test_zero_piecewise_vector_raises_zero_function_error(self):
        build, _ = _family_builder("piecewise", 16, 0.5)
        kernel = _objective_kernel("min12", None)
        with pytest.raises(ZeroFunctionError):
            _evaluate(build, kernel, np.zeros(16))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        # the simplex chose the parameters, so bad builder output exits 1
        build, _ = _family_builder("piecewise", 4, 0.5)
        kernel = _objective_kernel("mean", None)
        with pytest.raises(RuntimeError, match="non-finite"):
            _evaluate(build, kernel, np.array([1.0, bad, 1.0, 1.0]))

    def test_ceiling_breach_surfaces_as_invariant_violation(self, monkeypatch):
        # every evaluation runs the proven-ceiling check; a lowered ceiling
        # stands in for a numerics bug that pushes a ratio past it
        monkeypatch.setattr(functionals, "MIN12_CEILING", 0.1)
        with pytest.raises(InvariantViolation):
            search("min12", "indicator", budget=200, seed=0)


# The public path that the kernels must reproduce bit for bit: the family
# sampled through ``sample`` (or the step function on [-1/2, 1/2], which is a
# GridFunction as it stands), then the q_* functional, with the builders'
# parameter clamps.
_PUBLIC_FAMILIES = {
    "indicator": (1, lambda p: sample(Indicator(max(float(p[0]) ** 2, 1e-6)), cells=512)),
    "gaussian": (1, lambda p: sample(Gaussian(min(max(float(p[0]) ** 2, 1e-4), 1e6)),
                                     cells=1024)),
    "piecewise": (16, lambda p: GridFunction(-0.5, 1.0 / 16, p ** 2)),
}
_PUBLIC_OBJECTIVES = {
    "mean": lambda f: q_mean(f, method="time").value,
    "gauss": lambda f: q_gauss(f, 2 * PI, method="time").value,
    "min12": lambda f: q_min_12(f).value,
    "min01": lambda f: q_min_01(f).value,
}
# parameters at and beyond the clamps: A = 1e-6, b = 1e-4 and b = 1e6
_EDGE_PARAMS = {
    "indicator": [[0.0], [1e-3], [1e-4]],
    "gaussian": [[0.0], [1e-2], [1e3], [1e4]],
    "piecewise": [[1.0] * 8 + [0.0] * 8, [1e-3] * 16],
}


class TestKernelsMatchPublicPath:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("family", ["indicator", "gaussian", "piecewise"])
    def test_kernel_equals_q_value(self, family, objective):
        dim, public_build = _PUBLIC_FAMILIES[family]
        build, _ = _family_builder(family, dim, 0.5)
        a = 2 * PI if objective == "gauss" else None
        kernel = _objective_kernel(objective, a)
        rng = np.random.default_rng([7, dim, len(objective)])
        cases = [np.array(p) for p in _EDGE_PARAMS[family]]
        cases += [rng.uniform(-3.0, 3.0, dim) for _ in range(6)]
        for params in cases:
            expected = _PUBLIC_OBJECTIVES[objective](public_build(params))
            assert _evaluate(build, kernel, params) == expected, params

    # every candidate is evaluated once, through the kernel; the winner's value
    # must still be the public q_* value at its parameters
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("family", ["indicator", "gaussian", "piecewise"])
    def test_best_value_is_public_value(self, family, objective, seed):
        a = 2 * PI if objective == "gauss" else None
        rec = search(objective, family, budget=400, seed=seed, a=a)
        f = _PUBLIC_FAMILIES[family][1](np.array(rec.best_params))
        assert rec.best_value == _PUBLIC_OBJECTIVES[objective](f)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bs_best_value_is_public_value(self, seed):
        assert search("min01", "bs-example", seed=seed).best_value == q_min_01_bs().value


# The min12 rows are pinned at the commit before the array kernels, the gauss
# rows at the per-cell Gaussian weights: any drift in the arithmetic of the
# search path changes these.  They hold for the numpy build they were
# taken with; another build may round the FFT or exp in the last place.
_PIN_NUMPY = "2.4.6"
_PINNED = [
    ("min12", "piecewise", {"dimension": 16}, 0, "0x1.1c553636ee990p-1", 2000,
     "a7d1d1bf2a9a505389dda1c399b560539fce054c1b319d8fec476a0cdfcb10a4"),
    ("min12", "piecewise", {"dimension": 16}, 1, "0x1.0a60039a79cfbp-1", 2000,
     "6bacd1eee385d4e59a90222ff39e7b1fd197b13bb38d27047e2f67e61bfbae55"),
    ("gauss", "gaussian", {"a": 2 * PI}, 0, "0x1.ae898977574f5p-1", 330,
     "d61a8f14551b7e8e3166d287253207c1af97933a17b404c1206a9489cede51e7"),
    ("gauss", "gaussian", {"a": 2 * PI}, 1, "0x1.ae898977574f5p-1", 316,
     "53805af645af6554e1b924db7f89d8f086d9282d3879c585a02b7b37291a1b52"),
]


@pytest.mark.skipif(np.__version__ != _PIN_NUMPY,
                    reason=f"records pinned with numpy {_PIN_NUMPY}")
@pytest.mark.parametrize("objective, family, kwargs, seed, best, evaluations, trace_sha",
                         _PINNED, ids=[f"{p[0]}-{p[1]}-{p[3]}" for p in _PINNED])
def test_pinned_record(objective, family, kwargs, seed, best, evaluations, trace_sha):
    rec = search(objective, family, seed=seed, **kwargs)
    assert rec.best_value == float.fromhex(best)
    assert rec.evaluations == evaluations
    assert hashlib.sha256(repr(rec.trace).encode()).hexdigest() == trace_sha
