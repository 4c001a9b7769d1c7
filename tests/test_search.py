"""Search tests: determinism, soundness, floors, record invariants."""

import hashlib
import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autocorr import (
    Gaussian,
    GridFunction,
    Indicator,
    InvariantViolation,
    ZeroFunctionError,
    baseline,
    q_min_01,
    q_min_01_bs,
    q_min_12,
    sample,
    search,
)
from autocorr.functionals import (MIN01_CEILING, gauss_ceiling, gauss_ratio,
                                  lattice_and_norms, mean_ratio)
from autocorr.search import (
    OBJECTIVES,
    _evaluate,
    _family_builder,
    _nelder_mead,
    _objective_kernel,
)

functionals = importlib.import_module("autocorr.functionals")

PI = math.pi


# the golden-section indicator search ignores seed and budget; the piecewise
# family runs the seeded restarts and splits the budget between them
_SEARCHED = [("min12", "indicator", {}), ("min12", "piecewise", {"dimension": 4})]


class TestDeterminism:
    def test_identical_runs(self):
        for objective, family, kwargs in _SEARCHED:
            a = search(objective, family, budget=400, seed=9, **kwargs)
            b = search(objective, family, budget=400, seed=9, **kwargs)
            assert a.trace == b.trace, family
            assert a.best_value == b.best_value, family
            assert a.best_params == b.best_params, family

    def test_different_seeds_may_differ_but_stay_sound(self):
        for objective, family, kwargs in _SEARCHED:
            vals = {search(objective, family, budget=300, seed=s, **kwargs).best_value
                    for s in (1, 2)}
            assert all(v <= 0.829604 + 1e-4 for v in vals), family

    def test_no_regression_with_budget(self):
        for objective, family, kwargs in _SEARCHED:
            small = search(objective, family, budget=300, seed=4, **kwargs)
            large = search(objective, family, budget=900, seed=4, **kwargs)
            assert large.best_value >= small.best_value - 1e-12, family


class TestRecordInvariants:
    def test_trace_best_so_far(self):
        for objective, family, kwargs in _SEARCHED:
            rec = search(objective, family, budget=300, seed=2, **kwargs)
            vals = [v for _, v in rec.trace]
            assert all(b >= a for a, b in zip(vals, vals[1:])), family
            idxs = [i for i, _ in rec.trace]
            assert idxs == list(range(1, len(idxs) + 1)), family
            assert rec.evaluations == len(rec.trace), family
            assert rec.best_value == vals[-1], family

    def test_budget_respected(self):
        for objective, family, kwargs in _SEARCHED:
            rec = search(objective, family, budget=200, seed=0, **kwargs)
            assert rec.evaluations <= 200, family

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
        # neither bs-example nor the golden-section indicator search seeds a
        # generator, so only the check can refuse the seed
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

    @pytest.mark.parametrize("family", ["piecewise", "indicator"])
    @pytest.mark.parametrize("halfwidth", [0.0, -1.0, math.nan, math.inf])
    def test_bad_halfwidth_rejected(self, monkeypatch, family, halfwidth):
        # a piecewise search used to fail the builder's spacing check, an
        # invariant breach (exit 1), on malformed input
        search_mod = importlib.import_module("autocorr.search")
        monkeypatch.setattr(search_mod, "_evaluate", None)  # rejected before any evaluation
        with pytest.raises(ValueError, match="halfwidth must be finite and positive"):
            search("min12", family, halfwidth=halfwidth)

    def test_zero_dimension_rejected(self):
        # 0 used to stand for the 16-cell default; 16 is now the default itself
        with pytest.raises(ValueError, match="dimension must be positive"):
            search("min12", "piecewise", budget=272, dimension=0)
        assert search("min12", "piecewise", budget=272).dimension == 16

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
        # the restarts run in lockstep, so each one logs the points it yields,
        # all of which are scored; ``calls`` concatenates the logs in restart
        # order, as the trace does, and ``starts`` indexes each restart's
        # first evaluation
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        logs = []
        simplex = search_mod._nelder_mead

        def marked(x0):
            log = []
            logs.append(log)
            run = simplex(x0)
            x = next(run)
            while True:
                log.append((tuple(float(v) for v in x), objective(x)))
                score = yield x
                try:
                    x = run.send(score)
                except StopIteration:
                    return

        def evaluate(build, kernel, params):  # a (rows, dim) stack
            return np.array([objective(row) for row in params])

        monkeypatch.setattr(search_mod, "_nelder_mead", marked)
        monkeypatch.setattr(search_mod, "_evaluate", evaluate)
        rec = search("min12", "piecewise", budget=400, seed=0, dimension=2)
        calls = [call for log in logs for call in log]
        starts = [sum(len(log) for log in logs[:r]) for r in range(len(logs))]
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


def _sequential_record(objective, budget, seed, a, dimension, halfwidth):
    """The piecewise search as the restarts ran before lockstep: one after
    another, one point at a time through the one-row kernel, each to its
    share, with the recorder that keeps the trace and the first best point."""
    build, dim = _family_builder("piecewise", dimension, halfwidth)
    kernel = _objective_kernel(objective, a)
    restarts = max(4, dim)
    share = budget // restarts
    trace, best, best_params = [], -math.inf, None
    for r in range(restarts):
        if r == 0:
            x0 = np.ones(dim)
        else:
            rng = np.random.default_rng([seed, r])
            x0 = np.exp(rng.uniform(-math.log(4.0), math.log(4.0), dim))
        simplex = _nelder_mead(x0)
        x = next(simplex)
        for k in range(1, share + 1):
            value = _evaluate(build, kernel, x)
            if value > best:
                best, best_params = value, x.copy()
            trace.append((len(trace) + 1, best))
            if k == share:
                break
            try:
                x = simplex.send(-value)
            except StopIteration:
                break
    return best, tuple(float(v) for v in best_params), len(trace), tuple(trace)


def _bits(record) -> tuple:
    """A record's fields with every float as its hex string: +0 and -0 differ."""
    best, params, evaluations, trace = record
    return (best.hex(), tuple(p.hex() for p in params), evaluations,
            tuple((i, v.hex()) for i, v in trace))


class TestLockstep:
    """The restarts run in lockstep, one stacked evaluation per round; the
    record is bit for bit the one of running them in turn.  Unlike
    ``test_pinned_record`` this holds on every numpy build."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), objective=st.sampled_from(OBJECTIVES), dimension=st.integers(1, 20),
           halfwidth=st.sampled_from([0.5, 0.75, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_sequential(self, data, objective, dimension, halfwidth, seed):
        budget = data.draw(st.integers(max(100, max(4, dimension) * (dimension + 1)), 3000),
                           label="budget")
        a = 2 * PI if objective == "gauss" else None
        rec = search(objective, "piecewise", budget=budget, seed=seed, a=a,
                     dimension=dimension, halfwidth=halfwidth)
        expected = _sequential_record(objective, budget, seed, a, dimension, halfwidth)
        assert _bits((rec.best_value, rec.best_params, rec.evaluations, rec.trace)) == \
            _bits(expected)

    @pytest.mark.parametrize("faults, error", [
        ({(2, 3): np.nan}, RuntimeError),
        ({(2, 3): np.nan, (1, 40): 0.0}, RuntimeError),
        ({(3, 2): np.nan, (2, 5): 0.0}, RuntimeError),
        ({(0, 60): np.inf, (1, 2): 0.0}, ZeroFunctionError),
        ({(0, 4): 0.0, (3, 4): np.nan}, RuntimeError),
        ({(1, 4): 0.0, (2, 4): 1e100}, ZeroFunctionError),
        ({(1, 4): 1e100, (2, 4): 0.0}, ValueError),
    ], ids=["one", "lower-restart-later", "lower-restart-later-2", "restart-0-last",
            "builder-check-first", "lowest-row-first", "lowest-row-first-2"])
    def test_lowest_failed_restart_raises(self, monkeypatch, faults, error):
        # restart r's k-th point, in round k, is replaced by a constant
        # vector: NaN or inf fail the builder check (RuntimeError) for the
        # whole stack, zeros the zero-function check and 1e100 the float
        # range (ValueError); the first round with a refused row raises the
        # builder check's error, or else its lowest refused row's, and the
        # rounds after it never run
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        simplex, made = search_mod._nelder_mead, []

        def faulty(x0):
            r = len(made)
            made.append(r)
            run = simplex(x0)
            x = next(run)
            for k in itertools.count(1):
                if (r, k) in faults:
                    x = np.full(x.size, faults[r, k])
                score = yield x
                try:
                    x = run.send(score)
                except StopIteration:
                    return

        monkeypatch.setattr(search_mod, "_nelder_mead", faulty)
        with np.errstate(all="ignore"), pytest.raises(error) as exc:
            search("min12", "piecewise", budget=400, seed=0, dimension=2)
        assert type(exc.value) is error
        assert len(made) == 4

    def test_refused_round_is_evaluated_once(self, monkeypatch):
        # h sqrt(2a) = 28 is too coarse for the Gaussian weight on every row,
        # so the first round is refused as one stacked evaluation
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        calls = []

        def counted(*args):
            calls.append(args)
            return _evaluate(*args)

        monkeypatch.setattr(search_mod, "_evaluate", counted)
        with pytest.raises(ValueError) as exc:
            search("gauss", "piecewise", a=1e5)
        assert type(exc.value) is ValueError
        assert str(exc.value) == ("lattice too coarse for the Gaussian weight: h sqrt(2a) = 28 "
                                  "needs more than 64 Gauss nodes a cell")
        assert len(calls) == 1


class TestGoldenStability:
    """A one-parameter record survives a one-ulp change of the objective.

    Golden section is handed the objective scaled by 1 + 2^-52, 1 - 2^-53
    or 1, picked from the bits of the parameter, so about one ulp either
    way; the recorder still sees the true values.  On
    the four pairs below and four such patterns the golden record stays
    bit-identical, where the simplex's path moved.  The 1e-6 bracket leaves a
    margin of a few ulps, not a guarantee: a perturbation of four ulps moved
    the gauss/gaussian record at a = 1 in some patterns."""

    PAIRS = [("gauss", "gaussian", {"a": 2 * PI}), ("gauss", "gaussian", {"a": 1.0}),
             ("mean", "gaussian", {}), ("min12", "indicator", {})]

    @staticmethod
    def _record(rec):
        return rec.best_params, rec.best_value, rec.evaluations

    @pytest.mark.parametrize("pattern", range(4))
    @pytest.mark.parametrize("objective, family, kwargs", PAIRS,
                             ids=[f"{o}-{f}-{k.get('a', '')}" for o, f, k in PAIRS])
    def test_last_bit_does_not_move_the_record(self, monkeypatch, objective, family, kwargs,
                                               pattern):
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        expected = self._record(search(objective, family, seed=0, **kwargs))

        def perturbed(fn):
            def seen(x):
                key = int(np.float64(np.ravel(x)[0]).view(np.int64))
                k = ((key * 2654435761 + 97 * pattern) >> 7) % 3
                return fn(x) * (1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 1.0)[k]
            return seen

        golden = search_mod._golden_search
        monkeypatch.setattr(search_mod, "_golden_search",
                            lambda fn, *args: golden(perturbed(fn), *args))
        assert self._record(search(objective, family, seed=0, **kwargs)) == expected

    @pytest.mark.parametrize("objective, family, kwargs", PAIRS,
                             ids=[f"{o}-{f}-{k.get('a', '')}" for o, f, k in PAIRS])
    def test_seed_ignored_and_floor_reached(self, objective, family, kwargs):
        first, again = (search(objective, family, seed=s, **kwargs) for s in (0, 9))
        assert self._record(again) == self._record(first) and again.trace == first.trace
        assert first.best_value >= baseline(objective, family, **kwargs)
        assert first.evaluations < 100


class TestReachPastTheScan:
    """The gauss ratio scales as a^(1/4), with its optimum at theta^2 = 2a
    (Gaussian) or proportional to a^(-1/2) (indicator), so for a far from
    2 pi the optimum lies outside the 288-point scan; the search walks out
    to it, as far as the builder's clamps."""

    @pytest.mark.parametrize("family, a", [("gaussian", 1e-4), ("gaussian", 0.01),
                                           ("gaussian", 1000.0), ("gaussian", 1e5),
                                           ("gaussian", 2e5), ("indicator", 1e-3),
                                           ("indicator", 1000.0), ("indicator", 1e6)])
    def test_optimum_outside_the_scan(self, family, a):
        # the sampled family dilates with its parameter, so the record at a is
        # the record at 2 pi, scaled
        at_2pi = search("gauss", family, a=2 * PI)
        rec = search("gauss", family, a=a)
        scale = (a / (2 * PI)) ** 0.25
        assert rec.best_value / scale == pytest.approx(at_2pi.best_value, rel=1e-12)
        theta2 = at_2pi.best_params[0] ** 2 * (scale ** 4 if family == "gaussian" else scale ** -2)
        assert rec.best_params[0] ** 2 == pytest.approx(theta2, rel=1e-4)
        if family == "gaussian":
            assert rec.best_params[0] ** 2 == pytest.approx(2 * a, rel=1e-4)
        assert rec.evaluations < 100

    @pytest.mark.parametrize("family, a, refused", [("gaussian", 1.2e5, True),
                                                    ("gaussian", 2e5, True),
                                                    ("indicator", 1e6, True),
                                                    ("gaussian", 2 * PI, False),
                                                    ("gaussian", 1e5, False)])
    def test_refused_lattices_left_out_of_the_scan(self, family, a, refused):
        # from a = 1.2e5 the widest Gaussians of the scan (the longest
        # indicators from a = 1e6) give lattices too coarse for the Gaussian
        # weight's per-cell rule; the scan keeps the rest, a run of the grid
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        full = tuple(float(g) for g in search_mod._SCANS[family][1])
        grid, values, i = search_mod._scan("gauss", family, a)
        assert len(grid) == len(values) and values[i] == max(values)
        start = full.index(grid[0])
        assert grid == full[start:start + len(grid)]
        assert (len(grid) < len(full)) == refused
        assert baseline("gauss", family, a=a) == values[i]

    def test_all_refused_raises(self):
        # at a = 1e10 no value of the scan gives an accepted lattice
        with pytest.raises(ValueError, match="lattice too coarse"):
            search("gauss", "gaussian", a=1e10)

    def test_walk_stops_past_the_builder_clamp(self):
        # b* = 2e-5 lies beyond the clamp b >= 1e-4, where the ratio is flat
        rec = search("gauss", "gaussian", a=1e-5)
        build, _ = _family_builder("gaussian", 1, 0.5)
        clamped = _evaluate(build, _objective_kernel("gauss", 1e-5), np.array([1e-2]))
        assert rec.best_value == clamped
        assert rec.evaluations < 100

    def test_endless_rise_stops_on_the_budget(self, monkeypatch):
        # a ratio that rises without end: the walk runs until the budget
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        monkeypatch.setattr(search_mod, "_evaluate", lambda build, kernel, p: float(p[0]) ** 2)
        search_mod._scan.cache_clear()
        try:
            rec = search("min12", "indicator", budget=100)
        finally:
            search_mod._scan.cache_clear()
        assert rec.evaluations == 100
        assert rec.best_params[0] ** 2 == pytest.approx(6.0 * 2.0 ** 99, rel=1e-12)


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
        assert rec.best_value <= MIN01_CEILING + 1e-4

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

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("family", ["indicator", "gaussian"])
    def test_search_never_ends_below_its_floor(self, family, objective):
        # the scan's best point is the search's first evaluation; golden
        # section alone never evaluates it, and min01/indicator peaks exactly
        # on the grid point theta^2 = 1
        a = 2 * PI if objective == "gauss" else None
        rec = search(objective, family, a=a)
        assert rec.best_value >= baseline(objective, family, a=a)
        assert rec.trace[0][1] == baseline(objective, family, a=a)

    def test_no_baseline_for_piecewise(self):
        with pytest.raises(ValueError):
            baseline("min12", "piecewise")

    def test_scan_cached_read_only(self, monkeypatch):
        # the search brackets its golden section from the floor's scan instead
        # of repeating it
        value = baseline("min12", "indicator")
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        evaluate = search_mod._evaluate
        monkeypatch.setattr(search_mod, "_evaluate", None)  # no evaluation may run
        assert baseline("min12", "indicator") == value
        calls = []
        monkeypatch.setattr(search_mod, "_evaluate",
                            lambda *args: calls.append(args) or evaluate(*args))
        rec = search("min12", "indicator")
        assert len(calls) == rec.evaluations


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
# GridFunction as it stands), then the q_* value, with the builders' parameter
# clamps.  For the weighted means it is read off the array core on the q_*
# tuple: the same value, without the Fourier side, which the narrowest
# indicator is too narrow for.
_PUBLIC_FAMILIES = {
    "indicator": (1, lambda p: sample(Indicator(max(float(p[0]) ** 2, 1e-6)), cells=512)),
    "gaussian": (1, lambda p: sample(Gaussian(min(max(float(p[0]) ** 2, 1e-4), 1e6)),
                                     cells=1024)),
    "piecewise": (16, lambda p: GridFunction(-0.5, 1.0 / 16, p ** 2)),
}
_PUBLIC_OBJECTIVES = {
    "mean": lambda f: mean_ratio(lattice_and_norms(f.samples, f.spacing))[0],
    "gauss": lambda f: gauss_ratio(lattice_and_norms(f.samples, f.spacing), 2 * PI)[0],
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
# rows at the golden section of the one-parameter families, which ignores the
# seed: any drift in the arithmetic of the search path changes these.  They
# hold for the numpy build they were taken with; another build may round the
# FFT or exp in the last place.
_PIN_NUMPY = "2.4.6"
_PINNED = [
    ("min12", "piecewise", {"dimension": 16}, 0, "0x1.1c553636ee990p-1", 2000,
     "a7d1d1bf2a9a505389dda1c399b560539fce054c1b319d8fec476a0cdfcb10a4"),
    ("min12", "piecewise", {"dimension": 16}, 1, "0x1.0a60039a79cfbp-1", 2000,
     "6bacd1eee385d4e59a90222ff39e7b1fd197b13bb38d27047e2f67e61bfbae55"),
    ("gauss", "gaussian", {"a": 2 * PI}, 0, "0x1.ae898977574f0p-1", 26,
     "682ac0e484b82cb0cb8a4ae78ba17b038636855dfd60d1a27f40f0a023841352"),
    ("gauss", "gaussian", {"a": 2 * PI}, 1, "0x1.ae898977574f0p-1", 26,
     "682ac0e484b82cb0cb8a4ae78ba17b038636855dfd60d1a27f40f0a023841352"),
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
