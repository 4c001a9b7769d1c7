"""Search tests: determinism, soundness, floors, record invariants."""

import collections
import hashlib
import importlib
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
    InvariantViolation,
    ZeroFunctionError,
    baseline,
    q_min_01,
    q_min_01_bs,
    q_min_12,
    sample,
    search,
)
from autocorr.funcspace import _midpoint_samples
from autocorr.functionals import (MIN01_CEILING, gauss_ceiling, gauss_ratio,
                                  lattice_and_norms, mean_ratio)
from autocorr.search import (
    _SCANS,
    OBJECTIVES,
    _evaluate,
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
        # a piecewise search used to fail the per-round spacing check, an
        # invariant breach (exit 1), on malformed input
        search_mod = importlib.import_module("autocorr.search")
        monkeypatch.setattr(search_mod, "_evaluate", None)  # rejected before any evaluation
        with pytest.raises(ValueError, match="halfwidth must be finite and positive"):
            search("min12", family, halfwidth=halfwidth)

    @pytest.mark.parametrize("halfwidth", [5e-324, 1e308])
    def test_cell_width_outside_float_range_rejected(self, monkeypatch, halfwidth):
        # 2 halfwidth / 16 underflows to 0 or overflows; the cell width used
        # to fail the per-round spacing check, an invariant breach (exit 1),
        # on malformed input
        search_mod = importlib.import_module("autocorr.search")
        monkeypatch.setattr(search_mod, "_evaluate", None)  # rejected before any evaluation
        with pytest.raises(ValueError, match="cell width"):
            search("min12", "piecewise", halfwidth=halfwidth)

    @pytest.mark.parametrize("dimension", [255, 10 ** 12])
    def test_dimension_past_the_pool_rejected(self, monkeypatch, dimension):
        # max(4, dim) (dim + 4) dim floats above 2^24; 10^12 cells used to end
        # in numpy's MemoryError at the first allocation, an exit 1
        search_mod = importlib.import_module("autocorr.search")
        monkeypatch.setattr(search_mod, "_evaluate", None)  # rejected before any evaluation
        with pytest.raises(ValueError, match="dimension"):
            search("min12", "piecewise", budget=10 ** 25, dimension=dimension)

    @pytest.mark.parametrize("objective, family", [("min12", "indicator"), ("gauss", "gaussian"),
                                                   ("min01", "bs-example")])
    @pytest.mark.parametrize("key, value", [("dimension", 7), ("dimension", 16),
                                            ("halfwidth", 3.0), ("halfwidth", 0.5)])
    def test_unread_dimension_or_halfwidth_rejected(self, monkeypatch, objective, family, key,
                                                    value):
        # only the piecewise family reads them; the other families used to
        # return a record that ignored them
        search_mod = importlib.import_module("autocorr.search")
        monkeypatch.setattr(search_mod, "_evaluate", None)  # rejected before any evaluation
        a = 2 * PI if objective == "gauss" else None
        with pytest.raises(ValueError, match=f"the {family} family reads no {key}"):
            search(objective, family, a=a, **{key: value})

    def test_piecewise_defaults(self):
        search_mod = importlib.import_module("autocorr.search")
        rec = search("min12", "piecewise", budget=272)
        assert rec.dimension == search_mod.DEFAULT_DIMENSION == 16
        given = search("min12", "piecewise", budget=272, dimension=16,
                       halfwidth=search_mod.DEFAULT_HALFWIDTH)
        assert (rec.best_value, rec.best_params, rec.trace) == \
            (given.best_value, given.best_params, given.trace)

    def test_zero_dimension_rejected(self):
        # 0 used to stand for the 16-cell default; 16 is now the default itself
        with pytest.raises(ValueError, match="dimension must be positive"):
            search("min12", "piecewise", budget=272, dimension=0)
        assert search("min12", "piecewise", budget=272).dimension == 16

    def test_budget_that_seeds_every_simplex_runs(self):
        rec = search("min12", "piecewise", budget=272, dimension=16)
        assert rec.dimension == 16
        assert rec.evaluations == 272

    @pytest.mark.parametrize("objective, family", [("mean", "indicator"), ("min12", "gaussian"),
                                                   ("min01", "bs-example"),
                                                   ("min12", "piecewise")])
    def test_a_of_another_objective_rejected(self, monkeypatch, objective, family):
        # only the gauss objective reads a; a record labelled mean(a=2), or a
        # second cached scan under a key no evaluation reads, is refused
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        monkeypatch.setattr(search_mod, "_evaluate", None)  # rejected before any evaluation
        monkeypatch.setattr(search_mod._Dilations, "ratio", None)
        with pytest.raises(ValueError, match="reads no a"):
            search(objective, family, seed=0, a=2.0)
        with pytest.raises(ValueError, match="reads no a"):
            baseline(objective, family, a=5.0)

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
        # the restarts run in lockstep, so each restart's recorder logs the
        # points it scores, in order; ``calls`` concatenates the logs in
        # restart order, as the trace does, and ``starts`` indexes each
        # restart's first evaluation
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        logs = []

        class Logged(search_mod._Run):  # one per restart, made in restart order
            def __init__(self):
                super().__init__()
                self.log = []
                logs.append(self.log)

            def record(self, params, value):
                self.log.append((tuple(float(v) for v in params), value))
                super().record(params, value)

        def evaluate(spacing, kernel, params):  # a (rows, dim) stack
            return np.array([objective(row) for row in params])

        monkeypatch.setattr(search_mod, "_Run", Logged)
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


def _nelder_mead(x0, steps):
    """The simplex of one restart on its own, the oracle of the library's
    lockstep rounds: minimize from x0 until the simplex, one (dim + 1, dim)
    array kept sorted by score, collapses.  A generator: it yields each point
    to score and takes its score by ``send``.  ``steps`` counts the steps
    taken: an accepted reflection, an expansion, an accepted contraction, a
    shrink and the collapse that stops the run."""
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    x0 = np.asarray(x0, dtype=np.float64)
    dim = x0.size
    simplex = np.tile(x0, (dim + 1, 1))
    for i in range(dim):
        simplex[i + 1, i] += 0.25 * (abs(x0[i]) if x0[i] != 0 else 1.0)
    scores = np.empty(dim + 1)
    for i in range(dim + 1):
        scores[i] = yield simplex[i]
    while True:
        order = np.argsort(scores)
        simplex, scores = simplex[order], scores[order]
        if np.max(np.abs(simplex[1:] - simplex[0])) < 1e-10:
            steps["stop"] += 1
            return
        centroid = simplex[:-1].sum(axis=0) / dim
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = yield xr
        if scores[0] <= fr < scores[-2]:
            steps["reflection"] += 1
            simplex[-1], scores[-1] = xr, fr
            continue
        if fr < scores[0]:
            steps["expansion"] += 1
            xe = centroid + gamma * (centroid - simplex[-1])
            fe = yield xe
            if fe < fr:
                simplex[-1], scores[-1] = xe, fe
            else:
                simplex[-1], scores[-1] = xr, fr
            continue
        xc = centroid + rho * (simplex[-1] - centroid)
        fc = yield xc
        if fc < scores[-1]:
            steps["contraction"] += 1
            simplex[-1], scores[-1] = xc, fc
            continue
        steps["shrink"] += 1
        simplex[1:] = simplex[0] + sigma * (simplex[1:] - simplex[0])
        for i in range(1, dim + 1):
            scores[i] = yield simplex[i]


def _starts(dim, seed):
    """The piecewise search's restart starts: the ones vector, then seeded."""
    starts = [np.ones(dim)]
    for r in range(1, max(4, dim)):
        rng = np.random.default_rng([seed, r])
        starts.append(np.exp(rng.uniform(-math.log(4.0), math.log(4.0), dim)))
    return starts


def _sequential(score, starts, share, steps):
    """The restarts as they ran before lockstep: one after another, one point
    at a time through ``score``, each to its share or its collapse, with the
    recorder that keeps the trace and the first best point."""
    trace, best, best_params = [], -math.inf, None
    for x0 in starts:
        simplex = _nelder_mead(x0, steps)
        x = next(simplex)
        for k in range(1, share + 1):
            value = score(x)
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


def _sequential_record(objective, budget, seed, a, dimension, halfwidth, steps=None):
    """The piecewise search with the restarts run in turn, each point through
    the one-row kernel."""
    spacing = 2.0 * halfwidth / dimension
    kernel = _objective_kernel(objective, a)
    return _sequential(lambda x: _evaluate(spacing, kernel, x), _starts(dimension, seed),
                       budget // max(4, dimension),
                       collections.Counter() if steps is None else steps)


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
            "finiteness-check-first", "lowest-row-first", "lowest-row-first-2"])
    def test_lowest_failed_restart_raises(self, monkeypatch, faults, error):
        # restart r's k-th point, in round k, is replaced by a constant
        # vector: NaN or inf fail the finiteness check (RuntimeError) for the
        # whole stack, zeros the zero-function check and 1e100 the float
        # range (ValueError); the first round with a refused row raises the
        # finiteness check's error, or else its lowest refused row's, and the
        # rounds after it never run
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        evaluate, rounds = search_mod._evaluate, []

        def faulty(spacing, kernel, params):  # round k's stack, one row per live restart
            rounds.append(len(params))
            params = params.copy()
            for r in range(len(params)):
                if (r, len(rounds)) in faults:
                    params[r] = faults[r, len(rounds)]
            return evaluate(spacing, kernel, params)

        monkeypatch.setattr(search_mod, "_evaluate", faulty)
        with np.errstate(all="ignore"), pytest.raises(error) as exc:
            search("min12", "piecewise", budget=400, seed=0, dimension=2)
        assert type(exc.value) is error
        # all four restarts ran in every round, so row r was restart r
        assert rounds == [4] * min(k for _, k in faults)

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


# The five steps of the simplex.  At dim 1 the second worst vertex is the
# best, so no reflection is ever accepted (s0 <= fr < s0).
_ALL_STEPS = frozenset({"reflection", "expansion", "contraction", "shrink", "stop"})
_DIM_1_STEPS = _ALL_STEPS - {"reflection"}
_SYNTHETIC = {
    "constant": lambda x: 0.5,  # every score ties: shrink after shrink until the collapse
    "capped": lambda x: min(float(x.sum()), 3.0),
    "bowl": lambda x: -float(((x - 2.0) ** 2).sum()),
}


class TestSimplexSteps:
    """Each step of the lockstep simplex against the one-restart oracle, bit
    for bit, on runs in which the oracle counts the step at least once."""

    @pytest.mark.parametrize("name, dim, steps", [
        ("constant", 1, {"shrink", "stop"}), ("constant", 2, {"shrink", "stop"}),
        ("capped", 1, _DIM_1_STEPS), ("capped", 2, _ALL_STEPS), ("capped", 3, _ALL_STEPS),
        ("bowl", 1, {"expansion", "contraction", "stop"}),
        ("bowl", 3, {"reflection", "expansion", "contraction", "stop"}),
    ])
    def test_synthetic_objective(self, monkeypatch, name, dim, steps):
        score = _SYNTHETIC[name]
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        monkeypatch.setattr(search_mod, "_evaluate",
                            lambda spacing, kernel, params: np.array([score(x) for x in params]))
        rec = search("min12", "piecewise", budget=2000, seed=0, dimension=dim)
        counts = collections.Counter()
        expected = _sequential(score, _starts(dim, 0), 2000 // max(4, dim), counts)
        assert _bits((rec.best_value, rec.best_params, rec.evaluations, rec.trace)) == \
            _bits(expected)
        assert all(counts[step] > 0 for step in steps), counts
        if dim == 1:
            assert counts["reflection"] == 0

    @pytest.mark.parametrize("objective, dim, seed, steps", [
        ("min12", 4, 0, _ALL_STEPS), ("mean", 3, 1, _ALL_STEPS), ("gauss", 2, 0, _ALL_STEPS),
        ("mean", 1, 0, _DIM_1_STEPS), ("min12", 1, 0, {"shrink", "stop"}),
    ])
    def test_objective(self, objective, dim, seed, steps):
        a = 2 * PI if objective == "gauss" else None
        rec = search(objective, "piecewise", budget=2000, seed=seed, a=a, dimension=dim)
        counts = collections.Counter()
        expected = _sequential_record(objective, 2000, seed, a, dim, 0.5, counts)
        assert _bits((rec.best_value, rec.best_params, rec.evaluations, rec.trace)) == \
            _bits(expected)
        assert all(counts[step] > 0 for step in steps), counts


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
        full = tuple(float(g) for g in search_mod._SCANS[family].grid)
        grid, values, i = search_mod._scan("gauss", family, a)
        assert len(grid) == len(values) and values[i] == max(values)
        start = full.index(grid[0])
        assert grid == full[start:start + len(grid)]
        assert (len(grid) < len(full)) == refused
        assert baseline("gauss", family, a=a) == values[i]

    @pytest.mark.parametrize("family, a, kept", [("gaussian", 4.1e8, 200.0),
                                                 ("indicator", 1.8e8, 0.26)])
    def test_scan_of_one_point_walks_out(self, family, a, kept):
        # the scan keeps only the narrowest function of the family, an end of
        # the full scan; the walk used to read a second grid point and raise
        # IndexError
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        grid, _, _ = search_mod._scan("gauss", family, a)
        assert grid == (pytest.approx(kept, rel=1e-15),)
        rec = search("gauss", family, a=a)
        assert rec.best_value >= baseline("gauss", family, a=a)
        assert rec.trace[-1][1] > rec.trace[0][1]  # the walk went past the scan
        assert rec.evaluations < 100

    def test_all_refused_raises(self):
        # at a = 1e10 no value of the scan gives an accepted lattice
        with pytest.raises(ValueError, match="lattice too coarse"):
            search("gauss", "gaussian", a=1e10)

    @pytest.mark.parametrize("family, a", [("gaussian", 1.2e5), ("gaussian", 2e5),
                                           ("indicator", 1e6), ("indicator", 1.8e8),
                                           ("gaussian", 4.1e8), ("gaussian", 1e10)])
    def test_refusals_keep_the_per_width_grid(self, family, a):
        # the widths the Gaussian weight refuses are masked out before the
        # stacked evaluation; the scan is still the one of trying every width
        # alone and leaving out the refused ones, value for value, and a scan
        # that refuses every width raises the first width's own refusal
        search_mod = importlib.import_module("autocorr.search")
        scan, kernel = search_mod._SCANS[family], _objective_kernel("gauss", a)
        grid, values, refusals = [], [], []
        for g in scan.grid:
            try:
                value = scan.ratio(kernel, math.sqrt(g) ** 2)
            except ValueError as err:
                refusals.append(str(err))
            else:
                grid.append(float(g))
                values.append(value)
        search_mod._scan.cache_clear()
        try:
            if not values:
                with pytest.raises(ValueError, match="lattice too coarse") as got:
                    search_mod._scan("gauss", family, a)
                assert str(got.value) == refusals[0]
                return
            got = search_mod._scan("gauss", family, a)
        finally:
            search_mod._scan.cache_clear()
        assert got[0] == tuple(grid) and got[2] == int(np.argmax(values))
        assert [v.hex() for v in got[1]] == [v.hex() for v in values]

    def test_walk_stops_past_the_builder_clamp(self):
        # b* = 2e-5 lies beyond the clamp b >= 1e-4, where the ratio is flat
        rec = search("gauss", "gaussian", a=1e-5)
        clamped = _SCANS["gaussian"].ratio(_objective_kernel("gauss", 1e-5), 1e-2 ** 2)
        assert rec.best_value == clamped
        assert rec.best_params == (1e-2,)  # the clamp, not the theta the walk stepped to
        assert rec.evaluations < 100

    @pytest.mark.parametrize("a, clamp", [(1e-5, 1e-4), (4.1e8, 1e6)])
    def test_record_past_a_gaussian_clamp_names_the_scored_function(self, a, clamp):
        # the walk's first best point lies past the clamp of b = theta^2
        # (theta^2 = 9.77e-5 and 1.6384e6 were reported); the record reports
        # the clamp, and re-evaluating it gives the best value bit for bit
        rec = search("gauss", "gaussian", a=a)
        assert rec.best_params[0] ** 2 == clamp
        assert _SCANS["gaussian"].ratio(_objective_kernel("gauss", a),
                                        rec.best_params[0] ** 2) == rec.best_value
        assert rec.evaluations < 100

    def test_record_past_the_indicator_clamp_names_the_scored_function(self, monkeypatch):
        # a ratio that rises as the indicator narrows, minus the cell width:
        # the walk halves theta^2 from the scan's first point past the clamp
        # A >= 1e-6, where the ratio is flat, and the record reports the clamp
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        monkeypatch.setattr(search_mod, "_objective_kernel",
                            lambda objective, a: lambda lat: -lat[1])
        search_mod._scan.cache_clear()
        try:
            rec = search("min12", "indicator")
        finally:
            search_mod._scan.cache_clear()
        assert rec.best_params[0] ** 2 == 1e-6
        assert _SCANS["indicator"].ratio(lambda lat: -lat[1], rec.best_params[0] ** 2) == \
            rec.best_value
        assert rec.best_value == -2.0 * 1e-6 / 512
        assert rec.evaluations < 100

    def test_endless_rise_stops_on_the_budget(self, monkeypatch):
        # a ratio that rises without end, the cell width: the walk runs until
        # the budget
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        monkeypatch.setattr(search_mod, "_objective_kernel",
                            lambda objective, a: lambda lat: lat[1])
        search_mod._scan.cache_clear()
        try:
            rec = search("min12", "indicator", budget=100)
        finally:
            search_mod._scan.cache_clear()
        assert rec.evaluations == 100
        assert rec.best_params[0] ** 2 == pytest.approx(6.0 * 2.0 ** 99, rel=1e-12)


def _sampled_scan(objective, family, a):
    """The scan as the families were evaluated before one profile stood for
    each: the function sampled anew at every theta^2 of the scan, with the
    builder clamps, and its own ``lattice_and_norms`` tuple; a value whose
    lattice the objective refuses is left out.  Also each theta^2's width."""
    kernel = _objective_kernel(objective, a)
    full = np.linspace(0.26, 6.0, 288) if family == "indicator" else np.geomspace(0.05, 200.0, 288)
    grid, values, spacings = [], [], []
    for g in full:
        t2 = math.sqrt(g) ** 2  # theta^2 as the golden search gives it
        if family == "indicator":
            A = max(t2, 1e-6)
            samples, h = _midpoint_samples(Indicator(A), -A, A, 512)
        else:
            f = Gaussian(min(max(t2, 1e-4), 1e6))
            samples, h = _midpoint_samples(f, *f.default_support(), 1024)
        spacings.append(h)
        try:
            value = kernel(lattice_and_norms(samples, h))
        except ValueError:
            continue
        grid.append(float(g))
        values.append(value)
    return tuple(grid), tuple(values), int(np.argmax(values)), spacings


_SCAN_CASES = [(o, f, 2 * PI if o == "gauss" else None)
               for o in OBJECTIVES for f in ("indicator", "gaussian")]


class TestOneLatticePerScan:
    """A one-parameter family is one profile at 288 cell widths: its scan
    correlates the profile once and reads every width off that lattice."""

    @pytest.mark.parametrize("objective, family, a", _SCAN_CASES)
    def test_one_correlation_per_scan(self, monkeypatch, objective, family, a):
        # from cleared caches, this objective's scan first, then the other
        # objectives' scans of the family, then a search of each: the family's
        # profile is correlated once, whichever objective reads it first
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        scan = search_mod._SCANS[family]
        real, calls = search_mod.lattice_autocorrelation, []

        def counted(samples):
            calls.append(samples is scan.profile)
            return real(samples)

        def clear():
            search_mod._scan.cache_clear()
            vars(scan).pop("unit", None)

        cases = [(objective, a)] + [(o, b) for o, f, b in _SCAN_CASES
                                    if f == family and o != objective]
        monkeypatch.setattr(search_mod, "lattice_autocorrelation", counted)
        clear()
        try:
            for o, b in cases:
                search_mod._scan(o, family, b)
            for o, b in cases:
                search(o, family, a=b)
        finally:
            clear()
        assert calls == [True]

    @pytest.mark.parametrize("objective, family, a", _SCAN_CASES)
    def test_scan_is_stacked(self, monkeypatch, objective, family, a):
        # the scan makes no per-width evaluation: its blocks of widths go
        # through the objective's array core, bit for bit each width's own
        search_mod = importlib.import_module("autocorr.search")
        scan, kernel = search_mod._SCANS[family], _objective_kernel(objective, a)
        want = [scan.ratio(kernel, math.sqrt(g) ** 2) for g in scan.grid]
        calls = []
        monkeypatch.setattr(search_mod._Dilations, "ratio",
                            lambda self, kernel, t2: calls.append(t2))
        search_mod._scan.cache_clear()
        try:
            grid, values, i = search_mod._scan(objective, family, a)
        finally:
            search_mod._scan.cache_clear()
        assert calls == []
        assert grid == tuple(scan.grid.tolist()) and i == int(np.argmax(want))
        assert [v.hex() for v in values] == [v.hex() for v in want]

    @pytest.mark.parametrize("family", ["indicator", "gaussian"])
    def test_dilation_is_the_lattice_at_each_spacing(self, family):
        # the scan and the golden search read the same bits: at the scan's
        # widths, at the widths the outward walk and golden section reach
        # from the scan's ends, and past the clamps of both families
        scan = importlib.import_module("autocorr.search")._SCANS[family]
        at = scan.lattice
        theta2 = [math.sqrt(g) ** 2 for g in scan.grid]
        theta2 += [g * 2.0 ** k for g in scan.grid[[0, -1]] for k in range(-10, 11)]
        for t2 in theta2 + [1e-9, 1e-8, 1e8]:
            h = scan.spacing(t2)
            got, want = at(h), lattice_and_norms(scan.profile, h)
            assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64)), t2
            assert [np.float64(x).view(np.int64) for x in got[1:]] == \
                [np.float64(x).view(np.int64) for x in want[1:]], t2
        # an array of widths gives the stacked tuple, each row the tuple at its width
        hs = np.array([scan.spacing(t2) for t2 in theta2 + [1e-9, 1e-8, 1e8]])
        c, h, l1, l2 = at(hs)
        for r, width in enumerate(hs.tolist()):
            want = lattice_and_norms(scan.profile, width)
            assert np.array_equal(c[r].view(np.int64), want[0].view(np.int64)), width
            assert [np.float64(x).view(np.int64) for x in (h[r], l1[r], l2[r])] == \
                [np.float64(x).view(np.int64) for x in want[1:]], width

    @pytest.mark.parametrize("family, spacing", [
        ("indicator", _SCANS["indicator"].spacing(1e300)), ("indicator", 1e-300),
        ("gaussian", 1e300), ("gaussian", 1e-300)])
    def test_dilation_refuses_as_the_lattice_does(self, family, spacing):
        # a scale the float range cannot hold: the indicator at theta^2 =
        # 1e300, past which its spacing rule has no clamp, and widths beyond
        # what either profile's norms can hold
        scan = _SCANS[family]
        at = scan.lattice
        with pytest.raises(ValueError, match="outside the float range") as got:
            at(spacing)
        with pytest.raises(ValueError, match="outside the float range") as want:
            lattice_and_norms(scan.profile, spacing)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="outside the float range") as stacked:
            at(np.array([scan.spacing(1.0), spacing, spacing / 2]))
        assert type(stacked.value) is type(want.value) and str(stacked.value) == str(want.value)

    @pytest.mark.parametrize("family", ["indicator", "gaussian"])
    def test_overflowing_block_refused_without_a_warning(self, family):
        # a block of widths whose lattice and norms overflow: numpy's
        # RuntimeWarning ("overflow encountered in multiply") used to come
        # before the scale refusal, and under warnings as errors ended the run
        scan = _SCANS[family]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside the float range"):
                scan.lattice(np.array([scan.spacing(1.0), 1e300, 5e299]))

    @pytest.mark.parametrize("objective, family, a", _SCAN_CASES + [("gauss", "gaussian", 1.2e5),
                                                                    ("gauss", "indicator", 1e6)])
    def test_scan_equals_the_sampled_families(self, objective, family, a):
        # the same grid, refusals included, and best point; the indicator's
        # cells are all 1 at every width, so its values keep every bit, while
        # the Gaussian's move by the rounding of b x^2
        search_mod = importlib.import_module("autocorr.search")  # the name is shadowed
        scan = search_mod._SCANS[family]
        grid, values, i = search_mod._scan(objective, family, a)
        old_grid, old_values, old_i, old_spacings = _sampled_scan(objective, family, a)
        assert [scan.spacing(math.sqrt(g) ** 2) for g in scan.grid] == old_spacings
        assert grid == old_grid and i == old_i
        if family == "indicator":
            assert values == old_values
        scale = max(abs(v) for v in old_values)
        assert max(abs(x - y) for x, y in zip(values, old_values)) <= 1e-14 * scale

    def test_profile_is_the_sampled_gaussian(self):
        # at every theta^2 of the scan and past both clamps, exp(-b x^2)
        # sampled on its support is the b = 1 profile at the rule's width
        scan = importlib.import_module("autocorr.search")._SCANS["gaussian"]
        for t2 in [math.sqrt(g) ** 2 for g in scan.grid] + [1e-6, 1e-4, 1e6, 1e8]:
            f = sample(Gaussian(min(max(t2, 1e-4), 1e6)), cells=1024)
            assert f.spacing == scan.spacing(t2), t2
            assert np.all(np.abs(scan.profile - f.samples) <= 1.5e-14 * f.samples), t2


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
        ratio = search_mod._Dilations.ratio
        monkeypatch.setattr(search_mod._Dilations, "ratio", None)  # no evaluation may run
        assert baseline("min12", "indicator") == value
        calls = []
        monkeypatch.setattr(search_mod._Dilations, "ratio",
                            lambda scan, *args: calls.append(args) or ratio(scan, *args))
        rec = search("min12", "indicator")
        assert len(calls) == rec.evaluations


class TestEvaluationFailure:
    # an evaluation's error propagates with its own class, not re-wrapped
    def test_aborts_with_failing_params(self):
        def broken_kernel(lat):
            raise ArithmeticError("boom")

        with pytest.raises(ArithmeticError, match="boom"):
            _evaluate(0.5, broken_kernel, np.array([1.0, 2.0]))

    def test_zero_piecewise_vector_raises_zero_function_error(self):
        kernel = _objective_kernel("min12", None)
        with pytest.raises(ZeroFunctionError):
            _evaluate(1.0 / 16, kernel, np.zeros(16))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        # the simplex chose the parameters, so non-finite cells exit 1
        kernel = _objective_kernel("mean", None)
        with pytest.raises(RuntimeError, match="non-finite"):
            _evaluate(0.25, kernel, np.array([1.0, bad, 1.0, 1.0]))

    def test_ceiling_breach_surfaces_as_invariant_violation(self, monkeypatch):
        # every evaluation runs the proven-ceiling check; a lowered ceiling
        # stands in for a numerics bug that pushes a ratio past it
        monkeypatch.setattr(functionals, "MIN12_CEILING", 0.1)
        with pytest.raises(InvariantViolation):
            search("min12", "indicator", budget=200, seed=0)


# The public path that the kernels must reproduce bit for bit: the family
# sampled through ``sample`` (or the step function on [-1/2, 1/2], which is a
# GridFunction as it stands), then the q_* value, with the builders' parameter
# clamps.  The Gaussian family is the b = 1 samples on the grid that
# ``sample`` gives exp(-b x^2); they match its own samples to 1.5e-14
# relative (``TestOneLatticePerScan``).  For the weighted means the value is
# read off the array core on the q_* tuple: the same value, without the
# Fourier side, which the narrowest indicator is too narrow for.
_UNIT_GAUSSIAN = sample(Gaussian(1.0), cells=1024).samples


def _public_gaussian(p):
    f = sample(Gaussian(min(max(float(p[0]) ** 2, 1e-4), 1e6)), cells=1024)
    return GridFunction(f.origin, f.spacing, _UNIT_GAUSSIAN)


_PUBLIC_FAMILIES = {
    "indicator": (1, lambda p: sample(Indicator(max(float(p[0]) ** 2, 1e-6)), cells=512)),
    "gaussian": (1, _public_gaussian),
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
        a = 2 * PI if objective == "gauss" else None
        kernel = _objective_kernel(objective, a)

        def ratio(params):
            if family == "piecewise":
                return _evaluate(1.0 / 16, kernel, params)
            return _SCANS[family].ratio(kernel, float(params[0]) ** 2)

        rng = np.random.default_rng([7, dim, len(objective)])
        cases = [np.array(p) for p in _EDGE_PARAMS[family]]
        cases += [rng.uniform(-3.0, 3.0, dim) for _ in range(6)]
        for params in cases:
            expected = _PUBLIC_OBJECTIVES[objective](public_build(params))
            assert ratio(params) == expected, params

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
# rows' traces at the scans of one dilated profile (their best value and
# evaluation count at the golden section before it, which ignores the seed):
# any drift in the arithmetic of the search path changes these.  They hold
# for the numpy build they were taken with; another build may round the FFT
# or exp in the last place.
_PIN_NUMPY = "2.4.6"
_PINNED = [
    ("min12", "piecewise", {"dimension": 16}, 0, "0x1.1c553636ee990p-1", 2000,
     "a7d1d1bf2a9a505389dda1c399b560539fce054c1b319d8fec476a0cdfcb10a4"),
    ("min12", "piecewise", {"dimension": 16}, 1, "0x1.0a60039a79cfbp-1", 2000,
     "6bacd1eee385d4e59a90222ff39e7b1fd197b13bb38d27047e2f67e61bfbae55"),
    ("gauss", "gaussian", {"a": 2 * PI}, 0, "0x1.ae898977574f0p-1", 26,
     "3d026bff7ea3556f1486c55b5090cdf1150673353a0c6cd56201fc3145d7d837"),
    ("gauss", "gaussian", {"a": 2 * PI}, 1, "0x1.ae898977574f0p-1", 26,
     "3d026bff7ea3556f1486c55b5090cdf1150673353a0c6cd56201fc3145d7d837"),
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
