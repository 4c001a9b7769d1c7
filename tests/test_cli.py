"""CLI tests: subcommands, exit codes, report reproducibility, CSV formats."""

import argparse
import csv
import importlib
import inspect
import json
import math

import pytest

from autocorr import GaussianWeight, GridFunction, IntervalWeight, cli, q_min_12, verification
from autocorr import constants as C
from autocorr import dualcheck as dual
from autocorr.cli import main
from autocorr.correlate import ZeroFunctionError
from autocorr.functionals import InvariantViolation
from autocorr.search import search


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestRoots:
    KEYS = {"module", "name", "y0", "theta0", "xi0", "alpha0", "residual_y0",
            "residual_sinc_min", "tolerance"}

    def test_report(self, tmp_path):
        assert main(["roots", "--out", str(tmp_path)]) == 0
        rep = _load(tmp_path / "roots_report.json")
        assert rep["schema"] == 1
        assert rep["command"] == "roots"
        assert [set(r) for r in rep["results"]] == [self.KEYS]
        r = rep["results"][0]
        assert abs(r["theta0"] - 0.217234) <= 1e-6
        assert abs(r["xi0"] - 0.71514) <= 1e-5

    def test_reproducible_excluding_timestamp(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["roots", "--out", str(d1)]) == 0
        assert main(["roots", "--out", str(d2)]) == 0
        r1 = _load(d1 / "roots_report.json")
        r2 = _load(d2 / "roots_report.json")
        r1.pop("timestamp"), r2.pop("timestamp")
        r1["config"].pop("out"), r2["config"].pop("out")
        assert r1 == r2


class TestConstants:
    KEYS = {"module", "name", "value", "kind", "ingredients", "tolerance"}

    def test_interval_table(self, tmp_path):
        assert main(["constants", "--weight", "interval", "--out", str(tmp_path)]) == 0
        rep = _load(tmp_path / "constants_report.json")
        by_name = {r["name"]: r for r in rep["results"]}
        assert abs(by_name["mean-upper-inf[interval]"]["value"] - 0.864) <= 5e-4
        assert abs(by_name["min-mixed[-1/2,1/2]"]["value"] - 0.829604) <= 5e-4
        assert [set(r) for r in rep["results"]] == [self.KEYS] * 6
        with open(tmp_path / "constants_sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p", "K_p", "I_w_p", "C_p"]
        assert len(rows) > 30

    def test_gaussian_includes_lower(self, tmp_path):
        assert main(["constants", "--weight", "gaussian", "--p-max", "4",
                     "--out", str(tmp_path)]) == 0
        rep = _load(tmp_path / "constants_report.json")
        names = {r["name"] for r in rep["results"]}
        assert "gaussian-mean-lower" in names
        assert [set(r) for r in rep["results"]] == [self.KEYS] * 7

    def test_gaussian_to_certified_p_max(self, tmp_path):
        # the Gaussian closed forms used to overflow from p = 119
        assert main(["constants", "--weight", "gaussian", "--p-min", "299",
                     "--p-max", "300", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "constants_sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[-1][0] == "300"

    def test_short_range_sweep_reaches_p_max(self, tmp_path):
        # the sweep used to be its own quarter-step grid, and stopped at p = 2
        assert main(["constants", "--p-min", "2", "--p-max", "2.1",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "constants_sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [r[0] for r in rows[1:]] == ["2", "2.1"]

    @pytest.mark.parametrize("flags, w, p_max", [
        ([], IntervalWeight(), 12.0),
        (["--weight", "gaussian", "--a", "3", "--p-max", "4.1"], GaussianWeight(3.0), 4.1)],
        ids=["interval", "gaussian"])
    def test_sweep_csv_is_the_infimum_scan(self, tmp_path, flags, w, p_max):
        assert main(["constants", *flags, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "constants_sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [[f"{r.ingredients['p']:.6g}", f"{r.ingredients['K_p']:.12g}",
                             f"{r.ingredients['I_w_p']:.12g}", f"{r.value:.12g}"]
                            for r in C.mean_upper_sweep(w, (2.0, p_max))]

    @pytest.mark.parametrize("flags", [["--p-max", "400"], ["--p-min", "1.5"],
                                       ["--p-min", "5", "--p-max", "4"]],
                             ids=["above-certified", "below-two", "reversed"])
    def test_p_range_outside_certified_rejected(self, tmp_path, capsys, flags):
        # --p-max 400 used to work through ~1,300 sweep moments, then exit 1
        assert main(["constants", *flags, "--out", str(tmp_path)]) == 2
        assert "p_max" in capsys.readouterr().err
        assert not (tmp_path / "constants_report.json").exists()

    def test_p_range_checked_in_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "constants", "p_max": 301,
                                   "out": str(tmp_path)}))
        assert main(["--config", str(cfg)]) == 2


class TestEvaluate:
    KEYS = {"module", "functional", "method", "value", "numerator", "fourier_numerator", "l1",
            "l2", "error_estimate", "support_window", "tolerance"}

    def test_bs_min01(self, tmp_path):
        assert main(["evaluate", "--family", "bs-example", "--functional", "min01",
                     "--out", str(tmp_path)]) == 0
        rep = _load(tmp_path / "evaluate_report.json")
        assert [set(r) for r in rep["results"]] == [self.KEYS]
        assert rep["results"][0]["value"] >= 0.3788 - 1e-3
        # the BS example is not square integrable, and no grid samples it
        assert rep["results"][0]["l2"] is None
        assert rep["results"][0]["support_window"] is None

    def test_gaussian_mean(self, tmp_path):
        assert main(["evaluate", "--family", "gaussian", "--b", "2.0",
                     "--functional", "mean", "--cells", "1024",
                     "--out", str(tmp_path)]) == 0
        rep = _load(tmp_path / "evaluate_report.json")
        assert [set(r) for r in rep["results"]] == [self.KEYS]
        assert 0 < rep["results"][0]["value"] <= 0.8641 + 1e-4

    @pytest.mark.parametrize("functional, name", [("mean", "q_mean"), ("gauss", "q_gauss")])
    def test_tol_reaches_functional(self, tmp_path, monkeypatch, functional, name):
        # the report echoes --tol, so the Fourier side must run at it
        seen = []
        orig = getattr(cli.fun, name)

        def recording(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return orig(*args, **kwargs)

        monkeypatch.setattr(cli.fun, name, recording)
        assert main(["evaluate", "--family", "gaussian", "--functional", functional,
                     "--cells", "256", "--tol", "1e-7", "--out", str(tmp_path)]) == 0
        assert seen == [1e-7]
        assert _load(tmp_path / "evaluate_report.json")["results"][0]["tolerance"] == 1e-7

    def test_bad_functional_family_combo(self, tmp_path):
        assert main(["evaluate", "--family", "bs-example", "--functional", "mean",
                     "--out", str(tmp_path)]) == 2

    def test_missing_family(self, tmp_path):
        assert main(["evaluate", "--functional", "mean", "--out", str(tmp_path)]) == 2

    def test_missing_functional(self, tmp_path):
        assert main(["evaluate", "--family", "gaussian", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "evaluate_report.json").exists()

    def test_piecewise_constant_from_config(self, tmp_path):
        # the step function itself, one cell per value, not a resampling of it
        values = [1, 2, 3, 2, 1]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "evaluate", "family": "piecewise-constant",
                                   "functional": "min12", "s": 0.75, "values": values,
                                   "out": str(tmp_path)}))
        assert main(["--config", str(cfg)]) == 0
        res = _load(tmp_path / "evaluate_report.json")["results"][0]
        assert res["value"] == q_min_12(GridFunction(-0.75, 0.3, values)).value
        assert res["support_window"] == [-0.75, 0.75]

    def test_piecewise_constant_is_exact(self, tmp_path):
        # h = 1/3: f*f is 8/3 at t = 1/3 and 1 at t = 2/3, so the minimum over
        # [-1/2, 1/2] is their mean 11/6; ||f||_1 = 2 and ||f||_2^2 = 14/3.
        # Resampled at 2048 midpoints it read 0.42424407.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "evaluate", "family": "piecewise-constant",
                                   "functional": "min12", "values": [1, 2, 3],
                                   "out": str(tmp_path)}))
        assert main(["--config", str(cfg)]) == 0
        res = _load(tmp_path / "evaluate_report.json")["results"][0]
        assert res["numerator"] == pytest.approx(11 / 6, rel=1e-14)
        assert res["value"] == pytest.approx(11 / 6 / (2 * math.sqrt(14 / 3)), rel=1e-14)
        assert round(res["value"], 10) == 0.4243342124
        assert _load(tmp_path / "evaluate_report.json")["config"]["cells"] == 3

    @pytest.mark.parametrize("extra", [{"cells": 600}, {"support": 1.0}])
    def test_piecewise_constant_rejects_grid_keys(self, tmp_path, capsys, extra):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "evaluate", "family": "piecewise-constant",
                                   "functional": "min12", "values": [1, 2, 3],
                                   "out": str(tmp_path / "out"), **extra}))
        assert main(["--config", str(cfg)]) == 2
        assert repr(*extra) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values", [[], [1.0, -0.5], [1.0, "2"], [True, 1.0], [10 ** 400],
                                        "NaN", "Infinity"])
    def test_piecewise_constant_bad_values(self, tmp_path, capsys, values):
        # JSON's NaN and Infinity parse to floats; the strings stand for them
        values = [float(values)] if isinstance(values, str) else values
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "evaluate", "family": "piecewise-constant",
                                   "functional": "min12", "values": values,
                                   "out": str(tmp_path / "out")}))
        assert main(["--config", str(cfg)]) == 2
        assert "'values'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("functional", ["mean", "gauss", "min12", "min01"])
    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_piecewise_constant_scale_out_of_float_range(self, tmp_path, capsys, scale,
                                                          functional):
        # the ratio is scale-invariant, but f*f overflows at 1e200 (which used to
        # exit 0 with "value": NaN) and underflows at 1e-170 (once "zero function")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "evaluate", "family": "piecewise-constant",
                                   "functional": functional,
                                   "values": [scale, 2 * scale, 3 * scale],
                                   "out": str(tmp_path / "out")}))
        assert main(["--config", str(cfg)]) == 2  # and no numpy warning (filterwarnings)
        assert "sample scale" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_piecewise_constant_needs_values(self, tmp_path):
        assert main(["evaluate", "--family", "piecewise-constant", "--functional", "min12",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("support", ["0", "-1"])
    def test_empty_support_rejected(self, tmp_path, support):
        # --support 0 is the empty window [0, 0], not the default window
        assert main(["evaluate", "--family", "gaussian", "--functional", "min12",
                     "--support", support, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "evaluate_report.json").exists()

    def test_indicator_halfwidth_from_s(self, tmp_path):
        # --s is the indicator halfwidth; --a (the Gaussian weight) leaves it alone
        windows = []
        for extra in (["--functional", "min12"], ["--functional", "gauss", "--a", "1.0"]):
            assert main(["evaluate", "--family", "indicator", "--s", "0.75", *extra,
                         "--out", str(tmp_path)]) == 0
            result = _load(tmp_path / "evaluate_report.json")["results"][0]
            windows.append(result["support_window"])
            if result["functional"] == "min12":
                assert result["value"] == pytest.approx(0.5443, abs=1e-3)
        assert windows[1] == windows[0]


class TestTolerance:
    # --tol 0 used to end in a ZeroDivisionError traceback (dual) or pass
    # unread (evaluate min12), and --tol nan exited 0; dual now reads no
    # --tol at all, so argparse refuses the flag
    ARGV = {"dual": ["dual"],
            "evaluate": ["evaluate", "--family", "indicator", "--functional", "min12"]}

    @pytest.mark.parametrize("tol", ["0", "nan", "-1e-8"])
    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_tol_must_be_finite_positive(self, tmp_path, capsys, command, tol):
        out = tmp_path / "out"
        argv = [*self.ARGV[command], f"--tol={tol}", "--out", str(out)]
        if command == "dual":
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "--tol" in capsys.readouterr().err
        else:
            assert main(argv) == 2
            assert "'tol'" in capsys.readouterr().err
        assert not out.exists()

    # min12, min01 and the BS example are exact on their lattice or grid and
    # have no Fourier side: --tol used to be echoed as the row's tolerance
    # there, read by nothing
    UNREAD = [("indicator", "min12"), ("gaussian", "min01"), ("bs-example", "min01")]

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("family, functional", UNREAD)
    def test_tol_refused_where_nothing_reads_it(self, tmp_path, capsys, family, functional,
                                               via):
        out = tmp_path / "out"
        if via == "flag":
            code = main(["evaluate", "--family", family, "--functional", functional,
                         "--tol", "1e-3", "--out", str(out)])
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"command": "evaluate", "family": family,
                                       "functional": functional, "tol": 1e-3,
                                       "out": str(out)}))
            code = main(["--config", str(cfg)])
        assert code == 2
        assert "'tol'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family, functional", UNREAD)
    def test_tolerance_null_where_nothing_reads_it(self, tmp_path, family, functional):
        assert main(["evaluate", "--family", family, "--functional", functional,
                     "--out", str(tmp_path)]) == 0
        (row,) = _load(tmp_path / "evaluate_report.json")["results"]
        assert set(row) == TestEvaluate.KEYS and row["tolerance"] is None


class TestSearch:
    KEYS = {"module", "objective", "family", "dimension", "best_params", "best_value",
            "evaluations", "seed"}

    def test_record_and_trace(self, tmp_path):
        assert main(["search", "--functional", "min12", "--family", "indicator",
                     "--budget", "300", "--seed", "5", "--out", str(tmp_path)]) == 0
        rep = _load(tmp_path / "search_report.json")
        assert [set(r) for r in rep["results"]] == [self.KEYS]
        res = rep["results"][0]
        assert res["seed"] == 5
        assert res["best_value"] >= 0.543
        with open(tmp_path / "search_trace.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eval_index", "best_value"]
        assert len(rows) - 1 == res["evaluations"]
        vals = [float(r[1]) for r in rows[1:]]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("flags", [["--dimension", "-3"], ["--dimension", "0"],
                                       ["--dimension", "200", "--budget", "100"],
                                       ["--dimension", "1000000000000",
                                        "--budget", "10000000000000000000000000"]],
                             ids=["negative", "zero", "budget-too-small", "no-array-can-hold"])
    def test_dimension_it_cannot_run(self, tmp_path, capsys, flags):
        # -3 and 0 used to run 16 dimensions; 200 at budget 100 exited 1, and
        # 10^12 ended in numpy's MemoryError traceback, an exit 1
        out = tmp_path / "out"
        assert main(["search", "--functional", "min12", "--family", "piecewise-constant",
                     *flags, "--out", str(out)]) == 2
        assert "dimension" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family, functional", [("indicator", "min12"), ("gaussian", "mean"),
                                                    ("bs-example", "min01"),
                                                    ("piecewise-constant", "min12")])
    def test_dimension_passed_to_the_piecewise_family_only(self, monkeypatch, tmp_path, family,
                                                           functional):
        # search refuses a dimension its family never reads; the runner used
        # to pass the config's 16 cells to every family
        real, calls = cli.run_search, []
        monkeypatch.setattr(cli, "run_search",
                            lambda *args, **kwargs: calls.append(kwargs) or real(*args, **kwargs))
        assert main(["search", "--functional", functional, "--family", family,
                     "--out", str(tmp_path)]) == 0
        (kwargs,) = calls
        assert kwargs.get("dimension") == (16 if family == "piecewise-constant" else None)

    def test_bs_example_rule_checked_at_the_boundary(self):
        # the evaluate form of the rule, before the search runner is called
        cfg = {"command": "search", "family": "bs-example", "functional": "mean"}
        with pytest.raises(ValueError, match="min01"):
            cli._config_from_dict(cfg)

    def test_rfc4180_line_endings(self, tmp_path):
        assert main(["search", "--functional", "min12", "--family", "indicator",
                     "--budget", "200", "--out", str(tmp_path)]) == 0
        raw = (tmp_path / "search_trace.csv").read_bytes()
        assert b"\r\n" in raw


class TestDual:
    BUMP_KEYS = {"module", "bump", "positive_mass", "negative_mass", "value0",
                 "lower_bound", "refined_bound", "margin", "refined_margin",
                 "sum_diff_gap", "identity_gap", "inequality_slack", "error_bound",
                 "tolerance"}
    SCAN_KEYS = {"module", "name", "a_min", "a_max", "points", "min_residual",
                 "residual_at_1", "tolerance"}

    def test_dual_report(self, tmp_path, monkeypatch):
        calls = []
        real = dual.dual_mass_report

        def counted(*args, **kwargs):
            calls.append(args[0].label)
            return real(*args, **kwargs)

        monkeypatch.setattr(dual, "dual_mass_report", counted)
        assert main(["dual", "--out", str(tmp_path)]) == 0
        assert len(calls) == 3  # one report per bump, negative-part check included
        rep = _load(tmp_path / "dual_report.json")
        assert set(rep) == {"schema", "command", "config", "timestamp", "results"}
        bump_rows = [r for r in rep["results"] if "bump" in r]
        assert len(bump_rows) == 3
        assert [set(r) for r in rep["results"]] == [self.BUMP_KEYS] * 3 + [self.SCAN_KEYS]
        for r in bump_rows:
            assert r["positive_mass"] >= 0.410767 - 1e-4
            assert r["positive_mass"] >= r["refined_bound"] - 1e-4
            # the rows' tolerance is the one the masses were computed to
            assert r["error_bound"] <= r["tolerance"] == dual.DUAL_TOL
        with open(tmp_path / "dual_masses.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bump", "pos_mass", "bound", "margin"]
        assert len(rows) == 4

    def test_tol_flag_refused(self, tmp_path, capsys):
        # at --tol 1e-10 two bumps reported error bounds above it, and at
        # 1e-16 the cosine cutoff asked for 5.2e8 samples
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--tol", "1e-10", "--out", str(out)])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()

    def test_tol_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        out = tmp_path / "out"
        cfg.write_text(json.dumps({"command": "dual", "tol": 1e-8, "out": str(out)}))
        assert main(["--config", str(cfg)]) == 2
        assert "'tol'" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    @pytest.mark.parametrize("exc, code", [
        (dual.NormalizationError("window ratio off", (0.0, 0.1)), 1),
        (InvariantViolation("ceiling breached"), 1),
        (ValueError("bad value"), 2),
        (ZeroFunctionError("zero function"), 2),
    ], ids=["normalization-error", "invariant-violation", "value-error",
            "zero-function-error"])
    def test_runner_exception(self, tmp_path, monkeypatch, exc, code):
        def runner(cfg):
            raise exc

        monkeypatch.setitem(cli._RUNNERS, "roots", runner)
        assert main(["roots", "--out", str(tmp_path)]) == code

    @pytest.mark.parametrize("command", ["evaluate", "search"])
    def test_coarse_lattice_exits_0_from_either_command(self, tmp_path, command):
        # at a = 1e10 the Gaussian weight lies inside the first cell of the
        # evaluated lattice and of most of the search's; the time side is the
        # closed form there, and each report stays below g_2(a)
        budget = ["--budget", "100"] if command == "search" else []
        out = tmp_path / "out"
        assert main([command, "--family", "gaussian", "--functional", "gauss",
                     "--a", "1e10", *budget, "--out", str(out)]) == 0
        with open(out / f"{command}_report.json") as fh:
            r = json.load(fh)["results"][0]
        value = r["best_value" if command == "search" else "value"]
        assert 0.0 < value <= (8e10 / (27 * math.pi)) ** 0.25
        if command == "evaluate":  # the a -> inf limit (pi/2)^(1/4)/sqrt(pi)
            assert abs(value - (math.pi / 2) ** 0.25 / math.sqrt(math.pi)) <= 1e-7
            assert r["error_estimate"] <= 1e-8 * r["l1"] * r["l2"]

    def test_term_limit_exits_2_without_a_traceback(self, tmp_path, capsys):
        # a = 1e308 puts the Fourier cutoff past the float range; the term
        # limit refuses it in floats (math.ceil(inf) raised OverflowError)
        out = tmp_path / "out"
        assert main(["evaluate", "--family", "gaussian", "--functional", "gauss",
                     "--a", "1e308", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad input: the Fourier side would sum inf terms")
        assert "Traceback" not in err and not out.exists()


    def test_cells_no_array_can_hold_exit_2(self, tmp_path, capsys):
        # used to end in numpy's MemoryError traceback, an exit 1
        out = tmp_path / "out"
        assert main(["evaluate", "--family", "indicator", "--functional", "min12",
                     "--cells", "1000000000000", "--out", str(out)]) == 2
        assert "cells must be at most" in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_gaussian_weight_constants_exit_0(self, tmp_path):
        # the Gaussian lower bound's scan of b over [0.1a, 10a] overflowed at
        # 2/b and read "invariant violation", an exit 1
        assert main(["constants", "--weight", "gaussian", "--a", "1e-320",
                     "--out", str(tmp_path)]) == 0
        rep = _load(tmp_path / "constants_report.json")
        lower = [r for r in rep["results"] if r["name"] == "gaussian-mean-lower"]
        assert lower[0]["ingredients"]["scan_best_b"] == pytest.approx(2e-320, rel=0.01)

    @pytest.mark.parametrize("family", ["gaussian", "indicator"])
    def test_subnormal_gaussian_weight_search_exit_0(self, tmp_path, family):
        # the weight's reach sqrt(46/a) is inf: its cell count ceil(inf) raised
        # OverflowError, an exit 1
        assert main(["search", "--family", family, "--functional", "gauss", "--a", "5e-324",
                     "--out", str(tmp_path)]) == 0
        assert _load(tmp_path / "search_report.json")["results"][0]["evaluations"] < 100

    def test_subnormal_gaussian_weight_evaluate_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["evaluate", "--family", "gaussian", "--functional", "gauss",
                     "--a", "5e-324", "--out", str(out)]) == 2
        assert "DFT longer than" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_gaussian_weight_constants_exit_2(self, tmp_path, capsys):
        # the moment's cross-check overflowed to NaN at a = 1e308 and numpy
        # warned, an exit 1 under -W error
        out = tmp_path / "out"
        assert main(["constants", "--weight", "gaussian", "--a", "1e308",
                     "--out", str(out)]) == 2
        assert "is not finite" in capsys.readouterr().err
        assert not out.exists()


def _subcommand_flags():
    ap = cli._build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a for a in p._actions if a.dest != "help"]
            for name, p in sub.choices.items()}


class TestOptionTable:
    # one flag and one config key that each subcommand does not read
    NOT_READ = {
        "constants": (["--budget", "5"], {"family": "gaussian"}),
        "roots": (["--budget", "5"], {"weight": "gaussian"}),
        "evaluate": (["--weight", "gaussian"], {"seed": 1}),
        "search": (["--tol", "1e-3"], {"values": [1.0, 2.0]}),
        "dual": (["--seed", "1"], {"cells": 256}),
        "verify": (["--out", "x"], {"tol": 1e-3}),
    }
    NEEDS = {"evaluate": ["--family", "gaussian", "--functional", "min12"],
             "search": ["--family", "indicator", "--functional", "min12"]}

    def test_flags_are_the_table(self):
        flags = _subcommand_flags()
        assert sum(len(v) for v in flags.values()) == 25
        for command, actions in flags.items():
            assert {a.dest for a in actions} == set(cli._OPTIONS[command]) - {"values"}
            assert all(a.default is argparse.SUPPRESS for a in actions)

    @pytest.mark.parametrize("command", sorted(NOT_READ))
    def test_flag_not_read_is_usage_error(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        flag, _ = self.NOT_READ[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *self.NEEDS.get(command, []), *flag])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(NOT_READ))
    def test_key_not_read_rejected(self, tmp_path, monkeypatch, capsys, command):
        cfg = tmp_path / "run.json"
        _, extra = self.NOT_READ[command]
        record = {"command": command, **extra}
        if command in self.NEEDS:
            record.update(family="gaussian", functional="min12")
        cfg.write_text(json.dumps(record))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["--config", str(cfg)]) == 2
        (key,) = extra
        assert repr(key) in capsys.readouterr().err
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("key, command", [("weight", "constants"),
                                              ("family", "evaluate"),
                                              ("functional", "search")])
    def test_unknown_name_rejected(self, tmp_path, capsys, key, command):
        record = {"command": command, "out": str(tmp_path), key: "nonesuch"}
        if command != "constants":
            record.update({k: v for k, v in (("family", "gaussian"), ("functional", "min12"))
                           if k != key})
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(record))
        with pytest.raises(ValueError, match=repr(key)):
            cli._config_from_dict(record)
        assert main(["--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv", [
        ["search", "--functional", "min12", "--family", "indicator", "--budget", "100",
         "--s", "3"],
        ["evaluate", "--fam", "gaussian", "--functional", "min12"],
        ["evaluate", "--family", "gaussian", "--functional", "mean", "--t", "1e-9"],
        ["--conf", "run.json"],
    ], ids=["search-s", "fam", "t", "conf"])
    def test_abbreviated_flag_is_usage_error(self, tmp_path, monkeypatch, argv):
        # argparse took unique prefixes: search read --s as --seed and ran
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_choice_rejected(self, tmp_path, capsys):
        assert main(["constants", "--weight", "nonesuch", "--out", str(tmp_path)]) == 2
        assert "'weight'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFamilyKeys:
    @pytest.mark.parametrize("family, key, value", [
        ("indicator", "dimension", 5),
        ("gaussian", "s", 0.75),
        ("indicator", "b", 2.0),
        ("gaussian", "values", [1, 2]),
        ("bs-example", "cells", 256),
        ("bs-example", "support", 1.0),
        ("piecewise-constant", "b", 1.0),
    ])
    def test_key_the_family_does_not_read(self, tmp_path, capsys, family, key, value):
        record = {"command": "search" if key == "dimension" else "evaluate",
                  "family": family, "functional": "min01" if family == "bs-example" else "min12",
                  key: value, "out": str(tmp_path / "out")}
        if family == "piecewise-constant":
            record["values"] = [1, 2, 3]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(record))
        assert main(["--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestWeightParameter:
    # --a is the Gaussian weight's parameter; these runs read no Gaussian weight
    UNREAD = {"evaluate-min12": {"command": "evaluate", "family": "indicator",
                                 "functional": "min12"},
              "evaluate-mean": {"command": "evaluate", "family": "indicator",
                                "functional": "mean"},
              "search-min12": {"command": "search", "family": "indicator",
                               "functional": "min12"},
              "constants-interval": {"command": "constants", "weight": "interval"},
              "constants": {"command": "constants"}}

    @staticmethod
    def _argv(record):
        argv = [record["command"]]
        for key, value in record.items():
            if key != "command":
                argv += ["--" + key, str(value)]
        return argv

    @pytest.mark.parametrize("name", sorted(UNREAD))
    def test_flag_not_read_exits_2(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        assert main([*self._argv(self.UNREAD[name]), "--a", "3", "--out", str(out)]) == 2
        assert "'a'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(UNREAD))
    def test_key_not_read_exits_2(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**self.UNREAD[name], "a": 3.0, "out": str(out)}))
        assert main(["--config", str(cfg)]) == 2
        assert "'a'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("record", [
        {"command": "evaluate", "family": "indicator", "functional": "gauss"},
        {"command": "search", "family": "gaussian", "functional": "gauss"},
        {"command": "constants", "weight": "gaussian"}])
    def test_read_with_a_gaussian_weight(self, record):
        assert cli._config_from_dict({**record, "a": 3.0}).a == 3.0


class TestConfigFile:
    def test_config_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "roots", "out": str(tmp_path)}))
        assert main(["--config", str(cfg)]) == 0
        assert (tmp_path / "roots_report.json").exists()

    @pytest.mark.parametrize("flags", [[], ["--out", "flagged"]])
    def test_subcommand_with_config_rejected(self, tmp_path, monkeypatch, capsys, flags):
        # the file would win whole, and the flags after the subcommand vanish
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "roots", "out": str(tmp_path / "file")}))
        assert main(["--config", str(cfg), "roots"] + flags) == 2
        assert "--config" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "roots", "sigma": 2}))
        assert main(["--config", str(cfg)]) == 2

    def test_json_path_key_rejected(self, tmp_path):
        # the config key is "json", like the flag; the field name is not a key
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "roots", "json_path": "x.json"}))
        assert main(["--config", str(cfg)]) == 2

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"command": "roots",\n  "bad"\n}')
        assert main(["--config", str(cfg)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [["roots"], "roots", 5])
    def test_not_an_object(self, tmp_path, record):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(record))
        assert main(["--config", str(cfg)]) == 2

    def test_missing_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.json")]) == 2
        assert "absent.json" in capsys.readouterr().err

    def test_missing_command(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"weight": "interval"}))
        assert main(["--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, value", [("cells", "abc"), ("cells", 2048.0),
                                            ("cells", True), ("support", "2"),
                                            ("family", 3), ("values", 1.0)])
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, key, value):
        record = {"command": "evaluate", "family": "gaussian", "functional": "min12",
                  "out": str(tmp_path), key: value}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(record))
        assert main(["--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_int_accepted_for_float(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "evaluate", "family": "gaussian",
                                   "functional": "min12", "support": 3, "b": 1,
                                   "cells": 256, "out": str(tmp_path)}))
        assert main(["--config", str(cfg)]) == 0
        assert _load(tmp_path / "evaluate_report.json")["results"][0]["support_window"] == [-3, 3]


class TestVerifyFaultInjection:
    def test_fault_mode_fails_named_criterion(self, tmp_path, capsys):
        # negative control: criterion 4 is corrupted and must fail with exit 1
        out = tmp_path / "verify.json"
        code = main(["verify", "--fault-inject", "4", "--json", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "criterion 4" in captured.out
        assert "FAILED criteria: 4" in captured.err
        rep = _load(out)
        assert rep["passed"] is False
        assert rep["config"]["json"] == str(out)  # the echo names the flag's key
        by_idx = {r["criterion"]: r for r in rep["results"]}
        assert by_idx[4]["passed"] is False

    @pytest.mark.parametrize("k", [0, 10, 42, -1])
    def test_fault_outside_criteria_exits_2(self, tmp_path, capsys, monkeypatch, k):
        # a fault aimed at no criterion would corrupt nothing: refused as input,
        # before any criterion runs and with no report written
        monkeypatch.setattr(verification, "run_acceptance", None)
        out = tmp_path / "verify.json"
        assert main(["verify", "--fault-inject", str(k), "--json", str(out)]) == 2
        assert "'fault_inject'" in capsys.readouterr().err
        assert not out.exists()


class TestDefaultsEchoed:
    # the echo said "b": null, "s": null and "dimension": 0 for runs that used
    # 1, 0.5 and 16 cells
    DEFAULTS = {"b": 1.0, "s": 0.5, "dimension": 16}

    def test_evaluate_echo(self, tmp_path):
        assert main(["evaluate", "--family", "indicator", "--functional", "min12",
                     "--cells", "256", "--out", str(tmp_path)]) == 0
        rep = _load(tmp_path / "evaluate_report.json")
        assert {k: rep["config"][k] for k in self.DEFAULTS} == self.DEFAULTS
        assert rep["results"][0]["support_window"] == [-0.5, 0.5]

    def test_search_echo_is_the_record(self, tmp_path):
        assert main(["search", "--family", "piecewise-constant", "--functional", "min12",
                     "--budget", "272", "--out", str(tmp_path)]) == 0
        rep = _load(tmp_path / "search_report.json")
        assert {k: rep["config"][k] for k in self.DEFAULTS} == self.DEFAULTS
        assert rep["results"][0]["dimension"] == 16

    def test_library_defaults_agree(self):
        # search's own defaults are those RunConfig echoes; its dimension and
        # halfwidth default to None, which the piecewise family resolves
        params = inspect.signature(search).parameters
        cfg = cli.RunConfig("search")
        search_mod = importlib.import_module("autocorr.search")
        assert (cfg.dimension, cfg.s, cfg.budget, cfg.seed) == (
            search_mod.DEFAULT_DIMENSION, search_mod.DEFAULT_HALFWIDTH,
            params["budget"].default, params["seed"].default)
        assert params["dimension"].default is None and params["halfwidth"].default is None
