"""Command-line front door.

Subcommands: ``constants``, ``roots``, ``evaluate``, ``search``, ``dual``,
``verify``.  Every run writes a versioned JSON report (schema 1) with the
effective configuration echoed, plus CSV tables where applicable.  Exit
status: 0 success, 1 numeric invariant breach or failed verification,
2 malformed input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import __version__
from . import constants as C
from . import dualcheck as dual
from . import functionals as fun
from . import verification
from .search import DEFAULT_BUDGET, search as run_search
from .funcspace import BSExample, family_from_spec, sample
from .spectral import INTERVAL_MOMENT_P_MAX, GaussianWeight, weight_from_spec

SCHEMA = 1

_COMMANDS = ("constants", "roots", "evaluate", "search", "dual", "verify")

@dataclasses.dataclass
class RunConfig:
    command: str
    weight: str = "interval"
    a: float = 2 * math.pi
    p_min: float = 2.0
    p_max: float = 12.0
    family: Optional[str] = None
    functional: Optional[str] = None
    cells: int = 2048
    support: Optional[float] = None
    budget: int = DEFAULT_BUDGET
    seed: int = 0
    tol: float = 1e-8
    out: str = "."
    json_path: Optional[str] = None
    b: Optional[float] = None
    s: Optional[float] = None
    values: Optional[list] = None
    dimension: int = 0
    fault_inject: Optional[int] = None

    def echo(self) -> dict:
        d = dataclasses.asdict(self)
        d["version"] = __version__
        return d


# config keys mirror the flags: the --json flag fills json_path
_CONFIG_KEYS = {"json" if f.name == "json_path" else f.name
                for f in dataclasses.fields(RunConfig)}


class ConfigError(ValueError):
    pass


# the Python types a config value may have, by RunConfig annotation (bool is
# an int subclass, and is refused separately)
_ACCEPTS = {str: str, int: int, float: (int, float), list: list}


def _check_type(name: str, value) -> None:
    hint = get_type_hints(RunConfig)[name]
    args = get_args(hint)                 # Optional[X] is Union[X, None]
    if value is None and type(None) in args:
        return
    base = args[0] if args else hint
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[base]):
        raise ConfigError(f"config key {name!r} must be {base.__name__}, got {value!r}")


def _config_from_dict(data: dict) -> RunConfig:
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "command" not in data:
        raise ConfigError("config must name a 'command'")
    if data["command"] not in _COMMANDS:
        raise ConfigError(f"unknown command {data['command']!r}; expected {_COMMANDS}")
    kwargs = dict(data)
    if "json" in kwargs:
        kwargs["json_path"] = kwargs.pop("json")
    for name, value in kwargs.items():
        _check_type(name, value)
    cfg = RunConfig(**kwargs)
    # the mean bound needs p >= 2; the sinc-power moments are certified up to
    # INTERVAL_MOMENT_P_MAX
    if not 2.0 <= cfg.p_min <= cfg.p_max <= INTERVAL_MOMENT_P_MAX:
        raise ConfigError(f"need 2 <= p_min <= p_max <= {INTERVAL_MOMENT_P_MAX:g}, "
                          f"got p_min={cfg.p_min}, p_max={cfg.p_max}")
    return cfg


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")  # RFC 4180
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _report(cfg: RunConfig, results) -> dict:
    return {
        "schema": SCHEMA,
        "command": cfg.command,
        "config": cfg.echo(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "results": results,
    }


def _bound_report_dict(rep: C.BoundReport, module: str) -> dict:
    return {
        "name": rep.name,
        "value": rep.value,
        "kind": rep.kind,
        "ingredients": rep.ingredients,
        "tolerance": rep.tolerance,
        "module": module,
    }


def _weight_of(cfg: RunConfig):
    spec = {"weight": cfg.weight}
    if cfg.weight == "gaussian":
        spec["a"] = cfg.a
    return weight_from_spec(spec)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_constants(cfg: RunConfig, outdir: Path) -> int:
    w = _weight_of(cfg)
    reports = [
        _bound_report_dict(C.mean_upper_constant(w, 2.0), "constants"),
        _bound_report_dict(C.minimize_over_p(w, (cfg.p_min, cfg.p_max)), "constants"),
    ]
    win2, win1 = C.min_l1_constant()
    reports += [_bound_report_dict(win2, "constants"),
                _bound_report_dict(win1, "constants")]
    reports.append(_bound_report_dict(C.min_mixed_constant(), "constants"))
    reports.append(_bound_report_dict(C.indicator_min_lower(), "constants"))
    if isinstance(w, GaussianWeight):
        reports.append(_bound_report_dict(C.gaussian_mean_lower(w.a), "constants"))

    rows = []
    for p in np.arange(cfg.p_min, cfg.p_max + 1e-12, 0.25):
        rep = C.mean_upper_constant(w, float(p))
        rows.append([f"{p:.6g}", f"{rep.ingredients['K_p']:.12g}",
                     f"{rep.ingredients['I_w_p']:.12g}", f"{rep.value:.12g}"])
    _write_csv(outdir / "constants_sweep.csv", ["p", "K_p", "I_w_p", "C_p"], rows)
    payload = _report(cfg, reports)
    _write_json(outdir / "constants_report.json", payload)
    for rep in reports:
        print(f"{rep['name']:28s} {rep['value']:.8f}  [{rep['kind']}]")
    return 0


def _cmd_roots(cfg: RunConfig, outdir: Path) -> int:
    r = C.sinc_min_roots()
    results = [{
        "name": "sinc-min-roots",
        "module": "constants",
        "y0": r.y0,
        "theta0": r.theta0,
        "xi0": r.xi0,
        "alpha0": r.alpha0,
        "residual_y0": r.residual_y0,
        "residual_sinc_min": r.residual_sinc_min,
        "tolerance": 1e-10,
    }]
    _write_json(outdir / "roots_report.json", _report(cfg, results))
    print(f"y0      = {r.y0:.12f}")
    print(f"theta0  = {r.theta0:.12f}")
    print(f"xi0     = {r.xi0:.12f}")
    print(f"alpha0  = {r.alpha0:.12f}")
    return 0


def _family_of(cfg: RunConfig):
    if cfg.family is None:
        raise ConfigError("evaluate needs --family")
    spec = {"family": cfg.family}
    halfwidth = cfg.s if cfg.s is not None else 0.5
    if cfg.family == "gaussian":
        spec["b"] = cfg.b if cfg.b is not None else 1.0
    elif cfg.family == "indicator":
        spec["a"] = halfwidth
    elif cfg.family == "piecewise-constant":
        spec["s"] = halfwidth
        if cfg.values is None:
            raise ConfigError("piecewise-constant needs 'values'")
        spec["values"] = cfg.values
    return family_from_spec(spec)


def _cmd_evaluate(cfg: RunConfig, outdir: Path) -> int:
    if cfg.functional not in ("mean", "gauss", "min12", "min01"):
        raise ConfigError(f"unknown functional {cfg.functional!r}")
    family = _family_of(cfg)
    window = None
    if isinstance(family, BSExample):
        if cfg.functional != "min01":
            raise ConfigError("the bs-example family supports only the min01 functional")
        ratio = fun.q_min_01_bs()
    else:
        support = (-cfg.support, cfg.support) if cfg.support is not None else None
        f = sample(family, support=support, cells=cfg.cells)
        window = list(f.support)
        if cfg.functional == "mean":
            ratio = fun.q_mean(f, tol=cfg.tol)
        elif cfg.functional == "gauss":
            ratio = fun.q_gauss(f, cfg.a, tol=cfg.tol)
        elif cfg.functional == "min12":
            ratio = fun.q_min_12(f)
        else:
            ratio = fun.q_min_01(f)
    result = {
        "module": "functionals",
        "functional": ratio.functional,
        "method": ratio.method,
        "value": ratio.value,
        "numerator": ratio.numerator,
        "fourier_numerator": ratio.fourier_numerator,
        "l1": ratio.l1,
        "l2": None if math.isinf(ratio.l2) else ratio.l2,
        "error_estimate": ratio.error_estimate,
        "support_window": window,
        "tolerance": cfg.tol,
    }
    _write_json(outdir / "evaluate_report.json", _report(cfg, [result]))
    print(f"{ratio.functional}[{cfg.family}] = {ratio.value:.8f} "
          f"(numerator {ratio.numerator:.8f}, error {ratio.error_estimate:.2e})")
    return 0


def _cmd_search(cfg: RunConfig, outdir: Path) -> int:
    if cfg.family is None or cfg.functional is None:
        raise ConfigError("search needs --family and --functional")
    fam = {"piecewise-constant": "piecewise"}.get(cfg.family, cfg.family)
    record = run_search(cfg.functional, fam, budget=cfg.budget, seed=cfg.seed,
                         a=cfg.a if cfg.functional == "gauss" else None,
                         dimension=cfg.dimension)
    result = {
        "module": "search",
        "objective": record.objective,
        "family": record.family,
        "dimension": record.dimension,
        "best_params": list(record.best_params),
        "best_value": record.best_value,
        "evaluations": record.evaluations,
        "seed": record.seed,
        "tolerance": 1e-10,  # re-evaluation agreement enforced on best_value
    }
    _write_csv(outdir / "search_trace.csv", ["eval_index", "best_value"],
               [[i, f"{v:.12g}"] for i, v in record.trace])
    _write_json(outdir / "search_report.json", _report(cfg, [result]))
    print(f"search {record.objective}/{record.family}: best {record.best_value:.8f} "
          f"after {record.evaluations} evaluations")
    return 0


def _cmd_dual(cfg: RunConfig, outdir: Path) -> int:
    results = []
    rows = []
    for bump in (dual.StandardBump(), dual.CosineBump(), dual.BetaPowerBump(2)):
        rep = dual.dual_mass_report(bump, tol=cfg.tol)
        neg = dual.negative_part_bound_check(bump, tol=cfg.tol, report=rep)
        results.append({
            "module": "dualcheck",
            "bump": rep.bump,
            "positive_mass": rep.positive_mass,
            "negative_mass": rep.negative_mass,
            "value0": rep.value0,
            "lower_bound": rep.lower_bound,
            "refined_bound": rep.refined_bound,
            "margin": rep.margin,
            "refined_margin": rep.refined_margin,
            "sum_diff_gap": rep.sum_diff_gap,
            "identity_gap": neg.identity_gap,
            "inequality_slack": neg.inequality_slack,
            "error_bound": rep.error_bound,
            "tolerance": cfg.tol,
        })
        rows.append([rep.bump, f"{rep.positive_mass:.10g}",
                     f"{rep.lower_bound:.10g}", f"{rep.margin:.10g}"])
    grid, residuals = dual.case2bb_scan()
    results.append({
        "module": "dualcheck",
        "name": "case2bb-residual-scan",
        "a_min": float(grid[0]),
        "a_max": float(grid[-1]),
        "points": len(grid),
        "min_residual": float(residuals.min()),
        "residual_at_1": dual.case2bb_residual(1.0),
        "tolerance": 0.01,
    })
    _write_csv(outdir / "dual_masses.csv", ["bump", "pos_mass", "bound", "margin"], rows)
    _write_json(outdir / "dual_report.json", _report(cfg, results))
    for r in results:
        if "bump" in r:
            print(f"{r['bump']:14s} pos {r['positive_mass']:.8f} "
                  f">= {r['lower_bound']:.8f} (margin {r['margin']:.4f})")
        else:
            print(f"case2bb min residual {r['min_residual']:.4f} >= 0.01")
    return 0


def _cmd_verify(cfg: RunConfig, outdir: Path) -> int:
    results = verification.run_acceptance(fault=cfg.fault_inject)
    print(verification.format_table(results))
    if cfg.json_path:
        payload = _report(cfg, [r.to_dict() for r in results])
        payload["passed"] = all(r.passed for r in results)
        _write_json(Path(cfg.json_path), payload)
    if not all(r.passed for r in results):
        failed = [str(r.index) for r in results if not r.passed]
        print(f"FAILED criteria: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="autocorr",
        description="Sharp autocorrelation inequality toolkit: constants, "
                    "functional evaluation, lower-bound search, dual checks.")
    ap.add_argument("--config", type=str, default=None,
                    help="JSON config file; keys mirror the flags")
    sub = ap.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--weight", choices=["interval", "gaussian"], default="interval")
        p.add_argument("--a", type=float, default=2 * math.pi,
                       help="gaussian weight parameter")
        p.add_argument("--b", type=float, default=None, help="gaussian family parameter")
        p.add_argument("--s", type=float, default=None,
                       help="indicator / piecewise-constant halfwidth (default 0.5)")
        p.add_argument("--p-min", dest="p_min", type=float, default=2.0)
        p.add_argument("--p-max", dest="p_max", type=float, default=12.0)
        p.add_argument("--family", type=str, default=None,
                       choices=["gaussian", "indicator", "piecewise-constant", "bs-example"])
        p.add_argument("--functional", type=str, default=None,
                       choices=["mean", "gauss", "min12", "min01"])
        p.add_argument("--cells", type=int, default=2048)
        p.add_argument("--support", type=float, default=None,
                       help="half-width S of the sampling window [-S, S]")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dimension", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--out", type=str, default=".")
        p.add_argument("--json", dest="json_path", type=str, default=None)
        if name == "verify":
            p.add_argument("--fault-inject", dest="fault_inject", type=int, default=None,
                           help="test mode: corrupt one criterion as a negative control")
    return ap


_RUNNERS = {
    "constants": _cmd_constants,
    "roots": _cmd_roots,
    "evaluate": _cmd_evaluate,
    "search": _cmd_search,
    "dual": _cmd_dual,
    "verify": _cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    data = json.load(fh)
            except json.JSONDecodeError as exc:
                print(f"bad config {args.config}: line {exc.lineno}: {exc.msg}",
                      file=sys.stderr)
                return 2
            cfg = _config_from_dict(data)
        else:
            if not args.command:
                ap.print_help()
                return 2
            d = {k: v for k, v in vars(args).items() if k not in ("config",)}
            d["json"] = d.pop("json_path", None)
            d = {k: v for k, v in d.items() if v is not None}
            cfg = _config_from_dict(d)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2

    outdir = Path(cfg.out)
    try:
        return _RUNNERS[cfg.command](cfg, outdir)
    except (fun.InvariantViolation, RuntimeError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
