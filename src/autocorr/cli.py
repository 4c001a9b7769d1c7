"""Command-line front door.

Subcommands: ``constants``, ``roots``, ``evaluate``, ``search``, ``dual``,
``verify``.  Each subcommand takes only the flags (and config keys) that it
reads, spelled in full; any other is malformed input.  The report
subcommands compute their report rows, CSV tables and printed lines, and
``_run`` writes them all: a versioned JSON report (schema 1) with the
effective configuration echoed, the CSV tables, the printout.  ``verify``
prints its table and writes JSON only with ``--json``.  Exit status: 0
success, 1 numeric invariant breach (a RuntimeError) or failed verification,
2 malformed input (a ValueError); ``main`` alone maps the two to exit codes.
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

from . import __version__
from . import constants as C
from . import dualcheck as dual
from . import functionals as fun
from . import verification
from .search import DEFAULT_BUDGET, DEFAULT_DIMENSION, OBJECTIVES, search as run_search
from .funcspace import Gaussian, GridFunction, Indicator, sample
from .spectral import INTERVAL_MOMENT_P_MAX, GaussianWeight, IntervalWeight

SCHEMA = 1


@dataclasses.dataclass
class RunConfig:
    """Every setting of a run and its one default, which the runners and the
    flags' help read: the report's echo is the configuration the run used."""

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
    json: Optional[str] = None
    b: float = 1.0
    s: float = 0.5
    values: Optional[list] = None
    dimension: int = DEFAULT_DIMENSION
    fault_inject: Optional[int] = None

    def echo(self) -> dict:
        d = dataclasses.asdict(self)
        d["version"] = __version__
        return d


# The config keys each subcommand reads.  Each key is also a flag of that
# subcommand (``p_min`` is ``--p-min``), except ``values``, a list, which only
# a config file can give.
_OPTIONS = {
    "constants": ("weight", "a", "p_min", "p_max", "out"),
    "roots": ("out",),
    "evaluate": ("family", "functional", "a", "b", "s", "values", "cells", "support",
                 "tol", "out"),
    "search": ("family", "functional", "a", "budget", "seed", "dimension", "out"),
    "dual": ("out",),
    "verify": ("json", "fault_inject"),
}
# The keys that only some families read, and those families; with any other
# family (bs-example reads none) a key is malformed input.
_FAMILY_KEYS = {"b": ("gaussian",), "s": ("indicator", "piecewise-constant"),
                "values": ("piecewise-constant",), "dimension": ("piecewise-constant",),
                "cells": ("gaussian", "indicator"), "support": ("gaussian", "indicator")}
# the functionals with a Fourier side, the only reader of ``tol``
_FOURIER_SIDED = ("mean", "gauss")
_CHOICES = {
    "weight": ("interval", "gaussian"),
    "family": ("gaussian", "indicator", "piecewise-constant", "bs-example"),
    "functional": OBJECTIVES,
}

_HELP = {
    "a": "Gaussian weight parameter",
    "b": "Gaussian family parameter",
    "s": "indicator / piecewise-constant halfwidth",
    "support": "half-width S of the sampling window [-S, S] (not for piecewise-constant)",
    "fault_inject": "test mode: corrupt one criterion as a negative control",
}


_HINTS = get_type_hints(RunConfig)


def _field_type(key: str) -> tuple[type, bool]:
    """The type of a key's RunConfig field, and whether it may be None."""
    hint = _HINTS[key]
    args = get_args(hint)                 # Optional[X] is Union[X, None]
    return (args[0], True) if args else (hint, False)


# the Python types a config value may have, by RunConfig annotation (bool is
# an int subclass, and is refused separately)
_ACCEPTS = {str: str, int: int, float: (int, float), list: list}


def _check_value(key: str, value) -> None:
    base, optional = _field_type(key)
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[base]):
        raise ValueError(f"{key!r} must be {base.__name__}, got {value!r}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ValueError(f"{key!r} must be one of {_CHOICES[key]}, got {value!r}")
    # NaN fails both comparisons; float max also refuses ints that no float holds
    if key == "values" and not (value and all(type(v) in (int, float)
                                              and 0 <= v <= sys.float_info.max for v in value)):
        raise ValueError(f"'values' must be a nonempty list of finite, nonnegative numbers, "
                         f"got {value!r}")


def _config_from_dict(data: dict) -> RunConfig:
    """The one check of a run's input, from flags or a config file alike."""
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    command = data.get("command")
    if not isinstance(command, str) or command not in _OPTIONS:
        raise ValueError(f"config must name a command in {tuple(_OPTIONS)}, got {command!r}")
    unknown = set(data) - {"command", *_OPTIONS[command]}
    if unknown:
        raise ValueError(f"{command} does not read the keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key != "command":
            _check_value(key, value)
        kwargs[key] = value
    cfg = RunConfig(**kwargs)
    # the mean bound needs p >= 2; the sinc-power moments are certified up to
    # INTERVAL_MOMENT_P_MAX
    if not 2.0 <= cfg.p_min <= cfg.p_max <= INTERVAL_MOMENT_P_MAX:
        raise ValueError(f"need 2 <= p_min <= p_max <= {INTERVAL_MOMENT_P_MAX:g}, "
                         f"got p_min={cfg.p_min}, p_max={cfg.p_max}")
    if not 0 < cfg.tol < math.inf:
        raise ValueError(f"'tol' must be finite and positive, got {cfg.tol!r}")
    unread = sorted(k for k in data.keys() & _FAMILY_KEYS if cfg.family not in _FAMILY_KEYS[k])
    if unread:
        raise ValueError(f"the family {cfg.family!r} does not read the keys {unread}")
    if "a" in data and cfg.functional != "gauss" and cfg.weight != "gaussian":
        raise ValueError("'a' is read only by --functional gauss and --weight gaussian")
    if "tol" in data and cfg.functional not in _FOURIER_SIDED:
        raise ValueError(f"'tol' is read only by the Fourier side of --functional "
                         f"{' and '.join(_FOURIER_SIDED)}")
    if cfg.family == "piecewise-constant" and cfg.command == "evaluate":
        # the step function is evaluated on its own cells, spread over [-s, s]
        if cfg.values is None:
            raise ValueError("piecewise-constant needs 'values'")
        cfg.cells = len(cfg.values)  # the echo names the cells evaluated
    if cfg.command in ("evaluate", "search") and (cfg.family is None or cfg.functional is None):
        raise ValueError(f"{cfg.command} needs --family and --functional")
    if cfg.family == "bs-example" and cfg.functional != "min01":
        raise ValueError("the bs-example family supports only the min01 functional")
    if cfg.fault_inject not in (None, *verification.CRITERIA):  # else it would test nothing
        raise ValueError(f"'fault_inject' must be a criterion, 1 to 9, got {cfg.fault_inject}")
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


def _report(cfg: RunConfig, results) -> dict:
    return {
        "schema": SCHEMA,
        "command": cfg.command,
        "config": cfg.echo(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "results": results,
    }


def _row(result, module: str, *names: str, **extra) -> dict:
    """A report row: the named attributes of a library result, then ``extra``."""
    return {"module": module, **{name: getattr(result, name) for name in names}, **extra}


def _weight_of(cfg: RunConfig):
    return GaussianWeight(float(cfg.a)) if cfg.weight == "gaussian" else IntervalWeight()


# ---------------------------------------------------------------------------
# subcommands: each computes its report rows, its CSV tables (file name to
# header and rows) and its printed lines; _run writes them
# ---------------------------------------------------------------------------

_Output = tuple[list[dict], dict[str, tuple[list[str], list[list]]], list[str]]


def _cmd_constants(cfg: RunConfig) -> _Output:
    w = _weight_of(cfg)
    reports = [C.mean_upper_constant(w, 2.0), C.minimize_over_p(w, (cfg.p_min, cfg.p_max)),
               *C.min_l1_constant(), C.min_mixed_constant(), C.indicator_min_lower()]
    if isinstance(w, GaussianWeight):
        reports.append(C.gaussian_mean_lower(w.a))
    sweep = [[f"{rep.ingredients['p']:.6g}", f"{rep.ingredients['K_p']:.12g}",
              f"{rep.ingredients['I_w_p']:.12g}", f"{rep.value:.12g}"]
             for rep in C.mean_upper_sweep(w, (cfg.p_min, cfg.p_max))]
    rows = [_row(rep, "constants", "name", "value", "kind", "ingredients", "tolerance")
            for rep in reports]
    lines = [f"{rep.name:28s} {rep.value:.8f}  [{rep.kind}]" for rep in reports]
    return rows, {"constants_sweep.csv": (["p", "K_p", "I_w_p", "C_p"], sweep)}, lines


def _cmd_roots(cfg: RunConfig) -> _Output:
    r = C.sinc_min_roots()
    row = _row(r, "constants", "y0", "theta0", "xi0", "alpha0", "residual_y0",
               "residual_sinc_min", name="sinc-min-roots", tolerance=1e-10)
    return [row], {}, [f"{name:7s} = {getattr(r, name):.12f}"
                       for name in ("y0", "theta0", "xi0", "alpha0")]


def _function_of(cfg: RunConfig) -> GridFunction:
    """The step function on its own cells over [-s, s], or the family sampled."""
    halfwidth = float(cfg.s)
    if cfg.family == "piecewise-constant":
        return GridFunction(-halfwidth, 2.0 * halfwidth / len(cfg.values), cfg.values)
    family = Gaussian(float(cfg.b)) if cfg.family == "gaussian" else Indicator(halfwidth)
    support = (-cfg.support, cfg.support) if cfg.support is not None else None
    return sample(family, support=support, cells=cfg.cells)


def _cmd_evaluate(cfg: RunConfig) -> _Output:
    window = None
    if cfg.family == "bs-example":
        ratio = fun.q_min_01_bs()
    else:
        f = _function_of(cfg)
        window = list(f.support)
        if cfg.functional == "mean":
            ratio = fun.q_mean(f, tol=cfg.tol)
        elif cfg.functional == "gauss":
            ratio = fun.q_gauss(f, cfg.a, tol=cfg.tol)
        elif cfg.functional == "min12":
            ratio = fun.q_min_12(f)
        else:
            ratio = fun.q_min_01(f)
    row = _row(ratio, "functionals", "functional", "method", "value", "numerator",
               "fourier_numerator", "l1", "error_estimate",
               l2=None if math.isinf(ratio.l2) else ratio.l2, support_window=window,
               tolerance=cfg.tol if cfg.functional in _FOURIER_SIDED else None)
    return [row], {}, [f"{ratio.functional}[{cfg.family}] = {ratio.value:.8f} "
                       f"(numerator {ratio.numerator:.8f}, error {ratio.error_estimate:.2e})"]


def _cmd_search(cfg: RunConfig) -> _Output:
    fam = {"piecewise-constant": "piecewise"}.get(cfg.family, cfg.family)
    record = run_search(cfg.functional, fam, budget=cfg.budget, seed=cfg.seed,
                        a=cfg.a if cfg.functional == "gauss" else None,
                        **({"dimension": cfg.dimension} if fam == "piecewise" else {}))
    row = _row(record, "search", "objective", "family", "dimension", "best_value",
               "evaluations", "seed", best_params=list(record.best_params))
    trace = [[i, f"{v:.12g}"] for i, v in record.trace]
    return [row], {"search_trace.csv": (["eval_index", "best_value"], trace)}, [
        f"search {record.objective}/{record.family}: best {record.best_value:.8f} "
        f"after {record.evaluations} evaluations"]


def _cmd_dual(cfg: RunConfig) -> _Output:
    rows, masses, lines = [], [], []
    for bump in dual.BUMPS:
        rep = dual.dual_mass_report(bump)
        rows.append(_row(rep, "dualcheck", "bump", "positive_mass", "negative_mass", "value0",
                         "lower_bound", "refined_bound", "margin", "refined_margin",
                         "sum_diff_gap", "error_bound", "identity_gap", "inequality_slack",
                         tolerance=dual.DUAL_TOL))
        masses.append([rep.bump, f"{rep.positive_mass:.10g}",
                       f"{rep.lower_bound:.10g}", f"{rep.margin:.10g}"])
        lines.append(f"{rep.bump:14s} pos {rep.positive_mass:.8f} "
                     f">= {rep.lower_bound:.8f} (margin {rep.margin:.4f})")
    grid, residuals = dual.case2bb_scan()
    rows.append({"module": "dualcheck", "name": "case2bb-residual-scan", "a_min": float(grid[0]),
                 "a_max": float(grid[-1]), "points": len(grid),
                 "min_residual": float(residuals.min()),
                 "residual_at_1": dual.case2bb_residual(1.0), "tolerance": 0.01})
    lines.append(f"case2bb min residual {rows[-1]['min_residual']:.4f} >= 0.01")
    return rows, {"dual_masses.csv": (["bump", "pos_mass", "bound", "margin"], masses)}, lines


_RUNNERS = {
    "constants": _cmd_constants,
    "roots": _cmd_roots,
    "evaluate": _cmd_evaluate,
    "search": _cmd_search,
    "dual": _cmd_dual,
}


def _run(cfg: RunConfig) -> int:
    """Run a report subcommand; write its CSV tables, its JSON report, its printout."""
    rows, tables, lines = _RUNNERS[cfg.command](cfg)
    outdir = Path(cfg.out)
    for name, (header, table) in tables.items():
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")  # RFC 4180
        writer.writerow(header)
        writer.writerows(table)
        _atomic_write(outdir / name, buf.getvalue())
    _write_json(outdir / f"{cfg.command}_report.json", _report(cfg, rows))
    for line in lines:
        print(line)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    results = verification.run_acceptance(fault=cfg.fault_inject)
    print(verification.format_table(results))
    if cfg.json:
        payload = _report(cfg, [r.to_dict() for r in results])
        payload["passed"] = all(r.passed for r in results)
        _write_json(Path(cfg.json), payload)
    if not all(r.passed for r in results):
        failed = [str(r.index) for r in results if not r.passed]
        print(f"FAILED criteria: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, with a flag for each key in ``_OPTIONS``.

    A flag takes its type from the RunConfig field and has no default of its
    own: an absent flag is absent from the parsed arguments, so the defaults
    and the checks stay with RunConfig and ``_config_from_dict``; its help names the default.
    """
    ap = argparse.ArgumentParser(
        prog="autocorr", allow_abbrev=False,
        description="Sharp autocorrelation inequality toolkit: constants, "
                    "functional evaluation, lower-bound search, dual checks.")
    ap.add_argument("--config", type=str, default=None,
                    help="JSON config file; its keys are the flags of its command")
    sub = ap.add_subparsers(dest="command")
    for command, keys in _OPTIONS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        for key in keys:
            if key == "values":
                continue
            choices = _CHOICES.get(key)
            default = RunConfig.__dataclass_fields__[key].default
            note = "" if default is None else f" (default {default})"
            p.add_argument("--" + key.replace("_", "-"), type=_field_type(key)[0],
                           default=argparse.SUPPRESS, help=(_HELP.get(key, "") + note).strip(),
                           metavar="{%s}" % ",".join(choices) if choices else None)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    args = vars(ap.parse_args(argv))
    config = args.pop("config")
    try:
        if config:
            if args["command"]:
                # the file holds the command and its keys; flags after a
                # subcommand would otherwise be dropped without a word
                raise ValueError(f"--config takes no subcommand, got {args['command']!r}; "
                                 "put the command and its keys in the file")
            try:
                with open(config, encoding="utf-8") as fh:
                    args = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:  # unreadable or not JSON
                print(f"bad config {config}: {exc}", file=sys.stderr)
                return 2
        elif not args["command"]:
            ap.print_help()
            return 2
        cfg = _config_from_dict(args)
        return _cmd_verify(cfg) if cfg.command == "verify" else _run(cfg)
    except RuntimeError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
