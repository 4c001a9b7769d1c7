"""The workloads: seeded inputs, the jobs of one pass, and their checks.

A workload is a list of groups.  Each group runs in its own fresh interpreter
(see ``worker.py``) and builds its inputs from the workload seed before any
job is timed.  A job times one call into the library, or one in-process
``autocorr`` CLI invocation, and then checks what it returned.

Jobs look library functions up when they run, never when they are built, so
the traced run sees every call.  Checks never call the library: they read the
returned objects or the CLI's report files, compare with constants written
here, and do no work that a cache in the program could keep.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import autocorr as ac
from autocorr import cli, verification

# Outputs that depend on the seed are compared with reference.json only at
# this seed; at other seeds the invariants below are checked instead.
DEFAULT_SEED = 0

# Tolerance for outputs whose library check is one-sided or absent.
TIGHT = 1e-10

TWO_PI = 2 * math.pi
THETA0 = 0.21723362821122166                 # sinc-minimum root, criterion 4
CEILINGS = {                                 # the proven ceilings of functionals.py
    "mean": 0.8641,
    "gauss": (8.0 * TWO_PI / (27.0 * math.pi)) ** 0.25,  # g_2(a) at a = 2 pi
    "min12": 0.829604,
    "min01": 1.0 / (2.0 * (1.0 + THETA0)),
}


@dataclass
class Job:
    """A timed call and the check of its result.

    ``check`` returns ``(outputs, problems)``: ``outputs`` maps a name to
    ``(value, tolerance)``, where a tolerance of ``None`` means the value is
    recorded but not compared with the reference.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[dict, list]]
    seeded: bool = False
    tags: dict = field(default_factory=dict)


def _tight(value: float) -> float:
    return TIGHT * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# verify: the nine acceptance criteria, in order, in one interpreter
# ---------------------------------------------------------------------------


def _check_criterion(res) -> tuple[dict, list]:
    outputs = {c.name: (float(c.measured), c.tolerance or _tight(c.measured))
               for c in res.checks}
    problems = [f"criterion {res.index}: check {c.name!r} failed "
                f"({c.measured!r} vs {c.expected!r})" for c in res.checks if not c.passed]
    return outputs, problems


def verify_jobs(seed: int, out_dir: str, fault) -> list[Job]:
    # inputs are fixed by verification._SEED; the workload seed changes nothing
    def criterion(i):
        return lambda: verification.CRITERIA[i](fault=(fault == i))

    return [Job(f"criterion_{i}", criterion(i), _check_criterion)
            for i in sorted(verification.CRITERIA)]


# ---------------------------------------------------------------------------
# search: seeded multi-restart searches at the default budget
# ---------------------------------------------------------------------------

# (objective, family, keyword arguments as _cmd_search passes them).
# (min01, piecewise) is left out: at halfwidth 1/2 its objective is 0.
SEARCH_PAIRS = [
    ("gauss", "gaussian", {"a": TWO_PI}),
    ("mean", "gaussian", {}),
    ("min12", "indicator", {}),
    ("min12", "piecewise", {"dimension": 16}),
    ("min01", "bs-example", {}),
]
SEEDS_PER_PAIR = 2
# Restart 0 of a piecewise search starts from the constant function on
# [-1/2, 1/2], whose min12 ratio is exactly 1/2; no search may end below it.
PIECEWISE_MIN12_FLOOR = 0.5


def search_seeds(seed: int) -> list[list[int]]:
    rng = np.random.default_rng([seed, 2])
    return rng.integers(0, 2 ** 31 - 1, size=(len(SEARCH_PAIRS), SEEDS_PER_PAIR)).tolist()


def _check_floor(value) -> tuple[dict, list]:
    return {"value": (float(value), TIGHT)}, []


def _check_search(objective, floor):
    def check(rec) -> tuple[dict, list]:
        problems = []
        if rec.best_value < floor - 1e-3:  # criterion 9's floor rule
            problems.append(f"best {rec.best_value!r} below floor {floor!r}")
        if rec.best_value > CEILINGS[objective] + 1e-9:
            problems.append(f"best {rec.best_value!r} above the ceiling")
        # re-evaluation agreement that search() enforces on best_value
        return {"best_value": (rec.best_value, 1e-10),
                "evaluations": (rec.evaluations, None)}, problems

    return check


def search_jobs(seed: int, out_dir: str, fault, reference: dict) -> list[Job]:
    jobs = []
    for (objective, family, kwargs), seeds in zip(SEARCH_PAIRS, search_seeds(seed)):
        pair = f"{objective}/{family}"
        if family == "piecewise":
            floor = PIECEWISE_MIN12_FLOOR
        else:
            name = f"floor[{pair}]"
            # a missing reference fails the floor job itself (see worker.py)
            floor = reference.get("search", {}).get(name, {}).get("value", -math.inf)
            jobs.append(Job(name, lambda o=objective, f=family, k=kwargs: ac.baseline(o, f, **k),
                            _check_floor, tags={"pair": pair, "kind": "floor"}))
        for s in seeds:
            jobs.append(Job(
                f"search[{pair},{s}]",
                lambda o=objective, f=family, k=kwargs, s=s: ac.search(o, f, seed=s, **k),
                _check_search(objective, floor), seeded=True,
                tags={"pair": pair, "kind": "search", "family": family}))
    return jobs


# ---------------------------------------------------------------------------
# certify: CLI report commands, each in its own interpreter, and the
# spectrum check on seeded window-normalized measures
# ---------------------------------------------------------------------------

MEASURES_PER_PASS = 3
WINDOW_TS = np.linspace(0.0, 1.0, 1025)  # nu_spectrum_check's window lattice


def _window_ratios(mu) -> np.ndarray:
    mc = ac.correlate.measure_correlation(mu)
    masses = np.asarray(mc.interval_mass(WINDOW_TS[:-1], WINDOW_TS[1:]))
    return masses / (WINDOW_TS[1] - WINDOW_TS[0])


def normalized_measure(x0: float, m: float, s: float):
    """Atoms m at +-x0 plus c * 1_[-s, s] (1024 cells), with c chosen so the
    smallest window ratio mu*mu([t - eps, t]) / eps over the lattice is 1/2.

    Each window ratio is A + B c + C c^2 (atom pairs, atom-density and
    density-density terms), so three evaluations fix it exactly; every ratio
    rises with c, so c is the largest root of ratio = 1/2 over the windows.
    """
    d = ac.sample(ac.Indicator(s), cells=1024)

    def make(c):
        return ac.MixedMeasure(atoms=((-x0, m), (x0, m)), density=d.scaled(c))

    r0, r1, r2 = (_window_ratios(make(c)) for c in (0.0, 1.0, 2.0))
    C = 0.5 * (r2 - 2.0 * r1 + r0)
    B = r1 - r0 - C
    need = 0.5 - r0
    open_ = need > 0
    roots = 2.0 * need[open_] / (B[open_] + np.sqrt(B[open_] ** 2 + 4.0 * C[open_] * need[open_]))
    return make(float(roots.max()))


def certify_measures(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    params = rng.uniform([0.5, 0.4, 0.5], [0.56, 0.6, 0.56], size=(MEASURES_PER_PASS, 3))
    return [normalized_measure(*p) for p in params]


def _check_spectrum(rep) -> tuple[dict, list]:
    tol = 1e-6  # nu_spectrum_check's own tolerance
    problems = []
    if abs(rep.window_inf - 0.5) > 1e-6:
        problems.append(f"window infimum {rep.window_inf!r} is not 1/2")
    if rep.nu_min < -tol or rep.spectral_margin < -tol or rep.strictness_gap < -tol:
        problems.append(f"spectrum check breached: {rep!r}")
    if abs(rep.nu_hat_0 - (rep.tv ** 2 - 1.0)) > 1e-8:
        problems.append("nuhat(0) != tv^2 - 1")
    return {"nu_hat_xi0": (rep.nu_hat_xi0, tol), "nu_min": (rep.nu_min, tol)}, problems


def _read_report(out_dir: str, name: str) -> list:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)["results"]


def _check_dual(out_dir):
    def check(code) -> tuple[dict, list]:
        problems = [] if code == 0 else [f"autocorr dual exited {code}"]
        outputs = {}
        for r in _read_report(out_dir, "dual_report.json"):
            if "bump" in r:
                b = r["bump"]
                outputs[f"{b}.positive_mass"] = (r["positive_mass"], r["tolerance"])
                outputs[f"{b}.negative_mass"] = (r["negative_mass"], r["tolerance"])
                if r["positive_mass"] < r["refined_bound"] - 1e-4:  # acceptance tolerance
                    problems.append(f"{b}: positive mass below the refined bound")
                if r["identity_gap"] > 1e-8 or r["inequality_slack"] < -1e-8:
                    problems.append(f"{b}: negative-part identity or inequality breached")
            else:
                outputs["case2bb.min_residual"] = (r["min_residual"], _tight(r["min_residual"]))
                if r["min_residual"] < r["tolerance"]:
                    problems.append("case-2bb residual below 0.01")
        return outputs, problems

    return check


def _check_constants(out_dir):
    def check(code) -> tuple[dict, list]:
        problems = [] if code == 0 else [f"autocorr constants exited {code}"]
        outputs = {r["name"]: (r["value"], r["tolerance"] or _tight(r["value"]))
                   for r in _read_report(out_dir, "constants_report.json")}
        return outputs, problems

    return check


def _check_roots(out_dir):
    def check(code) -> tuple[dict, list]:
        problems = [] if code == 0 else [f"autocorr roots exited {code}"]
        (r,) = _read_report(out_dir, "roots_report.json")
        if max(abs(r["residual_y0"]), abs(r["residual_sinc_min"])) > r["tolerance"]:
            problems.append("root residuals above tolerance")
        return {k: (r[k], r["tolerance"]) for k in ("y0", "theta0", "xi0", "alpha0")}, problems

    return check


def _cli_group(name, argv, check_factory):
    def build(seed, out_dir, fault):
        return [Job(name, lambda: cli.main([*argv, "--out", out_dir]), check_factory(out_dir))]
    return build


def spectrum_jobs(seed: int, out_dir: str, fault) -> list[Job]:
    measures = certify_measures(seed)
    return [Job(f"nu_spectrum_check[{i}]", lambda mu=mu: ac.nu_spectrum_check(mu),
                _check_spectrum, seeded=True)
            for i, mu in enumerate(measures)]


# ---------------------------------------------------------------------------


def groups(workload: str, reference: dict) -> list[tuple[str, Callable]]:
    """(group name, builder(seed, out_dir, fault) -> jobs) for a workload."""
    if workload == "verify":
        return [("verify", verify_jobs)]
    if workload == "search":
        return [("search", lambda seed, out_dir, fault: search_jobs(seed, out_dir, fault,
                                                                    reference))]
    if workload == "certify":
        return [
            ("dual", _cli_group("cli dual", ["dual"], _check_dual)),
            ("constants-interval", _cli_group(
                "cli constants interval", ["constants", "--weight", "interval"],
                _check_constants)),
            ("constants-gaussian", _cli_group(
                "cli constants gaussian", ["constants", "--weight", "gaussian"],
                _check_constants)),
            ("roots", _cli_group("cli roots", ["roots"], _check_roots)),
            ("spectrum", spectrum_jobs),
        ]
    raise ValueError(f"unknown workload {workload!r}")
