"""Every exported name exists, so ``from autocorr.<module> import *`` works,
and every name the benchmark's tracer wraps resolves."""

import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import autocorr

MODULES = sorted(m.name for m in pkgutil.iter_modules(autocorr.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(f"autocorr.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_exist():
    assert [n for n in autocorr.__all__ if not hasattr(autocorr, n)] == []


# Runs the report commands and the BS example in a fresh interpreter, then
# lists the scipy modules that were imported.  The library needs numpy and the
# standard library only: scipy.special alone doubled the start-up time of
# every command, and QUADPACK and brentq live in scipy.integrate and
# scipy.optimize.
_IMPORT_GUARD = """
import sys, tempfile
from autocorr import cli, verification
from autocorr.functionals import q_min_01_bs
with tempfile.TemporaryDirectory() as out:
    for argv in (["constants", "--weight", "interval"], ["constants", "--weight", "gaussian"],
                 ["roots"], ["dual"],
                 ["evaluate", "--family", "bs-example", "--functional", "min01"]):
        assert cli.main(argv + ["--out", out]) == 0, argv
q_min_01_bs()
assert verification.criterion_5().passed
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_quadpack_optimize_or_linalg_import():
    src = Path(autocorr.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], cwd=src, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out.splitlines()[-1] == "[]"


def test_tracer_targets_resolve():
    # the tracer skips a missing target silently, so a renamed function
    # would drop out of the per-layer metrics without this check
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module_name, attr, _, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            ok = cls is not None and meth in vars(cls)
        else:
            ok = hasattr(module, attr)
        if not ok:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_tracer_sees_the_calls_it_pins():
    # negative_part_bound_check is no longer exported and baseline reads the
    # scan itself, yet the program must still call through both names, or
    # their per-layer metrics would read 0 while they resolve
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    dualcheck = importlib.import_module("autocorr.dualcheck")
    search = importlib.import_module("autocorr.search")  # the package shadows the name
    traced = tracer.Tracer()
    try:
        dualcheck.dual_mass_report(dualcheck.CosineBump())
        search.baseline("min12", "indicator")
    finally:
        traced.restore()
    calls = traced.counts()
    assert calls["dualcheck.negative_part_bound_check.calls"] == 1
    assert calls["search.baseline.calls"] == 1
