"""Every exported name exists, so ``from autocorr.<module> import *`` works,
and every name the benchmark's tracer wraps resolves."""

import importlib
import importlib.util
import pkgutil
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
