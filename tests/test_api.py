"""Every exported name exists, so ``from autocorr.<module> import *`` works."""

import importlib
import pkgutil

import pytest

import autocorr

MODULES = sorted(m.name for m in pkgutil.iter_modules(autocorr.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(f"autocorr.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_exist():
    assert [n for n in autocorr.__all__ if not hasattr(autocorr, n)] == []
