"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Mirrors the ``autocorr verify`` subcommand; every criterion runs at its stated
tolerance with the expected values frozen in :mod:`autocorr.verification`.
"""

import time

import pytest

import autocorr.correlate
import autocorr.functionals
from autocorr.verification import CRITERIA, criterion_6, run_acceptance


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion(index, capsys):
    t0 = time.perf_counter()
    result = CRITERIA[index]()
    elapsed = time.perf_counter() - t0
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] criterion {index}: {result.title} ({elapsed:.1f}s)")
        for c in result.checks:
            if not c.passed:
                print(f"    FAILED {c.name}: measured {c.measured!r} vs "
                      f"expected {c.expected!r} (tol {c.tolerance:g}, {c.comparison})")
    assert result.passed, f"criterion {index} failed: " + "; ".join(
        f"{c.name}={c.measured!r}" for c in result.checks if not c.passed)


def test_fault_injection_negative_control():
    results = run_acceptance(fault=4, only=[4])
    assert len(results) == 1
    assert not results[0].passed


def test_criterion_6_reads_one_lattice_per_function(monkeypatch):
    # 200 functions whose four ratios and correlation laws share one lattice,
    # 50 q_mean/q_gauss pairs at two lattices each, and 50 periodization and
    # 50 dilation pairs at two lattices each
    calls = []
    lattice = autocorr.correlate.lattice_autocorrelation

    def counted(samples):
        calls.append(samples.size)
        return lattice(samples)

    monkeypatch.setattr(autocorr.correlate, "lattice_autocorrelation", counted)
    assert criterion_6().passed
    assert len(calls) == 200 + 2 * 50 + 2 * 50 + 2 * 50
