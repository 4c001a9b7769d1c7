"""Shared test helpers."""

import pytest


def _random_windows(rng, support, k=200):
    """Windows over and around ``support``: some empty or reversed
    (hi <= lo), some wholly off the support on either side."""
    lo0, hi0 = support
    span = hi0 - lo0
    lo = rng.uniform(lo0 - span, hi0 + span, k)
    hi = lo + rng.uniform(-0.5 * span, span, k)
    hi[:10] = lo[:10]
    lo[10:20], hi[10:20] = hi0 + 0.1, hi0 + 1.0
    lo[20:30], hi[20:30] = lo0 - 2.0, lo0 - 1.0
    return lo, hi


@pytest.fixture
def random_windows():
    return _random_windows
