import json
import pathlib

import numpy as np
import pytest

from diskcheck import PolySeries, SeriesA
from diskcheck.functionals import _polynomial_coeffs

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def report_schema():
    path = REPO_ROOT / "docs" / "report_schema.json"
    return json.loads(path.read_text())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_series(rng, n, tail_len, scale=0.1):
    """Normalized function with a uniformly drawn complex tail of given size."""
    tail = scale * (rng.uniform(-1, 1, size=tail_len) + 1j * rng.uniform(-1, 1, size=tail_len))
    return SeriesA.from_tail(n, tail)


def small_tail_series(rng, n, tail_len, budget=0.5):
    """Random function with sum of k|a_k| kept under `budget`.

    Keeps f' bounded away from zero on the disk, so the rational
    functionals built on f and zf' are both guard-safe.
    """
    f = random_series(rng, n, tail_len, scale=1.0)
    tail = f.tail
    ks = np.arange(n + 1, n + 1 + tail_len)
    weight = float(np.sum(ks * np.abs(tail)))
    if weight > budget:
        tail = tail * (budget / weight) * rng.uniform(0.5, 1.0)
    return SeriesA.from_tail(n, tail)


def polynomial(which, f, beta=0j):
    """The polynomial functional of f that check bounds, from its
    coefficient formulas."""
    return PolySeries(_polynomial_coeffs(which, f.body.coeffs, complex(beta)))


def zfprime(f):
    """z f'(z), which maps a_k to k a_k."""
    return SeriesA(f.n, PolySeries(f.body.coeffs * np.arange(f.body.coeffs.size)))
