"""Certified sup brackets: soundness against dense reference grids."""

import math

import numpy as np
import pytest

from diskcheck import (
    BracketKind,
    GridSpec,
    InputError,
    PolySeries,
    SupBracket,
    circle_argmax,
    circle_max,
    coeff_bound,
    poly_sup,
)
from diskcheck.bounds import _circle_argopt, _unit_circle

from conftest import random_series


def _random_poly(rng, size):
    return PolySeries(rng.uniform(-1, 1, size=size) + 1j * rng.uniform(-1, 1, size=size))


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert spec.m == 4096

    def test_validation(self):
        with pytest.raises(InputError):
            GridSpec(m=8)
        with pytest.raises(InputError):
            GridSpec(m=True)
        with pytest.raises(InputError):
            GridSpec(refine_depth=-1)


class TestSupBracket:
    def test_width(self):
        b = SupBracket(1.0, 1.5, 0.9, BracketKind.CERTIFIED)
        assert b.width == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(InputError):
            SupBracket(2.0, 1.0, 0.9, BracketKind.CERTIFIED)
        with pytest.raises(InputError):
            SupBracket(-0.1, 1.0, 0.9, BracketKind.CERTIFIED)
        with pytest.raises(InputError):
            SupBracket(math.inf, math.inf, 0.9, BracketKind.GRID_ONLY)

    def test_grid_only_allows_infinite_upper(self):
        b = SupBracket(1.0, math.inf, 0.9, BracketKind.GRID_ONLY)
        assert b.width == math.inf


def test_bracket_contains_dense_reference(rng):
    coarse = GridSpec(m=64, refine_depth=2)
    dense = GridSpec(m=8192, refine_depth=3)
    for size in (2, 4, 7):
        for _ in range(5):
            p = _random_poly(rng, size)
            for r in (0.5, 0.9, 0.999):
                b = poly_sup(p, r, coarse)
                ref = circle_max(p.eval, r, dense)
                assert b.kind is BracketKind.CERTIFIED
                assert b.lower <= ref * (1 + 1e-12) + 1e-15
                assert ref <= b.upper * (1 + 1e-12) + 1e-15


def test_monomial_bracket_is_tight(rng):
    # constant modulus on each circle: every grid point is the max
    for k, c in ((1, 0.7), (3, -0.4 + 0.2j), (6, 1.9j)):
        coeffs = np.zeros(k + 1, dtype=complex)
        coeffs[k] = c
        p = PolySeries(coeffs)
        for r in (0.3, 0.9):
            b = poly_sup(p, r, GridSpec(m=32, refine_depth=0))
            truth = abs(c) * r**k
            assert b.lower == pytest.approx(truth, rel=1e-15)
            assert b.upper == pytest.approx(truth, rel=1e-15)
            assert b.upper >= b.lower


def test_bracket_width_respects_lipschitz_pad(rng):
    p = _random_poly(rng, 5)
    r = 0.9
    m = 128
    b = poly_sup(p, r, GridSpec(m=m, refine_depth=0))
    k = np.arange(1, p.coeffs.size)
    lip = float(np.sum(k * np.abs(p.coeffs[1:]) * r ** (k - 1)))
    assert b.width <= lip * math.pi * r / m + 1e-15


def test_coeff_bound_dominates_circle_values(rng):
    for _ in range(10):
        p = _random_poly(rng, 6)
        for r in (0.2, 0.8, 1.0):
            cb = coeff_bound(p, r)
            zs = r * np.exp(1j * rng.uniform(0, 2 * np.pi, size=200))
            assert cb >= np.max(np.abs(p(zs))) - 1e-12


def test_coeff_bound_exact_for_positive_coefficients():
    p = PolySeries(np.array([0, 1, 0.5, 0.25], dtype=complex))
    # positive coefficients peak on the positive real axis
    assert coeff_bound(p, 0.9) == pytest.approx(abs(p(0.9)), rel=1e-15)


def test_circle_argmax_known_peak():
    p = PolySeries(np.array([0, 1, 0.5], dtype=complex))
    val, z0 = circle_argmax(p.eval, 0.9)
    assert val == pytest.approx(1.305, abs=1e-9)
    assert z0 == pytest.approx(0.9 + 0j, abs=1e-4)
    assert abs(z0) == pytest.approx(0.9, rel=1e-12)


def test_circle_argmax_negative_axis_peak():
    p = PolySeries(np.array([0, 1, -0.5], dtype=complex))
    val, z0 = circle_argmax(p.eval, 0.9)
    assert val == pytest.approx(1.305, abs=1e-9)
    assert z0.real == pytest.approx(-0.9, abs=1e-3)


def test_refinement_never_loses_to_coarse_grid(rng):
    p = _random_poly(rng, 8)
    flat = circle_max(p.eval, 0.95, GridSpec(m=16, refine_depth=0))
    refined = circle_max(p.eval, 0.95, GridSpec(m=16, refine_depth=6))
    assert refined >= flat
    dense = circle_max(p.eval, 0.95, GridSpec(m=4096, refine_depth=3))
    assert refined <= dense * (1 + 1e-12)


def test_profile_nondecreasing_in_radius(rng):
    for _ in range(5):
        f = random_series(rng, 1, tail_len=4)
        # the radius ladder 1 - 2^-1, ..., 1 - 2^-10 approaching the boundary
        values = [circle_max(f.eval, 1.0 - 2.0**-k, GridSpec(m=256, refine_depth=1)) for k in range(1, 11)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12


def test_radius_validation():
    p = PolySeries(np.array([1.0], dtype=complex))
    for r in (0.0, -1.0, 1.0001, math.nan):
        with pytest.raises(InputError):
            poly_sup(p, r)
        with pytest.raises(InputError):
            coeff_bound(p, r)


def test_constant_poly_sup():
    p = PolySeries(np.array([3 - 4j], dtype=complex))
    b = poly_sup(p, 0.5, GridSpec(m=16, refine_depth=0))
    assert b.lower == pytest.approx(5.0, rel=1e-15)
    assert b.upper == pytest.approx(5.0, rel=1e-15)


def _deep_argmax(h, r, m):
    return _circle_argopt(h, r, h(r * _unit_circle(m)), 120, basins=3, tol=1e-10)


def test_deep_argmax_locates_peaks():
    p = PolySeries(np.array([0, 1, 0.5], dtype=complex))
    val, theta = _deep_argmax(lambda z: abs(p.eval(z)), 0.9, m=512)
    assert val == pytest.approx(1.305, abs=1e-12)
    assert math.cos(theta) == pytest.approx(1.0, abs=1e-8)

    q = PolySeries(np.array([0, 1, -0.5], dtype=complex))
    val, theta = _deep_argmax(lambda z: abs(q.eval(z)), 0.9, m=512)
    assert val == pytest.approx(1.305, abs=1e-12)
    assert math.cos(theta) == pytest.approx(-1.0, abs=1e-8)


def test_multi_basin_argmax_prefers_off_grid_near_tie():
    # A bump of height 1 on the grid point theta = 0 and a slightly higher
    # bump between grid points at theta = pi + dt/2: the single best grid
    # sample sits in the wrong basin, and only multi-basin refinement finds
    # the true peak.
    m = 64
    dt = 2 * math.pi / m
    peak = math.pi + dt / 2

    def bumps(z):
        t = np.angle(z)
        near = np.angle(np.exp(1j * (t - peak)))
        return np.exp(-0.5 * (t / dt) ** 2) + 1.01 * np.exp(-0.5 * (near / dt) ** 2)

    val, theta = _circle_argopt(bumps, 0.9, bumps(0.9 * _unit_circle(m)), 120, basins=1, tol=1e-10)
    assert val == 1.0
    assert theta == 0.0

    val, theta = _deep_argmax(bumps, 0.9, m)
    assert val == pytest.approx(1.01, abs=1e-12)
    assert theta % (2 * math.pi) == pytest.approx(peak, abs=1e-8)
