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
    poly_sup,
)
import diskcheck.bounds
from diskcheck.bounds import _brackets, _circle_rows, _coeff_sums, _golden_argmax, _powers, _stacked, _sub_grids, \
    _sup_rows, _sup_upper, _unit_circle
from diskcheck.series import _horner_rows

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
                ref = circle_argmax(p.eval, r, dense)[0]
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
            cb = _coeff_sums(p.coeffs, r)
            zs = r * np.exp(1j * rng.uniform(0, 2 * np.pi, size=200))
            assert cb >= np.max(np.abs(p(zs))) - 1e-12


def test_coeff_bound_exact_for_positive_coefficients():
    p = PolySeries(np.array([0, 1, 0.5, 0.25], dtype=complex))
    # positive coefficients peak on the positive real axis
    assert _coeff_sums(p.coeffs, 0.9) == pytest.approx(abs(p(0.9)), rel=1e-15)


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
    flat = circle_argmax(p.eval, 0.95, GridSpec(m=16, refine_depth=0))[0]
    refined = circle_argmax(p.eval, 0.95, GridSpec(m=16, refine_depth=6))[0]
    assert refined >= flat
    dense = circle_argmax(p.eval, 0.95, GridSpec(m=4096, refine_depth=3))[0]
    assert refined <= dense * (1 + 1e-12)


def test_profile_nondecreasing_in_radius(rng):
    for _ in range(5):
        f = random_series(rng, 1, tail_len=4)
        # the radius ladder 1 - 2^-1, ..., 1 - 2^-10 approaching the boundary
        values = [circle_argmax(f.eval, 1.0 - 2.0**-k, GridSpec(m=256, refine_depth=1))[0] for k in range(1, 11)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12


def test_radius_validation():
    p = PolySeries(np.array([1.0], dtype=complex))
    for r in (0.0, -1.0, 1.0001, math.nan):
        with pytest.raises(InputError):
            poly_sup(p, r)
        with pytest.raises(InputError):
            circle_argmax(p.eval, r)


def test_constant_poly_sup():
    p = PolySeries(np.array([3 - 4j], dtype=complex))
    b = poly_sup(p, 0.5, GridSpec(m=16, refine_depth=0))
    assert b.lower == pytest.approx(5.0, rel=1e-15)
    assert b.upper == pytest.approx(5.0, rel=1e-15)


def _deep_argmax(h, r, m):
    return _golden_argmax(h, r, h(r * _unit_circle(m)), 120)


def test_deep_argmax_locates_peaks():
    p = PolySeries(np.array([0, 1, 0.5], dtype=complex))
    val, theta = _deep_argmax(lambda z: abs(p.eval(z)), 0.9, m=512)
    assert val == pytest.approx(1.305, abs=1e-12)
    assert math.cos(theta) == pytest.approx(1.0, abs=1e-8)

    q = PolySeries(np.array([0, 1, -0.5], dtype=complex))
    val, theta = _deep_argmax(lambda z: abs(q.eval(z)), 0.9, m=512)
    assert val == pytest.approx(1.305, abs=1e-12)
    assert math.cos(theta) == pytest.approx(-1.0, abs=1e-8)


def _random_rows(rng, rows, size):
    return rng.uniform(-1, 1, size=(rows, size)) + 1j * rng.uniform(-1, 1, size=(rows, size))


@pytest.mark.parametrize("rows, K, m", [(1, 8, 16), (1, 2048, 4096), (16, 8, 512), (16, 63, 64), (1, 40, 16), (4, 5000, 4096),
                                     (2, 8191, 4096)])
def test_circle_rows_equal_horner_on_the_grid(rng, rows, K, m):
    # A-priori bound: the FFT of the folded row errs by at most about
    # eta log2(m) sum_k |c_k| r^k a value, eta ~ 6.7 eps (Higham, Accuracy and
    # Stability of Numerical Algorithms, ch. 24), and folding K + 1 > m
    # coefficients adds ceil((K + 1) / m) terms a slot; 8 eps covers eta.
    c = _random_rows(rng, rows, K + 1)
    r = 0.95
    fft = _circle_rows(c, r, m)
    horner = _horner_rows(c, r * _unit_circle(m))
    assert fft.shape == (rows, m)
    weight = np.sum(np.abs(c) * r ** np.arange(K + 1), axis=-1)
    tol = 8 * np.finfo(float).eps * (math.log2(m) + math.ceil((K + 1) / m)) * weight
    assert np.all(np.abs(fft - horner).max(axis=-1) <= tol)


@pytest.mark.parametrize("m", [16, 512, 4096])
def test_stacked_rows_equal_one_call_per_row(rng, m):
    # rows of unequal length, zero-padded to the longest, give bitwise the
    # grids of one call per row, also where a row is longer than m and folded
    sizes = (1, 5, 66, 515, 2052, m - 1, m, m + 3, 2 * m + 7)
    parts = [_random_rows(rng, 1 + i % 3, size) for i, size in enumerate(sizes)]
    stack = _stacked(*parts)
    assert stack.shape == (sum(len(p) for p in parts), max(sizes))
    want = np.concatenate([_circle_rows(p, 0.95, m) for p in parts])
    assert np.array_equal(_circle_rows(stack, 0.95, m), want)


@pytest.mark.parametrize("K, m", [(15, 16), (8, 16), (64, 4096)])
def test_sup_upper_dominates_the_dense_grid(rng, K, m):
    # the sampling inequality holds for every row of degree <= K < m; the
    # reference is a Horner grid 64 times denser than the sampled one
    spec = GridSpec(m=m, refine_depth=2)
    peak = np.zeros((1, K + 1), dtype=complex)
    peak[0, [0, K]] = 1.0
    c = np.concatenate([_random_rows(rng, 20, K + 1), peak])
    for r in (0.5, 0.999):
        lower = _sup_rows(c, r, spec)[0]
        upper = _sup_upper(c, r, lower, spec)
        dense = np.abs(_horner_rows(c, r * _unit_circle(64 * m))).max(axis=-1)
        assert np.all(upper * (1 + 1e-12) >= dense)
        assert np.all(upper >= lower)


def test_sampling_bound_tightens_the_bracket(rng):
    # at K = 64 and m = 4096 the sec term is below both older bounds
    c = _random_rows(rng, 4, 65) / np.arange(1, 66) ** 2
    spec = GridSpec(m=4096, refine_depth=3)
    lower = _sup_rows(c, 0.999, spec)[0]
    upper = _sup_upper(c, 0.999, lower, spec)
    assert np.array_equal(upper, np.maximum(lower, lower / math.cos(math.pi * 64 / (2 * 4096))))


def test_sup_upper_without_the_sampling_bound_when_K_reaches_m(rng):
    # K >= m: the bound is min(coefficient sum, lower + Lipschitz pad), as
    # before the sampling inequality was added
    spec = GridSpec(m=16, refine_depth=2)
    for K in (16, 40):
        c = _random_rows(rng, 8, K + 1)
        r = 0.9
        lower = _sup_rows(c, r, spec)[0]
        powers = r ** np.arange(K + 1)
        lip = np.sum(np.arange(1, K + 1) * np.abs(c[:, 1:]) * powers[:-1], axis=-1)
        pad = lower + lip * math.pi * r / spec.m
        expect = np.maximum(lower, np.minimum(np.sum(np.abs(c) * powers, axis=-1), pad))
        assert np.array_equal(_sup_upper(c, r, lower, spec), expect)


def test_trailing_zeros_do_not_loosen_the_bound(rng):
    # K is each row's last nonzero index: a row padded with zeros past m
    # keeps the sec bound of its degree, and stacked rows of one length keep
    # their own
    spec, r = GridSpec(m=128, refine_depth=2), 0.95
    c = _random_rows(rng, 3, 65)
    padded = np.concatenate([c, np.zeros((3, 100))], axis=1)
    padded[1, 40:] = 0.0
    lower = _sup_rows(padded, r, spec)[0]
    upper = _sup_upper(padded, r, lower, spec)
    sec = lower / np.cos(np.pi * np.array([64, 39, 64]) / (2 * spec.m))
    assert np.all(upper <= sec) and np.all(upper >= lower)
    assert np.array_equal(upper[[0, 2]], _sup_upper(c[[0, 2]], r, lower[[0, 2]], spec))


def test_radius_powers_are_bitwise_the_computed_ones(rng):
    # r^k is computed once for a radius and length and cannot be written to;
    # every kernel reads the same bits, whatever the row length that asked
    # first, as r^k computed from the float
    c, spec = _random_rows(rng, 2, 300), GridSpec(m=256, refine_depth=2)
    powers = _powers(0.999, 400)
    assert _powers(0.999, 400) is powers and not powers.flags.writeable
    with pytest.raises(ValueError):
        powers[0] = 2.0
    assert np.array_equal(powers, np.float64(0.999) ** np.arange(400))
    assert np.array_equal(_powers(0.999, 300), powers[:300])
    assert np.array_equal(_coeff_sums(c, 0.999), np.sum(np.abs(c) * np.float64(0.999) ** np.arange(300), axis=-1))
    lower = _sup_rows(c, 0.999, spec)[0]
    _powers.cache_clear()
    assert np.array_equal(_sup_rows(c, 0.999, spec)[0], lower)
    assert np.array_equal(_sup_upper(c, 0.999, lower, spec), _sup_upper(c, np.float64(0.999), lower, spec))


@pytest.mark.parametrize("K, m, fine", [(8, 16, 64), (15, 16, 32), (40, 16, 128), (300, 16, 256), (2048, 4096, 16384)])
def test_sub_grids_interleave_to_the_fine_grid(rng, K, m, fine):
    # sub-grid s of b = max(m, fine / 8) points holds the fine grid's samples
    # s, s + d, s + 2d, ... (d = fine / b); at b = m sub-grid 0, the first
    # grid, is left out. Horner on the fine grid is the reference, with the
    # FFT tolerance of test_circle_rows_equal_horner_on_the_grid plus the twist
    c, r = _random_rows(rng, 1, K + 1)[0], 0.95
    b = max(m, fine // 8)
    grids = _sub_grids(c, r, m, fine)
    assert grids.shape == (fine // b - (b == m), b)
    if b == m:
        grids = np.concatenate([_circle_rows(c[None], r, m), grids])
    horner = _horner_rows(c[None], r * _unit_circle(fine))[0]
    weight = np.sum(np.abs(c) * r ** np.arange(K + 1))
    tol = 16 * np.finfo(float).eps * (math.log2(b) + math.ceil((K + 1) / b)) * weight
    assert np.abs(grids.T.ravel() - horner).max() <= tol


def _undecided_rows(rng, K, m, rows, r, ratio):
    """Flat-spectrum rows of degree K whose m-point bracket straddles a
    bound: each with the bound ratio times its grid maximum, at most its
    upper."""
    c = _random_rows(rng, rows, K + 1)
    spec = GridSpec(m=m, refine_depth=2)
    lower = _sup_rows(c, r, spec)[0]
    upper = _sup_upper(c, r, lower, spec)
    bound = ratio * lower
    assert np.all(bound <= upper)
    return c, lower, upper, bound


def _one_row_bracket(c, r, lower, bound, m, i):
    """The _brackets bracket of row i of c alone against its bound, as two
    floats."""
    lo, up = _brackets(c[i : i + 1], r, lower[i : i + 1], bound[i], GridSpec(m=m))
    return float(lo[0]), float(up[0])


@pytest.mark.parametrize("K, m", [(200, 256), (63, 64), (100, 64), (40, 16)])
def test_refined_bracket_encloses_the_dense_grid(rng, K, m):
    # a refined row's lower never falls below its first-grid lower and is a
    # value |p| takes; its upper dominates Horner on a grid 8 times the
    # finest grid refinement may build, max(m, 8 (K + 1)) rounded up
    r = 0.999
    c, lower, upper, bound = _undecided_rows(rng, K, m, 6, r, 1.05)
    dense_m = 8 * m * 2 ** math.ceil(math.log2(max(m, 8 * (K + 1)) / m))
    dense = np.abs(_horner_rows(c, r * _unit_circle(dense_m))).max(axis=-1)
    for i in range(len(c)):
        lo, up = _one_row_bracket(c, r, lower, bound, m, i)
        assert lower[i] <= lo <= up <= upper[i]
        assert lo <= dense[i] * (1 + 1e-12) and up * (1 + 1e-12) >= dense[i]


def test_refinement_goes_straight_to_the_smallest_deciding_grid(rng, monkeypatch):
    # one grid per refined row: the smallest m 2^j at which sec times the
    # first lower is below the bound
    built = []
    real = diskcheck.bounds._sub_grids

    def recording(c, r, m, fine):
        built.append(fine)
        return real(c, r, m, fine)

    monkeypatch.setattr("diskcheck.bounds._sub_grids", recording)
    K, m, r = 200, 256, 0.999
    c, lower, upper, bound = _undecided_rows(rng, K, m, 4, r, 1.05)
    for i in range(len(c)):
        built.clear()
        _one_row_bracket(c, r, lower, bound, m, i)
        fine = next(m * 2**j for j in range(1, 20) if lower[i] / math.cos(math.pi * K / (2 * m * 2**j)) < bound[i])
        assert built == [fine]


def test_a_grid_past_the_cap_is_never_built(rng, monkeypatch):
    # a bound 1e-9 above the grid maximum needs a grid past max(m, 8 (K + 1)):
    # the bracket stays as it is and no grid is built
    monkeypatch.setattr("diskcheck.bounds._sub_grids", lambda *args: pytest.fail("built a grid past the cap"))
    for K, m in ((200, 256), (10, 4096), (3000, 16)):
        c, lower, upper, bound = _undecided_rows(rng, K, m, 3, 0.999, 1 + 1e-9)
        for i in range(len(c)):
            assert _one_row_bracket(c, 0.999, lower, bound, m, i) == (lower[i], upper[i])
