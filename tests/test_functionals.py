"""Functional evaluation: coefficient formulas vs runtime derivatives.

The polynomial route and the pointwise route are implemented independently,
so their agreement on random inputs is the main correctness oracle here.
"""

import numpy as np
import pytest

from diskcheck import (
    Functional,
    InputError,
    NotPolynomialError,
    PolySeries,
    SeriesA,
    SingularDenominatorError,
    as_polynomial,
    eval_functional,
)
from diskcheck.functionals import POLYNOMIAL_FUNCTIONALS

from conftest import random_series

BETAS = [0j, 0.5 + 0j, -1 + 0j, 2j, 1.5 - 0.25j]


def test_known_coefficients():
    f = SeriesA.from_tail(2, [2.0])  # z + 2 z^3
    beta = 1 + 1j
    expect = {
        Functional.DERIV_DEFECT: [0, 0, 4],
        Functional.RATIO_DEFECT: [0, 0, 2],
        Functional.STAR_TEST: [0, 0, 4 * (3 - beta)],
        Functional.TURN_TEST: [0, 0, 6 * (2 - beta)],
        Functional.CONVEX_TEST: [0, 0, 12 * (3 - beta)],
        Functional.DERIV_MINUS_ONE: [0, 0, 6],
    }
    for which, coeffs in expect.items():
        got = as_polynomial(which, f, beta)
        assert np.allclose(got.coeffs, np.array(coeffs, dtype=complex)), which


@pytest.mark.parametrize("which", sorted(POLYNOMIAL_FUNCTIONALS, key=lambda w: w.value))
@pytest.mark.parametrize("beta", BETAS)
def test_polynomial_and_pointwise_routes_agree(rng, which, beta):
    for n in (1, 2, 4):
        f = random_series(rng, n, tail_len=5, scale=0.3)
        zs = 0.95 * np.exp(1j * rng.uniform(0, 2 * np.pi, size=40))
        poly_vals = as_polynomial(which, f, beta)(zs)
        direct_vals = eval_functional(which, f, beta, zs)
        assert np.max(np.abs(poly_vals - direct_vals)) < 1e-10


def test_constant_slot_always_zero(rng):
    f = random_series(rng, 1, tail_len=4)
    for which in POLYNOMIAL_FUNCTIONALS:
        assert as_polynomial(which, f, 0.7 + 0.2j).coeffs[0] == 0


def test_quotients_have_no_polynomial_form(rng):
    f = random_series(rng, 1, tail_len=3)
    for which in (Functional.STAR_QUOTIENT, Functional.CONVEX_QUOTIENT):
        with pytest.raises(NotPolynomialError):
            as_polynomial(which, f)


def _shifted(p: PolySeries, delta: complex) -> PolySeries:
    c = p.coeffs.copy()
    c[0] += delta
    return PolySeries(c)


@pytest.mark.parametrize("beta", BETAS)
def test_star_test_rewrites_through_ratio_defect(rng, beta):
    """z f'' - beta (f' - f/z) equals z^2 w'' + (2 - beta) z w' for w = f/z - 1."""
    f = random_series(rng, 2, tail_len=4)
    w = _shifted(f.divide_by_z(), -1.0)
    w1, w2 = w.derivative(), w.derivative().derivative()
    zs = 0.9 * np.exp(1j * np.linspace(0.1, 6.1, 17))
    lhs = eval_functional(Functional.STAR_TEST, f, beta, zs)
    rhs = zs * zs * w2(zs) + (2.0 - beta) * zs * w1(zs)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("beta", BETAS)
def test_turn_test_rewrites_through_deriv_defect(rng, beta):
    """z f'' - beta (f' - 1) equals z w' - beta w for w = f' - 1."""
    f = random_series(rng, 3, tail_len=4)
    w = _shifted(PolySeries(f.derivative().coeffs), -1.0)
    zs = 0.9 * np.exp(1j * np.linspace(0.0, 6.2, 17))
    lhs = eval_functional(Functional.TURN_TEST, f, beta, zs)
    rhs = zs * w.derivative()(zs) - beta * w(zs)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("beta", BETAS)
def test_convex_test_is_star_test_of_zfprime(rng, beta):
    f = random_series(rng, 2, tail_len=5)
    via_transform = as_polynomial(Functional.STAR_TEST, f.to_zfprime(), beta)
    direct = as_polynomial(Functional.CONVEX_TEST, f, beta)
    assert np.allclose(via_transform.coeffs, direct.coeffs, rtol=1e-14, atol=0)


def test_deriv_defect_of_zfprime_is_zfdoubleprime(rng):
    f = random_series(rng, 1, tail_len=4)
    zs = 0.8 * np.exp(1j * np.linspace(0, 6, 9))
    lhs = eval_functional(Functional.DERIV_DEFECT, f.to_zfprime(), 0j, zs)
    rhs = zs * f.derivative().derivative()(zs)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestQuotients:
    def test_star_quotient_matches_direct_formula(self, rng):
        f = random_series(rng, 1, tail_len=3, scale=0.05)
        for z in (0.5, -0.3 + 0.4j, 0.9j):
            want = z * f.derivative()(z) / f(z) - 1.0
            got = eval_functional(Functional.STAR_QUOTIENT, f, z=z)
            assert got == pytest.approx(want, abs=1e-13)

    def test_convex_quotient_matches_direct_formula(self, rng):
        f = random_series(rng, 1, tail_len=3, scale=0.05)
        d1, d2 = f.derivative(), f.derivative().derivative()
        for z in (0.5, -0.3 + 0.4j, 0.9j):
            want = z * d2(z) / d1(z)
            got = eval_functional(Functional.CONVEX_QUOTIENT, f, z=z)
            assert got == pytest.approx(want, abs=1e-13)

    def test_removable_singularity_at_origin(self):
        f = SeriesA.from_tail(1, [0.4, -0.2])
        assert eval_functional(Functional.STAR_QUOTIENT, f, z=0j) == 0
        assert eval_functional(Functional.CONVEX_QUOTIENT, f, z=0j) == 0

    def test_star_quotient_singularity_raises_with_point(self):
        f = SeriesA.from_tail(1, [2.0])  # f/z = 1 + 2z vanishes at -1/2
        with pytest.raises(SingularDenominatorError) as info:
            eval_functional(Functional.STAR_QUOTIENT, f, z=-0.5)
        assert info.value.z == pytest.approx(-0.5)

    def test_singularity_detected_inside_arrays(self):
        f = SeriesA.from_tail(1, [2.0])
        zs = np.array([0.1, -0.5, 0.3], dtype=complex)
        with pytest.raises(SingularDenominatorError) as info:
            eval_functional(Functional.STAR_QUOTIENT, f, z=zs)
        assert info.value.z == pytest.approx(-0.5)

    def test_convex_quotient_singularity(self):
        f = SeriesA.from_tail(1, [-1.0])  # f' = 1 - 2z vanishes at 1/2
        with pytest.raises(SingularDenominatorError):
            eval_functional(Functional.CONVEX_QUOTIENT, f, z=0.5)


def test_beta_must_be_finite(rng):
    f = random_series(rng, 1, tail_len=2)
    with pytest.raises(InputError):
        as_polynomial(Functional.STAR_TEST, f, complex("inf"))
    with pytest.raises(InputError):
        eval_functional(Functional.TURN_TEST, f, float("nan"), 0.1)


def test_list_input_for_z(rng):
    f = random_series(rng, 1, tail_len=2)
    out = eval_functional(Functional.DERIV_MINUS_ONE, f, 0j, [0.1, 0.2j])
    assert out.shape == (2,)
