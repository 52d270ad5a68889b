"""Theorem checkers: thresholds, verdicts, membership, boundary probe."""

import cmath
import math

import numpy as np
import pytest

from diskcheck import (
    BracketKind,
    FalsifyConfig,
    Functional,
    FunctionClass,
    GridSpec,
    InputError,
    ParameterError,
    Params,
    PolySeries,
    SeriesA,
    Theorem,
    VerdictState,
    Witness,
    as_polynomial,
    check,
    circle_max,
    coeff_bound,
    duality_check,
    eval_functional,
    jack_probe,
    make_witness,
    membership,
    poly_sup,
    threshold,
    validate_params,
    witness_closed_forms,
)
from diskcheck.bounds import _INV_GOLDEN
from diskcheck.checks import _check_rows, _decide

from conftest import small_tail_series

SPEC = GridSpec(m=1024, refine_depth=2)


# Frozen expected thresholds, worked out by hand from the closed formulas
# before the implementation ran. Layout: (theorem, n, alpha, beta, rho) -> value.
THRESHOLD_ORACLE = {
    (Theorem.LEM11, 1, 0.0, 0.5 + 0j, 0.3): 0.45,
    (Theorem.LEM11, 2, 0.0, 0j, 1.0): 3.0,
    (Theorem.LEM12, 2, 0.0, 1j, 0.25): 0.5 * math.sqrt(10.0),
    (Theorem.THM1, 1, 0.5, 0j, None): 2.0 / 3.0,
    (Theorem.THM1, 1, 0.0, 0j, None): 1.0,
    (Theorem.THM1, 3, 0.25, -1 + 0j, None): 0.75 * 3 * 5 / 3.75,
    (Theorem.COR1, 2, 0.25, -1 + 0j, None): 0.75 * 2 * 4 / 2.75,
    (Theorem.THM2, 1, 0.25, 2j, None): 0.75 * math.sqrt(5.0),
    (Theorem.THM2, 2, 0.0, 0j, None): 2.0,
    (Theorem.LEM3, 3, 0.0, 1 + 0j, 0.5): 1.0,
    (Theorem.THM3, 2, 0.25, 0j, None): 0.5,
    (Theorem.THM3, 2, 0.75, 0j, None): 0.5,
    (Theorem.THM3, 1, 0.5, 0.5j, None): 0.5 * math.sqrt(1.25),
}


def test_threshold_matches_frozen_oracle():
    for (thm, n, alpha, beta, rho), expect in THRESHOLD_ORACLE.items():
        got = threshold(thm, Params(alpha=alpha, beta=beta, rho=rho), n)
        assert got == pytest.approx(expect, rel=1e-15), (thm, n, alpha, beta, rho)


def test_threshold_formula_sweep(rng):
    """Re-derive each threshold with independently written expressions."""
    for _ in range(50):
        n = int(rng.integers(1, 5))
        alpha = float(rng.uniform(0.01, 0.99))
        beta = complex(rng.uniform(-2, min(n, n + 1) - 0.01), rng.uniform(-2, 2))
        rho = float(rng.uniform(0.05, 2.0))
        p = Params(alpha=alpha, beta=beta, rho=rho)
        d_star = abs((n + 1) - beta)
        d_turn = abs(n - beta)
        assert threshold(Theorem.LEM11, p, n) == pytest.approx(rho * d_star, rel=1e-15)
        assert threshold(Theorem.LEM12, p, n) == pytest.approx(rho * n * d_star, rel=1e-15)
        assert threshold(Theorem.THM1, p, n) == pytest.approx(
            (1 - alpha) * n * d_star / (n + 1 - alpha), rel=1e-14
        )
        assert threshold(Theorem.COR1, p, n) == threshold(Theorem.THM1, p, n)
        assert threshold(Theorem.THM2, p, n) == pytest.approx((1 - alpha) * d_turn, rel=1e-15)
        assert threshold(Theorem.LEM3, p, n) == pytest.approx(rho * d_turn, rel=1e-15)
        want3 = (alpha if alpha <= 0.5 else 1 - alpha) * d_turn
        assert threshold(Theorem.THM3, p, n) == pytest.approx(want3, rel=1e-15)


def test_thm3_branch_override():
    p = Params(alpha=0.25)
    assert threshold(Theorem.THM3, p, 2, thm3_branch="low") == pytest.approx(0.5)
    assert threshold(Theorem.THM3, p, 2, thm3_branch="high") == pytest.approx(1.5)
    assert threshold(Theorem.THM3, p, 2, thm3_branch="auto") == pytest.approx(0.5)
    # the two pieces meet exactly at alpha = 1/2
    mid = Params(alpha=0.5, beta=0.25j)
    low = threshold(Theorem.THM3, mid, 3, thm3_branch="low")
    high = threshold(Theorem.THM3, mid, 3, thm3_branch="high")
    assert low == high
    with pytest.raises(InputError):
        threshold(Theorem.THM3, p, 2, thm3_branch="middle")


class TestValidateParams:
    def test_n_validation(self):
        with pytest.raises(ParameterError):
            validate_params(Theorem.THM1, Params(), 0)
        with pytest.raises(ParameterError):
            validate_params(Theorem.THM1, Params(), True)
        with pytest.raises(ParameterError):
            validate_params(Theorem.THM1, Params(), 1.5)

    def test_beta_strip_star_family(self):
        for thm in (Theorem.LEM11, Theorem.LEM12, Theorem.THM1, Theorem.COR1):
            # only the real part is constrained: Re(beta) < n+1
            validate_params(thm, Params(beta=1.9 + 5j, rho=1.0), 1)
            with pytest.raises(ParameterError):
                validate_params(thm, Params(beta=2.5, rho=1.0), 1)
            with pytest.raises(ParameterError):
                validate_params(thm, Params(beta=2.0 + 0j, rho=1.0), 1)

    def test_beta_strip_turn_family(self):
        for thm in (Theorem.THM2, Theorem.LEM3, Theorem.THM3):
            validate_params(thm, Params(alpha=0.3, beta=0.9 + 3j, rho=1.0), 1)
            with pytest.raises(ParameterError):
                validate_params(thm, Params(alpha=0.3, beta=1.0 + 0j, rho=1.0), 1)

    def test_alpha_ranges(self):
        with pytest.raises(ParameterError):
            validate_params(Theorem.THM1, Params(alpha=1.0), 1)
        with pytest.raises(ParameterError):
            validate_params(Theorem.THM1, Params(alpha=-0.1), 1)
        validate_params(Theorem.THM1, Params(alpha=0.0), 1)
        with pytest.raises(ParameterError):
            validate_params(Theorem.THM3, Params(alpha=0.0), 1)
        with pytest.raises(ParameterError):
            validate_params(Theorem.THM3, Params(alpha=1.0), 1)
        with pytest.raises(ParameterError):
            validate_params(Theorem.THM2, Params(alpha=math.nan), 1)

    def test_rho_required_for_plain_bound_lemmas(self):
        for thm in (Theorem.LEM11, Theorem.LEM12, Theorem.LEM3):
            with pytest.raises(ParameterError):
                validate_params(thm, Params(), 1)
            with pytest.raises(ParameterError):
                validate_params(thm, Params(rho=0.0), 1)
            with pytest.raises(ParameterError):
                validate_params(thm, Params(rho=-1.0), 1)
            validate_params(thm, Params(rho=0.5), 1)
        validate_params(Theorem.THM1, Params(), 1)  # rho ignored elsewhere


def test_non_enum_arguments_raise_input_error():
    f = SeriesA.from_tail(1, [0.1])
    cases = [
        (lambda: threshold("thm1", Params(), 1), "unknown theorem 'thm1'"),
        (lambda: check("thm1", f, Params()), "unknown theorem 'thm1'"),
        (lambda: membership("star", f, 0.5), "unknown function class 'star'"),
    ]
    for call, message in cases:
        with pytest.raises(InputError) as info:
            call()
        assert info.type is InputError
        assert str(info.value) == message


def test_non_number_arguments_raise_the_site_error():
    f = SeriesA.from_tail(1, [0.1])
    w = PolySeries([0.0, 1.0, 0.2])
    cases = [
        (lambda: check(Theorem.THM1, f, Params(), SPEC, "x"), InputError, "r_max must lie in (0, 1)"),
        (lambda: check(Theorem.THM1, f, Params(), SPEC, None), InputError, "r_max must lie in (0, 1)"),
        (lambda: membership(FunctionClass.STARLIKE, f, "x"), ParameterError, "membership needs 0 <= alpha < 1, got x"),
        (lambda: membership(FunctionClass.STARLIKE, f, None), ParameterError,
         "membership needs 0 <= alpha < 1, got None"),
        (lambda: membership(FunctionClass.STARLIKE, f, 0.5, SPEC, None), InputError, "r_max must lie in (0, 1)"),
        (lambda: jack_probe(w, 1, None), InputError, "probe radius must lie in (0, 1)"),
        (lambda: poly_sup(w, "x"), InputError, "circle radius must lie in (0, 1]"),
        (lambda: coeff_bound(w, None), InputError, "circle radius must lie in (0, 1]"),
        (lambda: f.scale_radius(None), InputError, "scale radius must lie in (0, 1]"),
        (lambda: witness_closed_forms(Witness.EX1, 1, 0.0, None, 0.5), InputError, "beta must be finite"),
        (lambda: witness_closed_forms(Witness.EX1, 1, 0.0, "x", 0.5), InputError, "beta must be finite"),
        (lambda: witness_closed_forms(Witness.EX1, 1, 0.0, 0j, None), InputError, "r must lie in (0, 1)"),
        (lambda: make_witness(Witness.EX1, 1, None), ParameterError, "alpha must be finite"),
        (lambda: FalsifyConfig(margin="x"), InputError, "margin must lie in (0, 1)"),
        (lambda: FalsifyConfig(r_max=None), InputError, "r_max must lie in (0, 1)"),
        (lambda: threshold(Theorem.LEM11, Params(rho="x"), 1), ParameterError, "lem11 needs rho > 0, got x"),
    ]
    for call, exc, message in cases:
        with pytest.raises(InputError) as info:
            call()
        assert info.type is exc
        assert str(info.value) == message


class TestDecide:
    def test_singular_point_wins(self):
        # an unknown conclusion (check passes the singular point as its witness)
        # beats a certified hypothesis
        assert _decide(True, None, 1.0) is VerdictState.INCONCLUSIVE

    def test_unproven_hypothesis_is_inconclusive(self):
        assert _decide(False, 0.1, 1.0) is VerdictState.INCONCLUSIVE

    def test_failed_guard_is_inconclusive(self):
        # check leaves the conclusion bracket None when the nonvanishing guard fails
        spec = GridSpec(m=256)
        cases = [
            (Theorem.THM1, SeriesA.from_tail(1, [1.2])),   # sup |f/z - 1| = 1.2 r
            (Theorem.COR1, SeriesA.from_tail(1, [0.6])),   # sup |f' - 1| = 1.2 r
            (Theorem.THM3, SeriesA.from_tail(1, [0.6])),
        ]
        for theorem, f in cases:
            rep = check(theorem, f, Params(alpha=0.5), spec)
            assert rep.concl is None
            assert rep.verdict.conclusion_margin is None
            assert rep.verdict.state is VerdictState.INCONCLUSIVE

    def test_missing_conclusion_is_inconclusive(self):
        assert _decide(True, None, 1.0) is VerdictState.INCONCLUSIVE

    def test_holds(self):
        assert _decide(True, 0.4, 0.5) is VerdictState.HOLDS

    def test_fails_carries_witness(self, monkeypatch):
        assert _decide(True, 0.6, 0.5) is VerdictState.FAILS
        # check reports the point of the violating conclusion value: with the
        # bound lowered, f' - 1 = 0.2 z of z + 0.1 z^2 fails at its circle maximum
        monkeypatch.setattr("diskcheck.checks._conclusion_bound", lambda theorem, params: 1e-3)
        rep = check(Theorem.THM2, SeriesA.from_tail(1, [0.1]), Params(alpha=0.5), GridSpec(m=256))
        assert rep.verdict.state is VerdictState.FAILS
        assert rep.witness == rep.verdict.witness
        assert abs(0.2 * rep.witness) == pytest.approx(rep.concl.lower, rel=1e-12)


class TestCheck:
    def test_thm1_sharp_witness_holds(self):
        f = SeriesA.from_tail(1, [1.0 / 3.0])
        rep = check(Theorem.THM1, f, Params(alpha=0.5), SPEC)
        assert rep.verdict.state is VerdictState.HOLDS
        assert rep.hyp.kind is BracketKind.CERTIFIED
        assert rep.hyp_threshold == pytest.approx(2.0 / 3.0, rel=1e-15)
        # hypothesis is |(2 - 0) z (2/3) / 2| ... = (2/3) r at r = 0.999
        assert rep.hyp.upper == pytest.approx(2.0 / 3.0 * 0.999, rel=1e-9)
        assert rep.concl.kind is BracketKind.GRID_ONLY
        assert math.isinf(rep.concl.upper)
        # conclusion max of |z f'/f - 1| sits on the negative axis
        assert rep.concl.lower == pytest.approx((1 / 3) * 0.999 / (1 - 0.999 / 3), rel=1e-9)
        assert rep.verdict.hypothesis_margin > 0
        assert rep.verdict.conclusion_margin > 0
        assert rep.witness is None

    def test_thm1_large_coefficient_inconclusive(self):
        f = SeriesA.from_tail(1, [1.0])
        rep = check(Theorem.THM1, f, Params(alpha=0.0), SPEC)
        assert rep.verdict.state is VerdictState.INCONCLUSIVE
        assert rep.verdict.hypothesis_margin < 0
        assert rep.concl is not None and rep.witness is None

    def test_lem11_holds_and_conclusion_bound_is_rho(self):
        f = SeriesA.from_tail(1, [0.1])
        rep = check(Theorem.LEM11, f, Params(rho=0.15), SPEC)
        assert rep.verdict.state is VerdictState.HOLDS
        assert rep.concl_bound == pytest.approx(0.15)
        # |f' - f/z| = |a z| peaks at r_max
        assert rep.concl.lower == pytest.approx(0.1 * 0.999, rel=1e-12)
        assert rep.concl.kind is BracketKind.CERTIFIED

    def test_lem11_threshold_not_met(self):
        f = SeriesA.from_tail(1, [0.1])
        rep = check(Theorem.LEM11, f, Params(rho=0.09), SPEC)
        # hypothesis sup 0.2 r exceeds threshold 0.18
        assert rep.verdict.state is VerdictState.INCONCLUSIVE

    def test_lem12_holds(self):
        f = SeriesA.from_tail(1, [0.1])
        rep = check(Theorem.LEM12, f, Params(rho=0.15), SPEC)
        assert rep.verdict.state is VerdictState.HOLDS
        assert rep.concl.lower == pytest.approx(0.1 * 0.999, rel=1e-12)

    def test_thm2_holds(self):
        f = SeriesA.from_tail(1, [0.4])
        rep = check(Theorem.THM2, f, Params(alpha=0.0), SPEC)
        assert rep.verdict.state is VerdictState.HOLDS
        assert rep.concl_bound == pytest.approx(1.0)
        assert rep.concl.lower == pytest.approx(0.8 * 0.999, rel=1e-12)

    def test_lem3_holds(self):
        f = SeriesA.from_tail(2, [0.05])
        rep = check(Theorem.LEM3, f, Params(rho=0.4), SPEC)
        assert rep.verdict.state is VerdictState.HOLDS

    def test_cor1_holds(self):
        f = SeriesA.from_tail(1, [0.2])
        rep = check(Theorem.COR1, f, Params(alpha=0.0), SPEC)
        assert rep.verdict.state is VerdictState.HOLDS
        assert rep.concl.kind is BracketKind.GRID_ONLY

    def test_thm3_holds_both_branches(self):
        f = SeriesA.from_tail(1, [0.1])
        low = check(Theorem.THM3, f, Params(alpha=0.25), SPEC)
        high = check(Theorem.THM3, f, Params(alpha=0.75), SPEC)
        assert low.verdict.state is VerdictState.HOLDS
        assert high.verdict.state is VerdictState.HOLDS
        assert low.concl_bound == pytest.approx(2.0)
        assert high.concl_bound == pytest.approx(1.0 / 1.5)

    def test_cor1_agrees_with_thm1_of_zfprime(self, rng):
        for _ in range(5):
            f = small_tail_series(rng, 1, 4, budget=0.4)
            a = check(Theorem.COR1, f, Params(alpha=0.25), SPEC)
            b = check(Theorem.THM1, f.to_zfprime(), Params(alpha=0.25), SPEC)
            assert a.verdict.state == b.verdict.state
            assert a.hyp_threshold == pytest.approx(b.hyp_threshold, rel=1e-15)
            assert a.hyp.lower == pytest.approx(b.hyp.lower, rel=1e-10)
            if a.concl is not None and b.concl is not None:
                assert a.concl.lower == pytest.approx(b.concl.lower, rel=1e-8, abs=1e-10)

    def test_r_max_validation(self):
        f = SeriesA.from_tail(1, [0.1])
        for bad in (0.0, 1.0, 1.5, math.nan):
            with pytest.raises(InputError):
                check(Theorem.THM1, f, Params(), r_max=bad)


def test_conclusion_lower_is_the_refined_circle_maximum(rng):
    # the row-wise scans refine the grid maximum exactly as circle_max does
    spec = GridSpec(m=256, refine_depth=3)
    for _ in range(5):
        f = small_tail_series(rng, 1, 4)
        lem11 = check(Theorem.LEM11, f, Params(rho=0.5), spec)
        assert lem11.concl.lower == circle_max(as_polynomial(Functional.DERIV_DEFECT, f).eval, 0.999, spec)
        thm1 = check(Theorem.THM1, f, Params(alpha=0.25), spec)
        quotient = lambda z: eval_functional(Functional.STAR_QUOTIENT, f, 0j, z)  # noqa: E731
        assert thm1.concl.lower == pytest.approx(circle_max(quotient, 0.999, spec), rel=1e-12)
        assert thm1.concl.lower > np.max(np.abs(quotient(0.999 * np.exp(2j * np.pi * np.arange(256) / 256))))


@pytest.mark.parametrize("offset", [0.0, 1.0 - 2.0 * _INV_GOLDEN])
def test_denominator_floor_gives_the_singular_point(offset):
    # f/z = 1 + a z with |a| r = 1 - 5e-13: the guard sup |f/z - 1| < 1 holds,
    # and f/z falls below the floor 1e-12 at one angle only: the grid point pi,
    # or the first golden point refining the grid point pi (offset in grid steps)
    spec = GridSpec(m=64, refine_depth=2)
    r = 0.999
    pole = math.pi + offset * 2.0 * math.pi / spec.m
    f = SeriesA.from_tail(1, [(1.0 - 5e-13) / r * cmath.exp(1j * (math.pi - pole))])
    rep = check(Theorem.THM1, f, Params(alpha=0.25), spec, r)
    assert rep.verdict.state is VerdictState.INCONCLUSIVE
    assert rep.concl is None and rep.verdict.conclusion_margin is None
    assert rep.witness == pytest.approx(r * cmath.exp(1j * pole), abs=1e-15)
    star = membership(FunctionClass.STARLIKE, f, 0.25, spec, r)
    assert star.state is VerdictState.INCONCLUSIVE and star.witness == rep.witness
    assert _check_rows(Theorem.THM1, 1, f.body.coeffs[None], Params(alpha=0.25), spec, r) == [
        (VerdictState.INCONCLUSIVE, None)]


def test_thm3_conclusion_equivalence(rng):
    """|1/v - 1/(2a)| < 1/(2a) holds exactly when Re(v) > a, for v != 0."""
    for _ in range(300):
        v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(v) < 1e-3:
            continue
        alpha = float(rng.uniform(0.05, 0.95))
        s = 1.0 / (2.0 * alpha)
        assert (abs(1.0 / v - s) < s) == (v.real > alpha)


class TestMembership:
    def test_starlike_order_half_witness(self):
        f = SeriesA.from_tail(1, [1.0 / 3.0])
        good = membership(FunctionClass.STARLIKE, f, 0.4, SPEC)
        assert good.state is VerdictState.HOLDS
        assert good.hypothesis_margin is None
        assert good.conclusion_margin == pytest.approx(0.1007, abs=1e-3)
        bad = membership(FunctionClass.STARLIKE, f, 0.6, SPEC)
        assert bad.state is VerdictState.FAILS
        assert bad.witness is not None
        assert bad.witness.real == pytest.approx(-0.999, abs=1e-3)

    def test_bounded_turning(self):
        f = SeriesA.from_tail(1, [0.5])
        assert membership(FunctionClass.BOUNDED_TURNING, f, 0.0, SPEC).state is VerdictState.HOLDS
        bad = membership(FunctionClass.BOUNDED_TURNING, f, 0.6, SPEC)
        assert bad.state is VerdictState.FAILS
        assert bad.witness.real == pytest.approx(-0.999, abs=1e-3)
        assert bad.conclusion_margin == pytest.approx(1 - 0.999 - 0.6, abs=1e-6)

    def test_convex(self):
        f = SeriesA.from_tail(1, [0.125])
        assert membership(FunctionClass.CONVEX, f, 0.5, SPEC).state is VerdictState.HOLDS
        assert membership(FunctionClass.CONVEX, f, 0.7, SPEC).state is VerdictState.FAILS

    def test_guard_failure_is_inconclusive(self):
        f = SeriesA.from_tail(1, [1.2])
        out = membership(FunctionClass.STARLIKE, f, 0.0, SPEC)
        assert out.state is VerdictState.INCONCLUSIVE
        assert out.conclusion_margin is None
        out = membership(FunctionClass.CONVEX, SeriesA.from_tail(1, [0.6]), 0.0, SPEC)
        assert out.state is VerdictState.INCONCLUSIVE

    def test_parameter_validation(self):
        f = SeriesA.from_tail(1, [0.1])
        with pytest.raises(ParameterError):
            membership(FunctionClass.STARLIKE, f, 1.0, SPEC)
        with pytest.raises(InputError):
            membership(FunctionClass.STARLIKE, f, 0.0, SPEC, r_max=1.0)


class TestDuality:
    def test_agreement_on_small_tails(self, rng):
        for _ in range(10):
            f = small_tail_series(rng, int(rng.integers(1, 4)), 4)
            out = duality_check(f, float(rng.uniform(0, 0.9)), SPEC)
            assert out.state is VerdictState.HOLDS

    def test_agreement_when_both_sides_fail(self):
        f = SeriesA.from_tail(1, [0.5])
        out = duality_check(f, 0.6, SPEC)
        assert out.state is VerdictState.HOLDS
        assert out.hypothesis_margin < 0  # convex side margin
        assert out.conclusion_margin < 0  # starlike side margin


class TestJackProbe:
    def test_positive_axis_peak(self):
        w = PolySeries(np.array([0, 1, 0.5], dtype=complex))
        rep = jack_probe(w, 1, 0.9)
        assert rep.z0 == pytest.approx(0.9 + 0j, abs=1e-9)
        assert rep.ratio.real == pytest.approx(1.9 / 1.45, rel=1e-12)
        assert abs(rep.ratio.imag) < 1e-12
        assert rep.ratio.real >= rep.n
        assert rep.curvature_check == pytest.approx(0.9 / 1.9 + 1.0, rel=1e-9)
        assert rep.curvature_check >= rep.ratio.real

    def test_negative_axis_peak(self):
        w = PolySeries(np.array([0, 1, -0.5], dtype=complex))
        rep = jack_probe(w, 1, 0.9)
        assert rep.z0.real == pytest.approx(-0.9, abs=1e-9)
        assert rep.ratio.real == pytest.approx(1.9 / 1.45, rel=1e-12)

    def test_monomial_is_degenerate_but_exact(self):
        w = PolySeries(np.array([0, 0, 0, 2j], dtype=complex))
        rep = jack_probe(w, 3, 0.5)
        assert rep.ratio == pytest.approx(3.0 + 0j, abs=1e-12)
        assert rep.curvature_check == pytest.approx(3.0, abs=1e-12)

    def test_leading_index_above_declared_n_is_fine(self):
        w = PolySeries(np.array([0, 0, 0, 1], dtype=complex))
        rep = jack_probe(w, 2, 0.5)
        assert rep.ratio.real >= 2

    @pytest.mark.parametrize("trial", range(12))
    def test_lemma_inequalities_on_random_functions(self, rng, trial):
        n = int(rng.integers(1, 4))
        extra = int(rng.integers(1, 5))
        coeffs = np.zeros(n + extra + 1, dtype=complex)
        coeffs[n:] = rng.uniform(-1, 1, size=extra + 1) + 1j * rng.uniform(-1, 1, size=extra + 1)
        if abs(coeffs[n]) < 1e-3:
            coeffs[n] = 1.0
        w = PolySeries(coeffs)
        for r in (0.5, 0.9):
            rep = jack_probe(w, n, r)
            assert abs(rep.ratio.imag) <= 1e-6 * (1 + abs(rep.ratio))
            assert rep.ratio.real >= n - 1e-6
            assert rep.curvature_check >= rep.ratio.real - 1e-6

    def test_validation(self):
        with pytest.raises(InputError):
            jack_probe(PolySeries(np.array([1, 1], dtype=complex)), 1, 0.5)  # w(0) != 0
        with pytest.raises(InputError):
            jack_probe(PolySeries(np.array([0, 0], dtype=complex)), 1, 0.5)  # w == 0
        with pytest.raises(InputError):
            jack_probe(PolySeries(np.array([0, 1], dtype=complex)), 2, 0.5)  # leading < n
        with pytest.raises(InputError):
            jack_probe(PolySeries(np.array([0, 1], dtype=complex)), 1, 1.0)
        with pytest.raises(InputError):
            jack_probe(PolySeries(np.array([0, 1], dtype=complex)), True, 0.5)
