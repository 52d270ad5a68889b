"""Theorem checkers: thresholds, verdicts, membership, boundary probe."""

import cmath
import math
import pathlib
import re
import warnings

import numpy as np
import pytest

import diskcheck.bounds

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
    check,
    circle_argmax,
    eval_functional,
    falsify,
    jack_probe,
    load_function,
    make_witness,
    membership,
    poly_sup,
    threshold,
    witness_closed_forms,
)
from diskcheck.bounds import _brackets, _circle_rows, _sup_rows, _sup_upper
from diskcheck.checks import _RULES, _polish_basins, _verdict
from diskcheck.functionals import _polynomial_coeffs

from conftest import polynomial, small_tail_series, zfprime

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


def test_thm3_threshold_takes_the_smaller_branch():
    # the split bound alpha |n - beta| (alpha <= 1/2), (1 - alpha) |n - beta| (alpha >= 1/2)
    for alpha in np.linspace(0.01, 0.99, 99).tolist() + [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]:
        for n, beta in ((1, 0j), (2, 0.5 + 0j), (3, 0.25j), (2, -1 + 2j)):
            want = min(alpha, 1.0 - alpha) * abs(n - beta)
            assert threshold(Theorem.THM3, Params(alpha=alpha, beta=beta), n) == want, (alpha, n, beta)


def test_thm3_above_one_half_never_uses_the_low_branch():
    # z + z^2/4 at alpha = 0.75: the hypothesis sup 0.4995 of |turn test| lies
    # between the high branch 0.25 and the low branch 0.75, and the conclusion
    # is violated, so the low branch would give a false Fails
    rep = check(Theorem.THM3, SeriesA.from_tail(1, [0.25]), Params(alpha=0.75), SPEC)
    assert rep.hyp_threshold == 0.25
    assert rep.hyp.upper == pytest.approx(0.4995, rel=1e-9)
    assert rep.concl.lower >= rep.concl_bound
    assert rep.verdict.state is VerdictState.INCONCLUSIVE
    assert rep.verdict.hypothesis_margin < 0 and rep.verdict.witness is None


class TestValidateParams:
    """The parameter checks that threshold runs before any arithmetic."""

    def test_n_validation(self):
        with pytest.raises(ParameterError):
            threshold(Theorem.THM1, Params(), 0)
        with pytest.raises(ParameterError):
            threshold(Theorem.THM1, Params(), True)
        with pytest.raises(ParameterError):
            threshold(Theorem.THM1, Params(), 1.5)

    def test_beta_strip_star_family(self):
        for thm in (Theorem.LEM11, Theorem.LEM12, Theorem.THM1, Theorem.COR1):
            # only the real part is constrained: Re(beta) < n+1
            threshold(thm, Params(beta=1.9 + 5j, rho=1.0), 1)
            with pytest.raises(ParameterError):
                threshold(thm, Params(beta=2.5, rho=1.0), 1)
            with pytest.raises(ParameterError):
                threshold(thm, Params(beta=2.0 + 0j, rho=1.0), 1)

    def test_beta_strip_turn_family(self):
        for thm in (Theorem.THM2, Theorem.LEM3, Theorem.THM3):
            threshold(thm, Params(alpha=0.3, beta=0.9 + 3j, rho=1.0), 1)
            with pytest.raises(ParameterError):
                threshold(thm, Params(alpha=0.3, beta=1.0 + 0j, rho=1.0), 1)

    def test_alpha_ranges(self):
        with pytest.raises(ParameterError):
            threshold(Theorem.THM1, Params(alpha=1.0), 1)
        with pytest.raises(ParameterError):
            threshold(Theorem.THM1, Params(alpha=-0.1), 1)
        threshold(Theorem.THM1, Params(alpha=0.0), 1)
        with pytest.raises(ParameterError):
            threshold(Theorem.THM3, Params(alpha=0.0), 1)
        with pytest.raises(ParameterError):
            threshold(Theorem.THM3, Params(alpha=1.0), 1)
        with pytest.raises(ParameterError):
            threshold(Theorem.THM2, Params(alpha=math.nan), 1)

    def test_rho_required_for_plain_bound_lemmas(self):
        for thm in (Theorem.LEM11, Theorem.LEM12, Theorem.LEM3):
            with pytest.raises(ParameterError):
                threshold(thm, Params(), 1)
            with pytest.raises(ParameterError):
                threshold(thm, Params(rho=0.0), 1)
            with pytest.raises(ParameterError):
                threshold(thm, Params(rho=-1.0), 1)
            threshold(thm, Params(rho=0.5), 1)
        threshold(Theorem.THM1, Params(), 1)  # rho ignored elsewhere

    @pytest.mark.parametrize("theorem, params, message", [
        (Theorem.LEM11, Params(beta=1.5, rho=5e-324), "lem11 threshold underflows to 0 at rho = 5e-324"),
        (Theorem.LEM3, Params(beta=0.5, rho=5e-324), "lem3 threshold underflows to 0 at rho = 5e-324"),
        (Theorem.THM3, Params(alpha=3e-309, beta=1 - 2**-52), "thm3 threshold underflows to 0 at alpha = 3e-309"),
        (Theorem.THM3, Params(alpha=5e-324), "thm3 needs 1/(2 alpha) within the float range, got alpha = 5e-324"),
        (Theorem.THM3, Params(alpha=1e-309), "thm3 needs 1/(2 alpha) within the float range, got alpha = 1e-309"),
    ])
    def test_both_ends_of_the_float_range_are_rejected(self, theorem, params, message):
        # a threshold that underflows to 0 or a thm3 conclusion bound 1/(2 alpha)
        # that overflows names its parameter, and check raises before any scan
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            threshold(theorem, params, 1)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            check(theorem, SeriesA.from_tail(1, []), params, SPEC)

    def test_a_subnormal_threshold_is_accepted(self):
        assert threshold(Theorem.LEM11, Params(beta=1.0, rho=5e-324), 1) == 5e-324
        assert threshold(Theorem.THM3, Params(alpha=3e-309), 1) == 3e-309


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
        (lambda: circle_argmax(w.eval, None), InputError, "circle radius must lie in (0, 1]"),
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


def decide(hyp_ok, lower, bound):
    """_verdict's state for one row; lower None leaves the conclusion unknown."""
    return _verdict(hyp_ok, math.nan if lower is None else lower, complex(math.nan, math.nan), bound, None).state


class TestDecide:
    def test_rows_are_decided_together(self):
        # the rule on the four cases the one-row cases below pin, side by side
        cases = [(True, None), (False, 0.1), (True, 0.4), (True, 0.6)]
        assert [decide(hyp_ok, lower, 0.5) for hyp_ok, lower in cases] == [
            VerdictState.INCONCLUSIVE, VerdictState.INCONCLUSIVE, VerdictState.HOLDS, VerdictState.FAILS]

    def test_singular_point_wins(self):
        # an unknown conclusion (check passes the singular point as its witness)
        # beats a certified hypothesis
        assert decide(True, None, 1.0) is VerdictState.INCONCLUSIVE

    def test_unproven_hypothesis_is_inconclusive(self):
        assert decide(False, 0.1, 1.0) is VerdictState.INCONCLUSIVE

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
        assert decide(True, None, 1.0) is VerdictState.INCONCLUSIVE

    def test_holds(self):
        assert decide(True, 0.4, 0.5) is VerdictState.HOLDS

    def test_fails_carries_witness(self, monkeypatch):
        assert decide(True, 0.6, 0.5) is VerdictState.FAILS
        # check reports the point of the violating conclusion value: with the
        # bound lowered, f' - 1 = 0.2 z of z + 0.1 z^2 fails at its circle maximum
        monkeypatch.setattr("diskcheck.checks._conclusion_bound", lambda theorem, params: 1e-3)
        rep = check(Theorem.THM2, SeriesA.from_tail(1, [0.1]), Params(alpha=0.5), GridSpec(m=256))
        assert rep.verdict.state is VerdictState.FAILS
        assert rep.verdict.witness is not None
        assert abs(0.2 * rep.verdict.witness) == pytest.approx(rep.concl.lower, rel=1e-12)


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
        assert rep.verdict.witness is None

    def test_thm1_large_coefficient_inconclusive(self):
        f = SeriesA.from_tail(1, [1.0])
        rep = check(Theorem.THM1, f, Params(alpha=0.0), SPEC)
        assert rep.verdict.state is VerdictState.INCONCLUSIVE
        assert rep.verdict.hypothesis_margin < 0
        assert rep.concl is not None and rep.verdict.witness is None

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
            b = check(Theorem.THM1, zfprime(f), Params(alpha=0.25), SPEC)
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


def test_conclusion_lower_is_the_grid_maximum(rng):
    # check takes the conclusion's largest value on the FFT
    # grid, which circle_argmax's Horner grid matches to rounding and its golden
    # refinement can only raise
    spec = GridSpec(m=256, refine_depth=3)
    grid = GridSpec(m=256, refine_depth=0)
    r = 0.999
    for _ in range(5):
        f = small_tail_series(rng, 1, 4)
        a = f.body.coeffs[None]
        p = polynomial(Functional.DERIV_DEFECT, f)
        top = np.abs(_circle_rows(p.coeffs[None], r, spec.m)).max()
        lem11 = check(Theorem.LEM11, f, Params(rho=0.5), spec)
        assert lem11.concl.lower == top
        assert top == pytest.approx(circle_argmax(p.eval, r, grid)[0], rel=1e-12)
        assert top <= circle_argmax(p.eval, r, spec)[0]

        # z f'/f - 1 as (f' - f/z) / (f/z), the numerator formed coefficientwise
        quotient = lambda z: eval_functional(Functional.STAR_QUOTIENT, f, 0j, z)  # noqa: E731
        values = _circle_rows((f.derivative().coeffs - a[0, 1:])[None], r, spec.m) / _circle_rows(a[:, 1:], r, spec.m)
        top = np.abs(values).max()
        thm1 = check(Theorem.THM1, f, Params(alpha=0.25), spec)
        assert thm1.concl.lower == top
        assert top == pytest.approx(circle_argmax(quotient, r, grid)[0], rel=1e-12)
        assert top < circle_argmax(quotient, r, spec)[0]


@pytest.mark.parametrize("theorem, alpha, closed_form", [
    (Theorem.THM1, 0.0, lambda t: t / (1 - t)),
    (Theorem.COR1, 0.0, lambda t: 2 * t / (1 - 2 * t)),
    (Theorem.THM3, 0.5, lambda t: 2 * t / (1 - 2 * t)),
])
def test_a_conclusion_near_its_center_keeps_every_digit(theorem, alpha, closed_form):
    # f = z + a z^2 with a = 1e-9: q is within 1e-8 of its center c, so q - c
    # formed from grid values of q would lose 8 digits; N/D with N formed
    # coefficientwise keeps them. |q - c| is largest at z = -r, a grid point,
    # where it is a r / (1 - a r) for z f'/f - 1 and 2 a r / (1 - 2 a r) for
    # z f''/f' and 1/f' - 1
    a, r = 1e-9, 0.999
    rep = check(theorem, SeriesA.from_tail(1, [a]), Params(alpha=alpha), SPEC, r)
    assert rep.concl.lower == pytest.approx(closed_form(a * r), rel=1e-14, abs=0)


def _params(theorem, alpha, beta):
    if theorem in (Theorem.LEM11, Theorem.LEM12, Theorem.LEM3):
        return Params(beta=beta, rho=1.0 - alpha)
    return Params(alpha=alpha, beta=beta)


@pytest.mark.parametrize("K, case", [pytest.param(64, "random", id="64"), pytest.param(512, "random", id="512"),
                                     pytest.param(2048, "random", id="2048"), (2048, "bound_inside"),
                                     (1, "failed_guard")])
def test_stacked_brackets_equal_one_row_brackets(rng, monkeypatch, K, case):
    # check scans its hypothesis and conclusion rows in one stacked pass; the
    # hypothesis bracket and a polynomial conclusion's bracket are exactly the
    # one-row _sup_rows + _sup_upper brackets. With bound_inside, each
    # polynomial conclusion's bound lies inside its first-grid bracket, where
    # _brackets would refine the row: check never does (its tail decays as
    # 1/k, so that the sec bound sets each upper and a finer grid would lower
    # it). The failed_guard tail [1.2] fails every quotient's guard, and the
    # hypothesis bracket stays the one-row bracket.
    spec, r = GridSpec(m=4096), 0.999
    k = np.arange(3, 3 + K)
    tail = 0.2 * (rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)) / k ** (1 if case == "bound_inside" else 3)
    f = SeriesA.from_tail(2, [1.2] if case == "failed_guard" else tail)
    for theorem in Theorem:
        hyp_fun, _, conclusion = _RULES[theorem]
        params = _params(theorem, 0.25, 0.5 + 0j)
        polynomials = [(hyp_fun, params.beta)] + ([(conclusion, 0j)] if isinstance(conclusion, Functional) else [])
        brackets = []
        for functional, beta in polynomials:
            c = _polynomial_coeffs(functional, f.body.coeffs[None], beta)
            lower, _ = _sup_rows(c, r, spec)
            brackets.append((lower[0], _sup_upper(c, r, lower, spec)[0]))
        if case == "bound_inside" and len(brackets) > 1:
            inside = sum(brackets[1]) / 2
            assert _brackets(c, r, lower, inside, spec)[1][0] < brackets[1][1], theorem
            monkeypatch.setattr("diskcheck.checks._conclusion_bound", lambda theorem, params: inside)
        rep = check(theorem, f, params, spec, r)
        monkeypatch.undo()
        if case == "failed_guard" and len(brackets) == 1:
            assert rep.concl is None and rep.verdict.state is VerdictState.INCONCLUSIVE, theorem
        for bracket, want in zip([rep.hyp, rep.concl], brackets):
            assert bracket.kind is BracketKind.CERTIFIED
            assert (bracket.lower, bracket.upper) == want, theorem


def test_one_circle_pass_per_call(rng, monkeypatch):
    # every guard of f is certified by its coefficient sum, so check and
    # membership make one _circle_rows call each, over all of their rows:
    # the hypothesis, then N, then D unless D = 1
    real_rows = diskcheck.bounds._circle_rows
    calls = []

    def counting_rows(c, r, m):
        calls.append(len(c))
        return real_rows(c, r, m)

    monkeypatch.setattr("diskcheck.bounds._circle_rows", counting_rows)
    monkeypatch.setattr("diskcheck.checks._circle_rows", counting_rows)
    f = small_tail_series(rng, 2, 6)
    rows = {Theorem.THM1: 3, Theorem.COR1: 3, Theorem.THM3: 3}
    for theorem in Theorem:
        calls.clear()
        check(theorem, f, _params(theorem, 0.25, 0j), SPEC)
        assert calls == [rows.get(theorem, 2)], theorem
    for which, want in ((FunctionClass.STARLIKE, 2), (FunctionClass.BOUNDED_TURNING, 1), (FunctionClass.CONVEX, 2)):
        calls.clear()
        membership(which, f, 0.25, SPEC)
        assert calls == [want], which


def _scaled_tail(theorem, params, n, K, scale, m=4096, r=0.999, seed=21):
    """z + a seeded tail of K terms with 1/k^3 decay, rescaled so that its
    hypothesis grid maximum at m points on |z| = r is scale times the
    threshold; and that hypothesis row with its first-grid bracket."""
    rng = np.random.default_rng(seed)
    k = np.arange(n + 1, n + 1 + K)
    tail = (rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)) / k**3
    hyp = _polynomial_coeffs(_RULES[theorem][0], SeriesA.from_tail(n, tail).body.coeffs[None], complex(params.beta))
    tail *= scale * threshold(theorem, params, n) / _sup_rows(hyp, r, GridSpec(m=m))[0][0]
    f = SeriesA.from_tail(n, tail)
    hyp = _polynomial_coeffs(_RULES[theorem][0], f.body.coeffs[None], complex(params.beta))
    lower = _sup_rows(hyp, r, GridSpec(m=m))[0]
    return f, lower[0], _sup_upper(hyp, r, lower, GridSpec(m=m))[0]


@pytest.mark.parametrize("theorem", [Theorem.LEM11, Theorem.THM2, Theorem.THM1])
def test_high_degree_hypothesis_near_the_threshold_is_refined(theorem):
    # K = 2048 at m = 4096: the first grid's sec factor, 1.41, leaves a
    # hypothesis sampled at 0.97 times the threshold undecided; refinement on
    # the 16384-point grid certifies it, from a lower no smaller than the
    # first grid's
    params, spec = _params(theorem, 0.25, 0.5 + 0j), GridSpec(m=4096)
    f, lower, upper = _scaled_tail(theorem, params, 2, 2048, 0.97)
    thr = threshold(theorem, params, 2)
    assert lower < thr <= upper
    rep = check(theorem, f, params, spec)
    assert rep.verdict.state is VerdictState.HOLDS
    assert lower <= rep.hyp.lower <= rep.hyp.upper < thr
    assert rep.hyp.upper == rep.hyp.lower / math.cos(math.pi * (f.body.coeffs.size - 2) / (2 * 16384))


def test_refinement_makes_one_more_circle_pass_only_when_it_can_decide(monkeypatch):
    # the stacked pass decides a hypothesis sampled at 0.5 or 1.05 times the
    # threshold (at 1.05 no grid can certify it); at 0.97 one more
    # _circle_rows call evaluates the 3 new sub-grids of the 16384-point
    # grid; at 0.99999 the grid it needs is past max(m, 8 (K + 1)) and the
    # check stays inconclusive without one
    real_rows = diskcheck.bounds._circle_rows
    calls = []

    def counting_rows(c, r, m):
        calls.append((len(c), m))
        return real_rows(c, r, m)

    monkeypatch.setattr("diskcheck.bounds._circle_rows", counting_rows)
    monkeypatch.setattr("diskcheck.checks._circle_rows", counting_rows)
    params, spec = Params(alpha=0.25, beta=0.5), GridSpec(m=4096)
    for scale, state, refined in ((0.5, VerdictState.HOLDS, []), (0.97, VerdictState.HOLDS, [(3, 4096)]),
                                  (1.05, VerdictState.INCONCLUSIVE, []), (0.99999, VerdictState.INCONCLUSIVE, [])):
        f, lower, _ = _scaled_tail(Theorem.THM2, params, 2, 2048, scale)
        calls.clear()
        rep = check(Theorem.THM2, f, params, spec)
        assert calls == [(2, 4096)] + refined, scale
        assert rep.verdict.state is state, scale
        assert rep.hyp.lower >= lower, scale


def test_a_sample_at_the_threshold_is_never_refined(monkeypatch):
    # no grid can certify sup < thr when a sample already equals thr, so
    # neither check nor _below refines it: no refinement grid is built. A
    # zero row at the bound 0 is such a sample too, and has no degree to
    # refine by
    params, spec = Params(alpha=0.25, beta=0.5), GridSpec(m=4096)
    f, lower, upper = _scaled_tail(Theorem.THM2, params, 2, 2048, 1.0)
    assert lower < upper
    monkeypatch.setattr("diskcheck.bounds._sub_grids", lambda *args: pytest.fail("refined a sample at the threshold"))
    zero = _brackets(np.zeros((1, 3), dtype=complex), 0.999, np.zeros(1), 0.0, spec)
    assert (zero[0][0], zero[1][0]) == (0.0, 0.0)
    monkeypatch.setattr("diskcheck.checks.threshold", lambda theorem, params, n: lower)
    rep = check(Theorem.THM2, f, params, spec)
    assert (rep.hyp.lower, rep.hyp.upper, rep.verdict.state) == (lower, upper, VerdictState.INCONCLUSIVE)
    hyp = _polynomial_coeffs(Functional.TURN_TEST, f.body.coeffs[None], 0.5 + 0j)
    assert not diskcheck.bounds._below(hyp, 0.999, lower, spec)[0]


@pytest.mark.parametrize("K", [64, 2048])
def test_reports_decided_on_the_first_grid_never_refine(monkeypatch, K):
    # a hypothesis sampled at half the threshold is decided by the first
    # grid for every theorem, so its report is the unrefined one, bitwise
    monkeypatch.setattr("diskcheck.bounds._sub_grids", lambda *args: pytest.fail("refined a decided row"))
    for theorem in Theorem:
        params = _params(theorem, 0.25, 0.5 + 0j)
        f, lower, upper = _scaled_tail(theorem, params, 2, K, 0.5)
        rep = check(theorem, f, params, GridSpec(m=4096))
        assert (rep.hyp.lower, rep.hyp.upper) == (lower, upper), theorem
        assert rep.verdict.state is VerdictState.HOLDS, theorem


@pytest.mark.parametrize("offset", [0.0])
def test_denominator_floor_gives_the_singular_point(offset):
    # f/z = 1 + a z with |a| r = 1 - 5e-13: the guard sup |f/z - 1| < 1 holds,
    # and f/z falls below the floor 1e-12 at one angle only: the grid point pi
    # (offset in grid steps)
    spec = GridSpec(m=64, refine_depth=2)
    r = 0.999
    pole = math.pi + offset * 2.0 * math.pi / spec.m
    f = SeriesA.from_tail(1, [(1.0 - 5e-13) / r * cmath.exp(1j * (math.pi - pole))])
    rep = check(Theorem.THM1, f, Params(alpha=0.25), spec, r)
    assert rep.verdict.state is VerdictState.INCONCLUSIVE
    assert rep.concl is None and rep.verdict.conclusion_margin is None
    assert rep.verdict.witness == pytest.approx(r * cmath.exp(1j * pole), abs=1e-15)
    star = membership(FunctionClass.STARLIKE, f, 0.25, spec, r)
    assert star.state is VerdictState.INCONCLUSIVE and star.witness == rep.verdict.witness


def test_refine_depth_only_moves_circle_max(rng):
    # check, membership, falsify and jack_probe ignore refine_depth; circle_argmax refines
    shallow, deep = GridSpec(m=64, refine_depth=0), GridSpec(m=64, refine_depth=5)
    for _ in range(3):
        f = small_tail_series(rng, 2, 4)
        for theorem in Theorem:
            params = Params(alpha=0.25, rho=0.5 if theorem in (Theorem.LEM11, Theorem.LEM12, Theorem.LEM3) else None)
            assert check(theorem, f, params, shallow) == check(theorem, f, params, deep)
        for which in FunctionClass:
            assert membership(which, f, 0.25, shallow) == membership(which, f, 0.25, deep)
    cfg, params = FalsifyConfig(trials=40, seed=9), Params(alpha=0.25)
    for theorem in (Theorem.THM1, Theorem.THM2, Theorem.COR1):
        assert falsify(theorem, 1, params, cfg, shallow) == falsify(theorem, 1, params, cfg, deep)
    p = PolySeries(np.array([0, 1, 0.5j, 0.25], dtype=complex))
    assert circle_argmax(p.eval, 0.9, deep)[0] > circle_argmax(p.eval, 0.9, shallow)[0]
    assert jack_probe(p, 1, 0.9, deep) == jack_probe(p, 1, 0.9, shallow)


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

    def test_tie_at_the_order_fails(self):
        # min Re f' = 1 - 0.25 r sits on the grid point -r; at alpha equal to
        # it, min Re f' > alpha is false: a Fails with margin exactly 0
        f, spec = SeriesA.from_tail(1, [0.125]), GridSpec(m=4096)
        alpha = membership(FunctionClass.BOUNDED_TURNING, f, 0.0, spec).conclusion_margin
        assert alpha == pytest.approx(0.75025, rel=1e-15)
        tie = membership(FunctionClass.BOUNDED_TURNING, f, alpha, spec)
        assert tie.state is VerdictState.FAILS
        assert tie.conclusion_margin == 0.0
        assert tie.witness == pytest.approx(-0.999, abs=1e-12)

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


ORACLE_ALPHAS = (0.0, 0.25, 0.5, 0.75)
ORACLE_BETAS = (0j, 0.5 + 0j, 2j)
ORACLE_REAL_BETAS = (0j, 0.5 + 0j)

# Relative tolerances of the symmetry oracles, from their largest moves on
# the oracle functions: certified brackets moved by at most 3.5 ulps, and
# grid-only (rational) conclusions by up to 500 ulps under rotation, where a
# derivative near 1e-3 in the denominator amplifies the rounding of the
# rotated coefficients.
CERTIFIED_REL = 8 * np.finfo(float).eps
GRID_ONLY_REL = 1e-12
#: Relative tolerance of the scaling oracle, whose scaled coefficients round
#: apart from the scaled radius powers: its largest move on the oracle
#: functions was 2.9 ulps.
SCALING_REL = CERTIFIED_REL


def _oracle_functions():
    """The loadable corpus files, then 30 seeded tails of 1 to 40 terms with
    1/k^3 decay and scales from 0.05 to 2, so that their hypotheses fall on
    both sides of the thresholds."""
    functions = []
    for path in sorted((pathlib.Path(__file__).parent / "corpus").glob("*.json")):
        try:
            functions.append(load_function(str(path)))
        except InputError:
            pass
    rng = np.random.default_rng(18)
    for i in range(30):
        n, size = 1 + i % 3, int(rng.integers(1, 41))
        k = np.arange(n + 1, n + 1 + size)
        tail = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
        functions.append(SeriesA.from_tail(n, 10 ** rng.uniform(math.log10(0.05), math.log10(2)) * tail / k**3))
    return functions


def _oracle_pair(theorem, f, g, alpha, beta):
    """check() reports of f and g at alpha and beta, or None when the
    parameters are not admissible for the theorem."""
    rho_form = theorem in (Theorem.LEM11, Theorem.LEM12, Theorem.LEM3)
    params = Params(beta=beta, rho=1.0 - alpha) if rho_form else Params(alpha=alpha, beta=beta)
    try:
        return check(theorem, f, params), check(theorem, g, params)
    except ParameterError:
        return None


def _assert_same_up_to_rounding(rep, other, where):
    """Equal states, thresholds, radii and kinds; bracket ends equal within
    CERTIFIED_REL, or GRID_ONLY_REL for a grid-only bracket."""
    assert rep.verdict.state is other.verdict.state, where
    assert (rep.hyp_threshold, rep.concl_bound) == (other.hyp_threshold, other.concl_bound), where
    assert (rep.concl is None) == (other.concl is None), where
    for b, c in [(rep.hyp, other.hyp)] + ([(rep.concl, other.concl)] if rep.concl else []):
        assert (b.r, b.kind) == (c.r, c.kind), where
        rel = CERTIFIED_REL if b.kind is BracketKind.CERTIFIED else GRID_ONLY_REL
        assert c.lower == pytest.approx(b.lower, rel=rel, abs=0), where
        assert c.upper == pytest.approx(b.upper, rel=rel, abs=0), where


class TestOracles:
    # relations between checks that hold by the theorems' encoding, on the
    # corpus and on random tails; each compares whole reports, so any drift
    # of a kernel's bits between two calls (cached radius powers, stacked
    # rows) shows
    FUNCTIONS = _oracle_functions()

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_lem3_at_rho_one_minus_alpha_is_thm2(self, alpha):
        # both bound |turn test| < (1 - alpha) |n - beta| and conclude
        # |f' - 1| < 1 - alpha: equal states, brackets and verdicts
        def decided(rep):
            return rep.hyp, rep.hyp_threshold, rep.concl, rep.concl_bound, rep.verdict

        states = set()
        for f in self.FUNCTIONS:
            for beta in ORACLE_BETAS:
                thm2 = check(Theorem.THM2, f, Params(alpha=alpha, beta=beta))
                lem3 = check(Theorem.LEM3, f, Params(beta=beta, rho=1.0 - alpha))
                assert decided(lem3) == decided(thm2), (f.body.coeffs, beta)
                states.add(thm2.verdict.state)
        assert {VerdictState.HOLDS, VerdictState.INCONCLUSIVE} <= states

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_lem11_lem12_and_thm1_share_their_hypothesis_bracket(self, alpha):
        # all three bound the star test, z f'' - beta (f' - f/z)
        for f in self.FUNCTIONS:
            for beta in ORACLE_BETAS:
                thm1 = check(Theorem.THM1, f, Params(alpha=alpha, beta=beta)).hyp
                for theorem in (Theorem.LEM11, Theorem.LEM12):
                    assert check(theorem, f, Params(beta=beta, rho=1.0 - alpha)).hyp == thm1, (f.body.coeffs, beta)

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_conjugation_for_real_beta(self, alpha):
        # conj f(conj z) has the coefficients conj a_k; for real beta each of
        # its functionals is the conjugate of f's at conj z, and conjugation
        # maps every circle grid onto itself
        states = set()
        for f in self.FUNCTIONS:
            g = SeriesA.from_tail(f.n, np.conj(f.tail))
            for beta in ORACLE_REAL_BETAS:
                for theorem in Theorem:
                    pair = _oracle_pair(theorem, f, g, alpha, beta)
                    if pair is not None:
                        _assert_same_up_to_rounding(*pair, (theorem, f.body.coeffs, beta))
                        states.add(pair[0].verdict.state)
        assert {VerdictState.HOLDS, VerdictState.INCONCLUSIVE} <= states

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
    def test_rotation_by_whole_grid_steps(self, alpha):
        # e^{-i theta} f(e^{i theta} z) multiplies a_k by e^{i (k - 1) theta},
        # and each of its functionals at z is f's at e^{i theta} z; at
        # theta = 2 pi j / m that shifts every grid of m points, or of a
        # multiple of m, by whole steps
        m, j = GridSpec().m, 3
        states = set()
        for f in self.FUNCTIONS:
            k = np.arange(f.n + 1, f.n + 1 + f.tail.size)
            g = SeriesA.from_tail(f.n, f.tail * np.exp(2j * np.pi * ((k - 1) * j % m) / m))
            for beta in ORACLE_BETAS:
                for theorem in Theorem:
                    pair = _oracle_pair(theorem, f, g, alpha, beta)
                    if pair is not None:
                        _assert_same_up_to_rounding(*pair, (theorem, f.body.coeffs, beta))
                        states.add(pair[0].verdict.state)
        assert {VerdictState.HOLDS, VerdictState.INCONCLUSIVE} <= states

    @pytest.mark.parametrize("alpha", ORACLE_ALPHAS[1:])
    def test_thm2_holding_implies_thm3_and_membership(self, alpha):
        # |f' - 1| < 1 - alpha gives Re f' > alpha, which is thm3's
        # conclusion |1/f' - 1/(2 alpha)| < 1/(2 alpha) and class c of order
        # alpha; all three read the same grid points, so where thm2 holds
        # thm3's conclusion grid value (when its guard is certified) is below
        # its bound and membership c is not fails
        compared = 0
        for f in self.FUNCTIONS:
            for beta in ORACLE_BETAS:
                params = Params(alpha=alpha, beta=beta)
                if check(Theorem.THM2, f, params).verdict.state is not VerdictState.HOLDS:
                    continue
                thm3 = check(Theorem.THM3, f, params)
                if thm3.concl is not None:
                    assert thm3.concl.lower < thm3.concl_bound, (f.body.coeffs, beta)
                    compared += 1
                assert membership(FunctionClass.BOUNDED_TURNING, f, alpha).state is not VerdictState.FAILS
        assert compared >= 20

    @pytest.mark.parametrize("s", [0.3, 0.7, 0.95])
    def test_scaling_moves_the_hypothesis_radius(self, s):
        # f(s z)/s has the coefficients a_k s^(k-1), so each hypothesis
        # polynomial P of it is P_f(s z), and its bracket at r is f's at s r:
        # the coefficient sum, the Lipschitz pad and the sec bound are all
        # unchanged by the substitution. The powers s^k r^k and (s r)^k
        # round apart, so the ends agree within SCALING_REL, not bitwise.
        r, states = 0.999, set()
        for f in self.FUNCTIONS:
            k = np.arange(f.n + 1, f.n + 1 + f.tail.size)
            g = SeriesA.from_tail(f.n, f.tail * s ** (k - 1.0))
            for beta in ORACLE_BETAS:
                for theorem in (Theorem.LEM11, Theorem.COR1, Theorem.THM2):  # the three hypothesis functionals
                    params = Params(alpha=0.25, beta=beta, rho=None if theorem is not Theorem.LEM11 else 0.75)
                    rep, want = check(theorem, g, params, r_max=r), check(theorem, f, params, r_max=s * r)
                    assert rep.hyp.lower == pytest.approx(want.hyp.lower, rel=SCALING_REL, abs=0), (f.body.coeffs, beta)
                    assert rep.hyp.upper == pytest.approx(want.hyp.upper, rel=SCALING_REL, abs=0), (f.body.coeffs, beta)
                    states.add(rep.hyp.upper < rep.hyp_threshold)
        assert states == {True, False}


class TestDuality:
    # convexity of f and starlikeness of z f' are the same quotient reached by
    # two algebraic routes, so the two membership states must agree
    def test_agreement_on_small_tails(self, rng):
        for _ in range(10):
            f = small_tail_series(rng, int(rng.integers(1, 4)), 4)
            alpha = float(rng.uniform(0, 0.9))
            convex = membership(FunctionClass.CONVEX, f, alpha, SPEC)
            assert membership(FunctionClass.STARLIKE, zfprime(f), alpha, SPEC).state is convex.state

    def test_agreement_when_both_sides_fail(self):
        f = SeriesA.from_tail(1, [0.5])
        convex = membership(FunctionClass.CONVEX, f, 0.6, SPEC)
        star = membership(FunctionClass.STARLIKE, zfprime(f), 0.6, SPEC)
        assert convex.state is star.state
        assert convex.conclusion_margin < 0
        assert star.conclusion_margin < 0


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

    def test_high_degree_peak_is_polished(self, rng):
        # K = 2048 with a 1/k^3 tail: the Newton polish leaves the ratio real
        # to roundoff at a point no lower than the best FFT grid sample
        K = 2048
        spec = GridSpec(m=4096)
        for r in (0.9, 0.95, 0.999):
            tail = (rng.uniform(-1, 1, K) + 1j * rng.uniform(-1, 1, K)) / np.arange(2, K + 2) ** 3
            w = PolySeries(np.concatenate([[0, 1], tail]))
            rep = jack_probe(w, 1, r, spec)
            assert abs(rep.ratio.imag) <= 1e-12 * (1 + abs(rep.ratio))
            assert abs(w.eval(rep.z0)) >= np.abs(_circle_rows(w.coeffs[None], r, spec.m)).max()

    def test_near_tie_prefers_the_higher_off_grid_peak(self):
        # two Dirichlet-kernel bumps: one peaks on the grid point theta = 0,
        # a 1% higher one between grid points near pi, so the best grid
        # sample sits in the lower peak's basin; a 2^16-point grid is the oracle
        m, r, N = 64, 0.9, 12
        k = np.arange(N + 1)
        peak = math.pi + 0.45 * 2 * math.pi / m
        w = PolySeries(np.concatenate([[0], (1 + 1.01 * np.exp(-1j * k * peak)) / (N + 1)]))
        grid = np.abs(_circle_rows(w.coeffs[None], r, m)[0])
        dense = np.abs(_circle_rows(w.coeffs[None], r, 2**16)[0])
        assert grid.argmax() == 0
        assert abs(2 * math.pi * dense.argmax() / 2**16 - peak) < 2 * math.pi / m
        rep = jack_probe(w, 1, r, GridSpec(m=m))
        assert abs(w.eval(rep.z0)) >= dense.max()
        assert abs(w.eval(rep.z0)) >= grid.max()
        assert abs(cmath.phase(rep.z0) % (2 * math.pi) - 2 * math.pi * dense.argmax() / 2**16) < 2 * math.pi / 2**16
        assert abs(rep.ratio.imag) <= 1e-12 * (1 + abs(rep.ratio))

    def test_one_grid_pass_and_no_scalar_evaluation(self, monkeypatch):
        # one _circle_rows call on w's row, and no sub-grids; the polish
        # evaluates by block power sums, never by Horner or golden section
        real_rows = diskcheck.bounds._circle_rows
        calls = []

        def counting_rows(c, r, m):
            calls.append(len(c))
            return real_rows(c, r, m)

        def forbidden(*args, **kwargs):
            raise AssertionError("jack_probe evaluated outside its grid and block sums")

        monkeypatch.setattr("diskcheck.bounds._circle_rows", counting_rows)
        monkeypatch.setattr("diskcheck.checks._circle_rows", counting_rows)
        monkeypatch.setattr("diskcheck.series._horner_rows", forbidden)
        monkeypatch.setattr("diskcheck.bounds._golden_argmax", forbidden)
        monkeypatch.setattr("diskcheck.bounds._sub_grids", forbidden)
        rep = jack_probe(PolySeries(np.array([0, 1, 0.5j, 0.25], dtype=complex)), 1, 0.9, SPEC)
        assert calls == [1]
        assert abs(rep.ratio.imag) <= 1e-12 * (1 + abs(rep.ratio))

    def test_polish_stays_within_one_grid_step(self):
        # |w| of z + z^2/2 peaks at theta = 0; a start two grid steps away
        # climbs towards it but stops inside its own bracket, start +- dt
        c = np.array([0, 1, 0.5], dtype=complex)
        rows = np.array([c, [1, 1, 0], [1, 0, 0]], dtype=complex)
        dt = 2 * math.pi / 64
        (top, z_top, *_), (side, z_side, *_) = _polish_basins(rows, 0.9, [0.0, 2 * dt], dt)
        assert z_top == 0.9 and top == pytest.approx(1.305, rel=1e-15)
        assert dt <= cmath.phase(z_side) <= 2 * dt
        assert side < top

    def test_aliased_draw_finds_the_highest_peak(self):
        # a flat-spectrum draw of degree 30 whose highest peak the 16-point
        # grid misses (draw 138 of seed 0): the probe scans 64 points, more
        # than 2 (K + 1), and reports a point above every 16-point sample
        # and at the 2^16-point grid's maximum
        rng = np.random.default_rng(0)
        for _ in range(139):
            c = np.concatenate([[0], rng.uniform(-1, 1, 30) + 1j * rng.uniform(-1, 1, 30)])
        w = PolySeries(c)
        rep = jack_probe(w, 1, 0.9, GridSpec(m=16))
        grid = np.abs(_circle_rows(c[None], 0.9, 16)).max()
        dense = np.abs(_circle_rows(c[None], 0.9, 2**16)).max()
        assert abs(w.eval(rep.z0)) >= grid
        assert abs(w.eval(rep.z0)) == pytest.approx(dense, rel=1e-6)
        assert abs(rep.ratio.imag) <= 1e-12 * (1 + abs(rep.ratio))

    def test_block_evaluation_matches_horner(self, rng):
        # above _BLOCKS_FROM the polish evaluates w, w', w'' by blocks of
        # powers; at each basin's end they agree with scalar Horner
        c = np.concatenate([[0, 1], (rng.uniform(-1, 1, 3000) + 1j * rng.uniform(-1, 1, 3000)) / 3000])
        w = PolySeries(c)
        rows = np.stack([c, np.append(w.derivative().coeffs, 0), np.append(w.derivative().derivative().coeffs, [0, 0])])
        dt = 2 * math.pi / 8192
        for _, z, *values in _polish_basins(rows, 0.95, [0.3, 2.0, 4.5], dt):
            for value, p in zip(values, (w, w.derivative(), w.derivative().derivative())):
                assert value == pytest.approx(p.eval(z), rel=1e-12, abs=1e-15)

    def test_coarse_grid_peaks_are_polished(self, rng):
        # flat-spectrum degree-48 polynomials on a 64-point grid: a best grid
        # sample may sit where |w| is not concave, or a Newton step overshoot
        # its bracket, and the polish then bisects instead of stopping
        m = 64
        for _ in range(300):
            w = PolySeries(np.concatenate([[0], rng.uniform(-1, 1, 48) + 1j * rng.uniform(-1, 1, 48)]))
            rep = jack_probe(w, 1, 0.9, GridSpec(m=m))
            assert abs(rep.ratio.imag) <= 1e-12 * (1 + abs(rep.ratio))
            assert abs(w.eval(rep.z0)) >= np.abs(_circle_rows(w.coeffs[None], 0.9, m)).max()

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

    def test_derivative_overflow_is_named(self):
        # warnings raise here, so a numpy RuntimeWarning would escape instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^float overflow in the derivative of w$"):
                jack_probe(PolySeries([0, 1e308, 1e308]), 1, 0.9)

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
