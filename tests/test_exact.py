"""check's certified hypotheses and holds verdicts, and membership's holds
verdicts, against the exact oracle of exact.py, on every loadable corpus
file: for all seven results and both (alpha, beta) sets of
tools/report_digest.py (rho = 1 - alpha), and for the three classes at the
orders and grids of its membership runs."""

import cmath
import json
import math
import pathlib
from fractions import Fraction

import pytest

import exact
from diskcheck import FunctionClass, GridSpec, InputError, Params, SeriesA, Theorem, VerdictState, check, membership
from diskcheck.cli import main
from diskcheck.funcspec import load_function

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"
RHO_THEOREMS = (Theorem.LEM11, Theorem.LEM12, Theorem.LEM3)
#: f = z + c z^4 with min Re f' = 1/2 - 1e-7 on |z| = 0.999, its minima half-way
#: between the points of the default grid, where Re f' - 1/2 is at least 4.7e-8
GRID_GAP = {"n": 3, "coeffs": [[0.12537544442813264, -0.00028848579366455286]]}


@pytest.fixture(scope="module")
def corpus_functions():
    """(file name, f, exact coefficients of f) of every loadable corpus file."""
    out = []
    for path in sorted(CORPUS.glob("*.json")):
        try:
            f = load_function(str(path))
        except InputError:
            continue
        out.append((path.name, f, exact.series(f.body.coeffs)))
    return out


@pytest.fixture(scope="module")
def corpus_checks(corpus_functions):
    """(file name, exact coefficients of f, params, CheckReport) of every run."""
    runs = []
    for name, f, a in corpus_functions:
        for theorem in Theorem:
            for alpha, beta in ((0.5, 0j), (0.25, 0.5 + 0j)):
                params = Params(alpha=alpha, beta=beta, rho=1.0 - alpha if theorem in RHO_THEOREMS else None)
                runs.append((name, a, params, check(theorem, f, params)))
    return runs


def test_the_oracle_decides_a_tie_and_a_gap():
    # |z + z^2/2| on |z| = 0.75 peaks at z = 0.75 with 0.75 + 0.28125: a
    # bound equal to the sup is not above it, one ulp more is
    p = exact.series([0, 1, 0.5])
    assert not exact.sup_below(p, 0.75, 1.03125)
    assert exact.sup_below(p, 0.75, 1.03125 + 2**-52)
    # |(f' - f/z) / (f/z)| for f = z + z^2/4 at r = 1/2 is (1/8) / (1 - 1/8) at z = -1/2
    a = exact.series([0, 1, 0.25])
    num, den, _ = exact.conclusion("thm1", a, 0.0, None)
    assert not exact.ratio_below(num, den, 0.5, Fraction(1, 7))
    assert exact.ratio_below(num, den, 0.5, Fraction(1, 7) + Fraction(1, 2**60))


def test_certified_hypotheses_are_exactly_true(corpus_checks):
    decided = 0
    for name, a, params, rep in corpus_checks:
        if rep.hyp.upper < rep.hyp_threshold:
            hyp = exact.hypothesis(rep.theorem.value, a, params.beta)
            assert exact.sup_below(hyp, rep.r_max, rep.hyp_threshold), (name, rep.theorem, params)
            decided += 1
    assert decided >= 100


def test_holds_conclusions_are_exactly_true(corpus_checks):
    # b^2 |D|^2 - |N|^2 > 0 on |z| = r_max, N and D built from the series
    holds = 0
    for name, a, params, rep in corpus_checks:
        if rep.verdict.state is VerdictState.HOLDS:
            num, den, bound = exact.conclusion(rep.theorem.value, a, params.alpha, params.rho)
            assert exact.ratio_below(num, den, rep.r_max, bound), (name, rep.theorem, params)
            holds += 1
    assert holds >= 100


def test_membership_holds_are_exactly_true(corpus_functions):
    # Re(N conj(D)) - alpha |D|^2 > 0 on |z| = r_max, N/D the class quantity
    # built from the series; every holds has the guard, so D has no zero
    runs = [(alpha, GridSpec(), 0.999) for alpha in (0.0, 0.25, 0.5)]
    runs += [(0.5, GridSpec(m=64), r) for r in (0.6, 0.9, 0.999)]
    holds = 0
    for name, f, a in corpus_functions:
        for cls in FunctionClass:
            num, den = exact.class_quantity(cls.value, a)
            for alpha, spec, r in runs:
                if membership(cls, f, alpha, spec, r).state is VerdictState.HOLDS:
                    assert exact.real_part_above(num, den, r, alpha), (name, cls, alpha, spec.m, r)
                    holds += 1
    assert holds >= 150


def test_a_grid_gap_below_the_order_is_not_a_holds(tmp_path):
    # every grid sample of Re f' is above 1/2, the true minimum is not: the
    # sec correction (sec(3 pi/4096) - 1) / 2 = 1.3e-6 exceeds the 4.7e-8
    # grid margin, and the refined grid cannot close that gap either
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(GRID_GAP))
    f = load_function(str(path))
    assert not exact.real_part_above(*exact.class_quantity("c", exact.series(f.body.coeffs)), 0.999, 0.5)
    out = membership(FunctionClass.BOUNDED_TURNING, f, 0.5)
    assert out.state is VerdictState.INCONCLUSIVE
    assert 0.0 < out.conclusion_margin < 1e-7 and out.witness is None
    assert main(["membership", "--class", "c", "--alpha", "0.5", "--input", str(path)]) == 2


def test_an_aliased_grid_is_not_a_holds():
    # f' = 1 + 13 c z^12, 13 |c| r^12 = 0.6: on 16 points z^12 takes the
    # phases of i^j, which miss the minimum 0.4 of Re f', so every sample is
    # 1 - 0.6 / sqrt(2) > 1/2. With 2 d = 24 >= m no sec bound holds, and the
    # pad is 1.4: the test goes to a finer grid, where it must not certify
    f = SeriesA.from_tail(12, [0.6 / (13 * 0.999**12) * cmath.exp(1j * math.pi / 4)])
    assert not exact.real_part_above(*exact.class_quantity("c", exact.series(f.body.coeffs)), 0.999, 0.5)
    out = membership(FunctionClass.BOUNDED_TURNING, f, 0.5, GridSpec(m=16))
    assert out.state is VerdictState.INCONCLUSIVE
    assert out.conclusion_margin == pytest.approx(0.5 - 0.6 / math.sqrt(2), rel=1e-12)


def test_the_lipschitz_pad_alone_certifies_a_holds():
    # f' = 1 + 0.47 z/0.999 + 34e-6 z^33 at m = 64: 2 d = 66 >= m, and at the
    # largest refined grid, 256, the sec correction is about 0.041 against a
    # margin of 0.03, while the pad, about 0.471 pi / 64 = 0.023, decides
    f = SeriesA.from_tail(1, [0.47 / (2 * 0.999)] + [0.0] * 31 + [1e-6])
    assert exact.real_part_above(*exact.class_quantity("c", exact.series(f.body.coeffs)), 0.999, 0.5)
    out = membership(FunctionClass.BOUNDED_TURNING, f, 0.5, GridSpec(m=64))
    assert out.state is VerdictState.HOLDS
    assert out.conclusion_margin == pytest.approx(0.03, abs=1e-4)
