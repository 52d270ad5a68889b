"""check's certified hypotheses and holds verdicts against the exact oracle
of exact.py, on every loadable corpus file, for all seven results and both
(alpha, beta) sets of tools/report_digest.py (rho = 1 - alpha)."""

import pathlib
from fractions import Fraction

import pytest

import exact
from diskcheck import InputError, Params, Theorem, VerdictState, check
from diskcheck.funcspec import load_function

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"
RHO_THEOREMS = (Theorem.LEM11, Theorem.LEM12, Theorem.LEM3)


@pytest.fixture(scope="module")
def corpus_checks():
    """(file name, exact coefficients of f, params, CheckReport) of every run."""
    runs = []
    for path in sorted(CORPUS.glob("*.json")):
        try:
            f = load_function(str(path))
        except InputError:
            continue
        a = exact.series(f.body.coeffs)
        for theorem in Theorem:
            for alpha, beta in ((0.5, 0j), (0.25, 0.5 + 0j)):
                params = Params(alpha=alpha, beta=beta, rho=1.0 - alpha if theorem in RHO_THEOREMS else None)
                runs.append((path.name, a, params, check(theorem, f, params)))
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
