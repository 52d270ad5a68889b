"""End-to-end acceptance run. Each criterion prints one PASS/FAIL line;
run with `pytest -s tests/test_acceptance.py` to see them.
"""

import math
import time

import numpy as np

from diskcheck import (
    FalsifyConfig,
    Functional,
    FunctionClass,
    GridSpec,
    Params,
    PolySeries,
    SeriesA,
    Theorem,
    Witness,
    check,
    circle_argmax,
    eval_functional,
    falsify,
    jack_probe,
    make_witness,
    membership,
    poly_sup,
    radius_of_validity,
    threshold,
    VerdictState,
)

from conftest import polynomial, small_tail_series, zfprime

R = 0.999
NS = (1, 2, 3)
ALPHAS = (0.0, 0.25, 0.5, 0.75)
BETAS = (0j, 0.5 + 0j, -1 + 0j, 2j)


def _report(num: int, failures: list, elapsed: float | None = None) -> None:
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    if failures:
        print(f"ACCEPTANCE {num}: FAIL ({len(failures)} problems; first: {failures[0]}){stamp}")
    else:
        print(f"ACCEPTANCE {num}: PASS{stamp}")
    assert not failures, failures[:5]


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def test_acceptance_1_example1_sharpness():
    """Certified sup of the thm1 hypothesis and grid max of the starlike
    quotient match closed forms to 1e-4 relative, below their bounds."""
    t0 = time.perf_counter()
    failures = []
    spec = GridSpec(m=4096, refine_depth=3)
    for n in NS:
        for alpha in ALPHAS:
            c = (1.0 - alpha) / (n + 1 - alpha)
            f = make_witness(Witness.EX1, n, alpha)
            quotient_want = n * c * R**n / (1.0 - c * R**n)
            got_q = circle_argmax(
                lambda zs: eval_functional(Functional.STAR_QUOTIENT, f, 0j, zs), R, spec
            )[0]
            if _rel_err(got_q, quotient_want) > 1e-4:
                failures.append(f"quotient mismatch n={n} alpha={alpha}: {got_q} vs {quotient_want}")
            if not got_q < 1.0 - alpha:
                failures.append(f"quotient not below order bound n={n} alpha={alpha}")
            for beta in BETAS:
                want = n * c * R**n * abs(n + 1 - beta)
                hyp = poly_sup(polynomial(Functional.STAR_TEST, f, beta), R, spec)
                if _rel_err(hyp.upper, want) > 1e-4 or _rel_err(hyp.lower, want) > 1e-4:
                    failures.append(f"hyp mismatch n={n} alpha={alpha} beta={beta}")
                thr = threshold(Theorem.THM1, Params(alpha=alpha, beta=beta), n)
                if not hyp.upper < thr:
                    failures.append(f"hyp not below threshold n={n} alpha={alpha} beta={beta}")
    elapsed = time.perf_counter() - t0
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s budget")
    _report(1, failures, elapsed)


def test_acceptance_2_examples23_sharpness():
    """Turning-family witnesses match their closed forms to 1e-4 relative."""
    failures = []
    spec = GridSpec(m=4096, refine_depth=3)
    cases = []
    for n in NS:
        for beta in BETAS:
            for alpha in ALPHAS:
                cases.append((Witness.EX2, n, alpha, beta, Theorem.THM2))
            for alpha in (0.25, 0.5):  # thm3's low branch, alpha |n - beta|
                cases.append((Witness.EX3, n, alpha, beta, Theorem.THM3))
    for wit, n, alpha, beta, thm in cases:
        c = (1.0 - alpha) / (n + 1) if wit is Witness.EX2 else alpha / (n + 1)
        f = make_witness(wit, n, alpha)
        hyp = poly_sup(polynomial(Functional.TURN_TEST, f, beta), R, spec)
        hyp_want = (n + 1) * c * R**n * abs(n - beta)
        if _rel_err(hyp.upper, hyp_want) > 1e-4 or _rel_err(hyp.lower, hyp_want) > 1e-4:
            failures.append(f"hyp mismatch {wit.value} n={n} alpha={alpha} beta={beta}")
        thr = threshold(thm, Params(alpha=alpha, beta=beta), n)
        if not hyp.upper < thr:
            failures.append(f"hyp not below threshold {wit.value} n={n} alpha={alpha} beta={beta}")
        concl = poly_sup(polynomial(Functional.DERIV_MINUS_ONE, f), R, spec)
        concl_want = (n + 1) * c * R**n
        if _rel_err(concl.upper, concl_want) > 1e-4 or _rel_err(concl.lower, concl_want) > 1e-4:
            failures.append(f"concl mismatch {wit.value} n={n} alpha={alpha} beta={beta}")
        if not concl.upper < 1.0 - alpha:
            failures.append(f"concl not below order bound {wit.value} n={n} alpha={alpha}")
    _report(2, failures)


def test_acceptance_3_falsifier_grid():
    """1000-trial falsifier over all seven results and the criterion-1 grid
    reports zero Fails; the free radius of the plain-bound lemmas is taken
    as rho = 1 - alpha to reuse the alpha grid."""
    t0 = time.perf_counter()
    failures = []
    cfg = FalsifyConfig(trials=1000, seed=0, margin=0.9)
    combos = 0
    for thm in Theorem:
        rho_based = thm in (Theorem.LEM11, Theorem.LEM12, Theorem.LEM3)
        for n in NS:
            for alpha in ALPHAS:
                if thm is Theorem.THM3 and alpha == 0.0:
                    continue
                for beta in BETAS:
                    params = (
                        Params(beta=beta, rho=1.0 - alpha)
                        if rho_based
                        else Params(alpha=alpha, beta=beta)
                    )
                    out = falsify(thm, n, params, cfg)
                    combos += 1
                    if out.fails:
                        failures.append(
                            f"{thm.value} n={n} alpha={alpha} beta={beta}: "
                            f"{out.fails} fails, first {out.counterexamples[0]}"
                        )
    if combos != 324:
        failures.append(f"expected 324 parameter combinations, ran {combos}")
    elapsed = time.perf_counter() - t0
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 300s budget")
    _report(3, failures, elapsed)


def test_acceptance_4_jack_probe():
    """Boundary ratio at the located circle argmax is real, at least n,
    and dominated by the curvature companion, for 500 random polynomials."""
    failures = []
    rng = np.random.default_rng(20240818)
    for i in range(500):
        n = NS[i % 3]
        extra = int(rng.integers(1, 6))
        coeffs = np.zeros(n + extra + 1, dtype=complex)
        coeffs[n:] = rng.uniform(-1, 1, size=extra + 1) + 1j * rng.uniform(-1, 1, size=extra + 1)
        if abs(coeffs[n]) < 1e-2:
            coeffs[n] = 1.0
        w = PolySeries(coeffs)
        for r in (0.5, 0.9):
            rep = jack_probe(w, n, r)
            ratio = rep.ratio
            if abs(ratio.imag) > 1e-6 * (1 + abs(ratio)):
                failures.append(f"poly {i} r={r}: Im ratio {ratio.imag}")
            if ratio.real < n - 1e-6:
                failures.append(f"poly {i} r={r}: Re ratio {ratio.real} < n={n}")
            if rep.curvature_check < ratio.real - 1e-6:
                failures.append(
                    f"poly {i} r={r}: curvature {rep.curvature_check} < ratio {ratio.real}"
                )
    _report(4, failures)


def test_acceptance_5_radius_of_validity():
    """Bisection reproduces the closed-form scale 1/2 for f = z + z^2."""
    failures = []
    f = SeriesA.from_tail(1, [1.0])
    for thm in (Theorem.THM1, Theorem.THM2):
        rep = radius_of_validity(thm, f, Params(alpha=0.0, beta=0j))
        if rep.status != "bracketed":
            failures.append(f"{thm.value}: status {rep.status}")
        elif abs(rep.r_star - 0.5) > 1e-4:
            failures.append(f"{thm.value}: r_star {rep.r_star}")
    _report(5, failures)


def test_acceptance_6_duality():
    """Convexity of f and starlikeness of zf' give the same verdict state
    on 200 random small-tail functions at alpha in {0, 0.5}."""
    failures = []
    rng = np.random.default_rng(20240819)
    spec = GridSpec(m=512, refine_depth=2)
    for i in range(200):
        f = small_tail_series(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)))
        g = zfprime(f)
        for alpha in (0.0, 0.5):
            convex = membership(FunctionClass.CONVEX, f, alpha, spec)
            if membership(FunctionClass.STARLIKE, g, alpha, spec).state is not convex.state:
                failures.append(f"function {i} alpha={alpha}: verdicts disagree")
    _report(6, failures)


def test_acceptance_7_bracket_soundness():
    """A 64x denser reference grid stays inside every certified bracket."""
    failures = []
    rng = np.random.default_rng(20240820)
    base = GridSpec(m=128, refine_depth=2)
    ref_spec = GridSpec(m=128 * 64, refine_depth=3)
    for i in range(100):
        size = int(rng.integers(2, 9))
        p = PolySeries(rng.uniform(-1, 1, size=size) + 1j * rng.uniform(-1, 1, size=size))
        for r in (0.5, 0.9, 0.999):
            b = poly_sup(p, r, base)
            ref = circle_argmax(p.eval, r, ref_spec)[0]
            tol = 1e-12 * max(1.0, ref)
            if ref > b.upper + tol:
                failures.append(f"poly {i} r={r}: reference {ref} above upper {b.upper}")
            if b.lower > ref + tol:
                failures.append(f"poly {i} r={r}: lower {b.lower} above reference {ref}")
    _report(7, failures)


def test_acceptance_8_thm3_threshold_continuity():
    """The thm3 threshold is continuous at alpha = 1/2: at 1/2 it is
    0.5 |n - beta|, and at the float neighbours of 1/2, which select the low
    branch alpha |n - beta| and the high branch (1 - alpha) |n - beta|, it is
    within 2 ulp of that. The check verdicts agree at all three alphas."""
    failures = []
    alphas = (0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0))
    for n in NS:
        for beta in BETAS:
            want = 0.5 * abs(n - beta)
            got = [threshold(Theorem.THM3, Params(alpha=alpha, beta=beta), n) for alpha in alphas]
            if got[0] != want or any(abs(thr - want) > 2 * math.ulp(want) for thr in got):
                failures.append(f"thresholds jump n={n} beta={beta}: {got} vs {want}")
    spec = GridSpec(m=512, refine_depth=2)
    rng = np.random.default_rng(20240821)
    functions = [make_witness(Witness.EX3, n, 0.5) for n in NS]
    functions += [small_tail_series(rng, 1, 4) for _ in range(5)]
    for i, f in enumerate(functions):
        states = [check(Theorem.THM3, f, Params(alpha=alpha), spec).verdict.state for alpha in alphas]
        if len(set(states)) > 1:
            failures.append(f"function {i}: verdicts {states} at alpha {alphas}")
    _report(8, failures)
