"""Theorem checkers, class membership testers, and the circle-maximum probe.

Each tag names one sufficient-condition result. Hypothesis expression,
threshold, and conclusion:

    lem11  |star test|   < rho |n+1-b|                ->  |f' - f/z|  < rho
    lem12  |star test|   < rho n |n+1-b|              ->  |f/z - 1|   < rho
    thm1   |star test|   < (1-a) n |n+1-b| / (n+1-a)  ->  |zf'/f - 1| < 1-a
    cor1   |convex test| < (1-a) n |n+1-b| / (n+1-a)  ->  |zf''/f'|   < 1-a
    thm2   |turn test|   < (1-a) |n-b|                ->  |f' - 1|    < 1-a
    lem3   |turn test|   < rho |n-b|                  ->  |f' - 1|    < rho
    thm3   |turn test|   < a|n-b| (a <= 1/2)
                      or < (1-a)|n-b| (a >= 1/2)      ->  |1/f' - 1/(2a)| < 1/(2a)

with a = alpha, b = beta, and n the class index of f. thm1 certifies
starlikeness of order alpha, cor1 convexity, thm2/thm3 bounded turning.

A check verdict is three-valued. Holds needs the hypothesis certified-upper
strictly below the threshold and the conclusion grid value below its bound;
Fails needs a concrete sample violating the conclusion while the hypothesis
is certified; everything else (hypothesis not certifiable, guard failure,
singular denominator) is Inconclusive. Sharp witnesses therefore drift to
Inconclusive as the hypothesis margin collapses, because a strict inequality
is never certified from an equality.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# poly_sup is not called here, but diskcheck.checks.poly_sup stays importable:
# bench/tracer.py wraps that name and bench/test_bench.py deletes it.
from .bounds import GridSpec, SupBracket, BracketKind, _below, _circle_argopt, _circle_point, _circle_rows, \
    _sup_bracket, _sup_rows, _sup_upper, _unit_circle, poly_sup  # noqa: F401
from .errors import InputError, ParameterError, SingularDenominatorError, require_complex, require_finite, \
    require_int, require_real
from .functionals import DEFAULT_DENOM_FLOOR, Functional, _polynomial_coeffs, _require_nonsingular
from .series import PolySeries, SeriesA, _derivative_coeffs, _horner

__all__ = [
    "Theorem",
    "Params",
    "VerdictState",
    "Verdict",
    "CheckReport",
    "JackReport",
    "FunctionClass",
    "HYPOTHESIS_FUNCTIONAL",
    "validate_params",
    "threshold",
    "check",
    "membership",
    "duality_check",
    "jack_probe",
]


class Theorem(Enum):
    LEM11 = "lem11"
    LEM12 = "lem12"
    THM1 = "thm1"
    COR1 = "cor1"
    THM2 = "thm2"
    LEM3 = "lem3"
    THM3 = "thm3"


#: Results whose hypothesis bound scales a free radius rho instead of alpha.
_RHO_THEOREMS = frozenset({Theorem.LEM11, Theorem.LEM12, Theorem.LEM3})


class _Quotient(Enum):
    """Quotients of f and its derivatives, each evaluated behind the guard that
    keeps its denominator off zero. A member named after a FunctionClass is
    the quantity whose real part defines that class."""

    STARLIKE = "z f'/f"           # guard sup |f/z - 1| < 1
    CONVEX = "1 + z f''/f'"       # guard sup |f' - 1| < 1
    BOUNDED_TURNING = "f'"        # a polynomial: no guard
    RECIPROCAL = "1/f'"           # guard sup |f' - 1| < 1


#: Per result: hypothesis functional, beta-strip shift s (the hypothesis needs
#: Re(beta) < n + s and its threshold carries |n + s - beta|), and conclusion,
#: either a polynomial functional bounded in modulus or a quotient q bounded
#: as |q - 1| (|q - 1/(2 alpha)| for the reciprocal).
_RULES = {
    Theorem.LEM11: (Functional.STAR_TEST, 1, Functional.DERIV_DEFECT),
    Theorem.LEM12: (Functional.STAR_TEST, 1, Functional.RATIO_DEFECT),
    Theorem.THM1: (Functional.STAR_TEST, 1, _Quotient.STARLIKE),
    Theorem.COR1: (Functional.CONVEX_TEST, 1, _Quotient.CONVEX),
    Theorem.THM2: (Functional.TURN_TEST, 0, Functional.DERIV_MINUS_ONE),
    Theorem.LEM3: (Functional.TURN_TEST, 0, Functional.DERIV_MINUS_ONE),
    Theorem.THM3: (Functional.TURN_TEST, 0, _Quotient.RECIPROCAL),
}

HYPOTHESIS_FUNCTIONAL = {theorem: rule[0] for theorem, rule in _RULES.items()}


@dataclass(frozen=True)
class Params:
    """Order alpha, complex shift beta, and the free radius rho of the
    plain-bound lemmas (lem11, lem12, lem3); rho stays None elsewhere."""

    alpha: float = 0.0
    beta: complex = 0j
    rho: float | None = None


def validate_params(theorem: Theorem, params: Params, n: int) -> None:
    """Raise ParameterError naming the violated constraint, if any."""
    require_int(n, 1, "class index n must be a positive integer", ParameterError)
    # Both conversions come before either finiteness test, so a non-number in
    # either argument gets the shared message.
    alpha = require_real(params.alpha, None, "alpha must be real and beta complex", ParameterError)
    beta = require_complex(params.beta, None, "alpha must be real and beta complex", ParameterError)
    require_real(alpha, math.isfinite, "alpha must be finite", ParameterError)
    require_complex(beta, cmath.isfinite, "beta must be finite", ParameterError)
    if not isinstance(theorem, Theorem):
        raise InputError(f"unknown theorem {theorem!r}")
    shift = _RULES[theorem][1]
    if not beta.real < n + shift:
        strip = "n+1" if shift else "n"
        raise ParameterError(f"{theorem.value} needs Re(beta) < {strip} = {n + shift}, got {beta.real}")
    if theorem in _RHO_THEOREMS:
        message = f"{theorem.value} needs rho > 0, got {params.rho}"
        require_real(params.rho, lambda rho: 0.0 < rho < math.inf, message, ParameterError)
    elif theorem is Theorem.THM3:
        if not (0.0 < alpha < 1.0):
            raise ParameterError(f"thm3 needs 0 < alpha < 1, got {alpha}")
    elif not (0.0 <= alpha < 1.0):
        raise ParameterError(f"{theorem.value} needs 0 <= alpha < 1, got {alpha}")


def threshold(theorem: Theorem, params: Params, n: int, *, thm3_branch: str = "auto") -> float:
    """Hypothesis threshold of one result; validates the parameters first.

    thm3_branch picks the piece of the split thm3 bound: "auto" follows
    alpha, "low" forces alpha |n - beta|, "high" forces (1-alpha) |n - beta|.
    At alpha = 1/2 the two branches coincide.
    """
    validate_params(theorem, params, n)
    alpha = float(params.alpha)
    try:
        strip = abs(n + _RULES[theorem][1] - complex(params.beta))
    except OverflowError:  # |beta| beyond the float range
        strip = math.inf
    if theorem is Theorem.LEM11:
        value = float(params.rho) * strip
    elif theorem is Theorem.LEM12:
        value = float(params.rho) * n * strip
    elif theorem in (Theorem.THM1, Theorem.COR1):
        value = (1.0 - alpha) * n * strip / (n + 1 - alpha)
    elif theorem is Theorem.THM2:
        value = (1.0 - alpha) * strip
    elif theorem is Theorem.LEM3:
        value = float(params.rho) * strip
    else:
        if thm3_branch not in ("auto", "low", "high"):
            raise InputError(f"thm3_branch must be auto, low, or high, got {thm3_branch!r}")
        low = alpha <= 0.5 if thm3_branch == "auto" else thm3_branch == "low"
        value = (alpha if low else 1.0 - alpha) * strip
    if not math.isfinite(value):
        raise ParameterError(f"{theorem.value} threshold overflows the float range")
    return value


def _conclusion_bound(theorem: Theorem, params: Params) -> float:
    if theorem in _RHO_THEOREMS:
        return float(params.rho)
    if theorem is Theorem.THM3:
        return 1.0 / (2.0 * float(params.alpha))
    return 1.0 - float(params.alpha)


class VerdictState(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Three-valued outcome with signed margins (positive is good).

    hypothesis_margin is threshold minus the certified hypothesis upper
    bound; conclusion_margin is the conclusion bound minus the observed grid
    value. Either is None when the quantity was never computed. witness
    carries a concrete violating or singular point when one exists.
    """

    state: VerdictState
    hypothesis_margin: float | None
    conclusion_margin: float | None
    witness: complex | None = None


@dataclass(frozen=True)
class CheckReport:
    theorem: Theorem
    params: Params
    n: int
    r_max: float
    hyp: SupBracket
    hyp_threshold: float
    concl: SupBracket | None
    concl_bound: float
    verdict: Verdict
    witness: complex | None


def _decide(hyp_ok: bool, concl_lower, bound: float) -> VerdictState:
    """check's verdict state; concl_lower None leaves the conclusion unknown."""
    if concl_lower is None or not hyp_ok:
        return VerdictState.INCONCLUSIVE
    if concl_lower < bound:
        return VerdictState.HOLDS
    return VerdictState.FAILS


#: Guard polynomial g of each guarded quotient: its nonvanishing needs sup |g| < 1.
_GUARD = {
    _Quotient.STARLIKE: Functional.RATIO_DEFECT,
    _Quotient.CONVEX: Functional.DERIV_MINUS_ONE,
    _Quotient.RECIPROCAL: Functional.DERIV_MINUS_ONE,
}


def _quotient_parts(kind: _Quotient, a: np.ndarray):
    """Denominator and numerator coefficients of a quotient for every row
    a[..., :] of series coefficients (no denominator for f', no numerator for
    1/f'). InputError when one overflows; call under np.errstate."""
    d1 = require_finite(_derivative_coeffs(a), f"the coefficients of {kind.value}")
    if kind is _Quotient.STARLIKE:
        return a[..., 1:], d1
    if kind is _Quotient.CONVEX:
        return d1, require_finite(_derivative_coeffs(d1), f"the coefficients of {kind.value}")
    if kind is _Quotient.RECIPROCAL:
        return d1, None
    return None, d1


def _quotient_value(kind: _Quotient, z, den, top):
    """The quotient from its denominator and numerator values at z."""
    if kind is _Quotient.STARLIKE:
        return top / den
    if kind is _Quotient.CONVEX:
        return 1.0 + z * top / den
    if kind is _Quotient.RECIPROCAL:
        return 1.0 / den
    return top


@np.errstate(all="ignore")
def _quotient_rows(kind: _Quotient, a: np.ndarray, r: float, spec: GridSpec, h):
    """Maximum over |z| = r of the real objective h(q), for the quotient q of
    every row a[i] of series coefficients: one (value, z) pair a row.

    A guarded quotient is scanned only when its guard is certified below 1 by
    _below; otherwise the pair is (None, None). The scan evaluates h(q) on the
    m-point grid and refines the best sample by _circle_argopt. When a
    denominator modulus falls below DEFAULT_DENOM_FLOOR at a grid point, or
    else at a refinement point, the pair is (None, z) with z the first such
    point; otherwise value is the refined maximum and z its point. h takes an
    ndarray or a complex. InputError when a value overflows.
    """
    out = [(None, None)] * len(a)
    parts = _quotient_parts(kind, a)
    rows = np.arange(len(a))
    if kind in _GUARD:
        rows = rows[_below(_polynomial_coeffs(_GUARD[kind], a, 0j), r, 1.0, spec)]
    z = r * _unit_circle(spec.m)
    den, top = (None if p is None else _circle_rows(p[rows], z) for p in parts)
    vals = h(_quotient_value(kind, z, den, top))
    bad = np.abs(den) < DEFAULT_DENOM_FLOOR if den is not None else np.zeros(vals.shape, dtype=bool)
    singular = bad.any(axis=-1)
    if not (singular | np.isfinite(vals).all(axis=-1)).all():
        raise InputError(f"float overflow in {kind.value} on |z| = {r}")
    den_rows, top_rows = ([None] * len(a) if p is None else p.tolist() for p in parts)
    for i, row in enumerate(rows.tolist()):
        if singular[i]:
            out[row] = (None, complex(z[np.argmax(bad[i])]))
            continue
        den_py, top_py = den_rows[row], top_rows[row]

        def hz(zt):
            d = None if den_py is None else _horner(den_py, zt)
            if d is not None and abs(d) < DEFAULT_DENOM_FLOOR:
                raise SingularDenominatorError(zt)
            return h(_quotient_value(kind, zt, d, None if top_py is None else _horner(top_py, zt)))

        try:
            value, t = _circle_argopt(hz, r, vals[i], spec.refine_depth)
        except SingularDenominatorError as exc:
            out[row] = (None, exc.z)
        else:
            out[row] = (value, _circle_point(r, t))
    return out


def _conclusion_rows(conclusion, a: np.ndarray, bound: float, r_max: float, spec: GridSpec):
    """check's conclusion scan of every row a[i] of series coefficients: the
    coefficient rows of a polynomial conclusion, which check certifies from
    above, or None for a quotient, and one (lower, z) pair a row. A
    polynomial conclusion gets the _sup_rows lower bound and its point. A
    quotient q, bounded as |q - center| < bound, gets the _quotient_rows
    value of that modulus and its point, None for a failed guard or a
    singular point.
    """
    if isinstance(conclusion, Functional):
        c = _polynomial_coeffs(conclusion, a, 0j)
        return c, [(value, _circle_point(r_max, t)) for value, t in _sup_rows(c, r_max, spec)]
    center = bound if conclusion is _Quotient.RECIPROCAL else 1.0
    return None, _quotient_rows(conclusion, a, r_max, spec, lambda q: abs(q - center))


def check(
    theorem: Theorem,
    f: SeriesA,
    params: Params,
    spec: GridSpec | None = None,
    r_max: float = 0.999,
    *,
    thm3_branch: str = "auto",
) -> CheckReport:
    """Verify one sufficient-condition instance on the disk |z| <= r_max.

    The hypothesis sup gets a certified bracket; the conclusion gets a
    certified bracket when polynomial and a grid-only one when rational.
    Rational conclusions run behind a nonvanishing guard (certified
    sup |f/z - 1| < 1 for the starlike quotient, certified sup |f' - 1| < 1
    for the quotients over f'); a failed guard yields Inconclusive, never
    Fails. Holds additionally demands the certified hypothesis upper bound
    strictly below the threshold. InputError when a derived coefficient or
    value overflows the float range.
    """
    spec = spec if spec is not None else GridSpec()
    r_max = require_real(r_max, lambda r: 0.0 < r < 1.0, "r_max must lie in (0, 1)", InputError)
    n = f.n
    thr = threshold(theorem, params, n, thm3_branch=thm3_branch)
    bound = _conclusion_bound(theorem, params)
    hyp_fun, _, conclusion = _RULES[theorem]
    a = f.body.coeffs[None]
    hyp = _sup_bracket(_polynomial_coeffs(hyp_fun, a, complex(params.beta)), r_max, spec)
    poly, [(lower, z)] = _conclusion_rows(conclusion, a, bound, r_max, spec)
    concl = margin = None
    if lower is not None:
        margin = bound - lower
        if poly is None:
            concl = SupBracket(lower, math.inf, r_max, BracketKind.GRID_ONLY)
        else:
            concl = SupBracket(lower, float(_sup_upper(poly, r_max, [lower], spec)[0]), r_max, BracketKind.CERTIFIED)
    state = _decide(hyp.upper < thr, lower, bound)
    # a Fails shows its violating point, an unknown conclusion its singular point
    witness = z if lower is None or state is VerdictState.FAILS else None
    verdict = Verdict(state=state, hypothesis_margin=thr - hyp.upper, conclusion_margin=margin, witness=witness)
    return CheckReport(
        theorem=theorem,
        params=params,
        n=n,
        r_max=r_max,
        hyp=hyp,
        hyp_threshold=thr,
        concl=concl,
        concl_bound=bound,
        verdict=verdict,
        witness=witness,
    )


def _check_rows(theorem: Theorem, n: int, a: np.ndarray, params: Params, spec: GridSpec, r_max: float):
    """check's verdict state and conclusion margin for the functions with
    series coefficient rows a (class index n): one pair a row, by check's
    rules. The hypothesis is certified by _below, which decides as check's
    bracket does without a grid when the coefficient sum leaves room. The
    conclusion needs no upper bound: a row whose lower bound is not below
    the bound, a non-finite one included, is a Fails, which check re-decides
    and where an overflow raises."""
    thr = threshold(theorem, params, n)
    bound = _conclusion_bound(theorem, params)
    hyp_fun, _, conclusion = _RULES[theorem]
    hyp_ok = _below(_polynomial_coeffs(hyp_fun, a, complex(params.beta)), r_max, thr, spec).tolist()
    _, pairs = _conclusion_rows(conclusion, a, bound, r_max, spec)
    return [(_decide(ok, lower, bound), None if lower is None else bound - lower)
            for ok, (lower, _) in zip(hyp_ok, pairs)]


class FunctionClass(Enum):
    STARLIKE = "star"          # Re(z f'/f) > alpha
    BOUNDED_TURNING = "c"      # Re(f') > alpha
    CONVEX = "k"               # Re(1 + z f''/f') > alpha


def membership(
    which: FunctionClass,
    f: SeriesA,
    alpha: float,
    spec: GridSpec | None = None,
    r_max: float = 0.999,
) -> Verdict:
    """Grid verdict on class membership of order alpha on the disk |z| <= r_max.

    Quotient classes run behind the same nonvanishing guards as check(); a
    failed guard or a singular denominator yields Inconclusive (the latter
    with the singular point as witness). Behind the guard the quotient is
    analytic on the closed disk, so its real part is harmonic there and takes
    its minimum on the circle |z| = r_max (minimum principle): only that
    circle is scanned. This is a grid verdict, not a certificate:
    hypothesis_margin stays None.
    """
    spec = spec if spec is not None else GridSpec()
    r_max = require_real(r_max, lambda r: 0.0 < r < 1.0, "r_max must lie in (0, 1)", InputError)
    # The message shows alpha as given when it is not a number, else as a float.
    alpha = require_real(alpha, None, f"membership needs 0 <= alpha < 1, got {alpha}", ParameterError)
    require_real(alpha, lambda a: 0.0 <= a < 1.0, f"membership needs 0 <= alpha < 1, got {alpha}", ParameterError)

    if not isinstance(which, FunctionClass):
        raise InputError(f"unknown function class {which!r}")
    [(value, z)] = _quotient_rows(_Quotient[which.name], f.body.coeffs[None], r_max, spec, lambda q: -q.real)
    if value is None:
        return Verdict(VerdictState.INCONCLUSIVE, None, None, z)
    min_re = -value
    margin = min_re - alpha
    if min_re > alpha:
        return Verdict(VerdictState.HOLDS, None, margin, None)
    return Verdict(VerdictState.FAILS, None, margin, z)


def duality_check(
    f: SeriesA,
    alpha: float,
    spec: GridSpec | None = None,
    r_max: float = 0.999,
) -> Verdict:
    """Compare convexity of f with starlikeness of z f' at the same order.

    The two memberships evaluate the same quotient through different
    algebraic routes, so their states must agree; Holds means they do.
    hypothesis_margin carries the convex-side conclusion margin and
    conclusion_margin the starlike-side one.
    """
    convex = membership(FunctionClass.CONVEX, f, alpha, spec, r_max)
    star = membership(FunctionClass.STARLIKE, f.to_zfprime(), alpha, spec, r_max)
    agree = convex.state == star.state
    return Verdict(
        VerdictState.HOLDS if agree else VerdictState.FAILS,
        convex.conclusion_margin,
        star.conclusion_margin,
        star.witness if star.witness is not None else convex.witness,
    )


@dataclass(frozen=True)
class JackReport:
    """Values measured at the located argmax z0 of |w| on |z| = r.

    ratio is z0 w'(z0) / w(z0); at a true circle maximum it must be real
    with real part at least the leading index. curvature_check is
    Re(z0 w''(z0) / w'(z0)) + 1 and must weakly dominate that ratio.
    """

    r: float
    z0: complex
    ratio: complex
    n: int
    curvature_check: float


def _polish_peak(w: PolySeries, r: float, theta: float, step_cap: float, iters: int = 12) -> float:
    """Newton steps on Im(z w'/w) = 0, the stationarity condition of
    log |w| along the circle; leaves theta unchanged when the slope is flat."""
    w1 = w.derivative()
    w2 = w1.derivative()
    tol_scale = 1e-15
    for _ in range(iters):
        z = _circle_point(r, theta)
        w0 = w.eval(z)
        if abs(w0) < 1e-280:
            break
        v1 = w1.eval(z)
        ratio = z * v1 / w0
        b = ratio.imag
        if abs(b) <= tol_scale * (1.0 + abs(ratio)):
            break
        slope = (ratio + z * z * w2.eval(z) / w0 - ratio * ratio).real
        if not (slope > 1e-9 * (1.0 + abs(ratio) ** 2)):
            break
        step = b / slope
        if abs(step) > step_cap:
            step = math.copysign(step_cap, step)
        theta -= step
    return theta


def jack_probe(w: PolySeries, n: int, r: float, spec: GridSpec | None = None) -> JackReport:
    """Locate the argmax of |w| on |z| = r and report the boundary ratios.

    Requires w(0) = 0 with leading index (first nonzero coefficient) at
    least n, and w not identically zero. The argmax search refines the best
    grid basins to convergence and then polishes the angle by Newton on the
    stationarity condition, so the reported ratio is real to roundoff.
    """
    spec = spec if spec is not None else GridSpec()
    r = require_real(r, lambda v: 0.0 < v < 1.0, "probe radius must lie in (0, 1)", InputError)
    n = require_int(n, 1, "leading index n must be a positive integer")
    c = w.coeffs
    if c[0] != 0:
        raise InputError("w(0) = 0 required")
    nonzero = np.nonzero(c)[0]
    if nonzero.size == 0:
        raise InputError("w must not be identically zero")
    if int(nonzero[0]) < n:
        raise InputError(f"leading index {int(nonzero[0])} is below the declared n = {n}")

    h = lambda z: abs(w.eval(z))  # noqa: E731
    _, theta = _circle_argopt(h, r, h(r * _unit_circle(spec.m)), 120, basins=3, tol=1e-10)
    theta = _polish_peak(w, r, theta, step_cap=2.0 * math.pi / spec.m)
    z0 = _circle_point(r, theta)
    w0 = w.eval(z0)
    w1 = w.derivative()
    v1 = w1.eval(z0)
    _require_nonsingular(z0, w0, DEFAULT_DENOM_FLOOR)
    _require_nonsingular(z0, v1, DEFAULT_DENOM_FLOOR)
    ratio = z0 * v1 / w0
    curvature = (z0 * w1.derivative().eval(z0) / v1).real + 1.0
    return JackReport(r=r, z0=z0, ratio=ratio, n=n, curvature_check=float(curvature))
