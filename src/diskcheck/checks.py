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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import DEFAULT_RADII, GridSpec, SupBracket, BracketKind, _circle_argopt, _circle_point, \
    _poly_sup_argmax, poly_sup
from .errors import InputError, ParameterError, SingularDenominatorError, require_int
from .functionals import DEFAULT_DENOM_FLOOR, Functional, _require_nonsingular, as_polynomial
from .series import PolySeries, SeriesA

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
    try:
        alpha = float(params.alpha)
        beta = complex(params.beta)
    except (TypeError, ValueError):
        raise ParameterError("alpha must be real and beta complex") from None
    if not math.isfinite(alpha):
        raise ParameterError("alpha must be finite")
    if not (math.isfinite(beta.real) and math.isfinite(beta.imag)):
        raise ParameterError("beta must be finite")
    if not isinstance(theorem, Theorem):
        raise InputError(f"unknown theorem {theorem!r}")
    shift = _RULES[theorem][1]
    if not beta.real < n + shift:
        strip = "n+1" if shift else "n"
        raise ParameterError(f"{theorem.value} needs Re(beta) < {strip} = {n + shift}, got {beta.real}")
    if theorem in _RHO_THEOREMS:
        if params.rho is None or not math.isfinite(float(params.rho)) or not float(params.rho) > 0:
            raise ParameterError(f"{theorem.value} needs rho > 0, got {params.rho}")
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
    beta = complex(params.beta)
    if theorem is Theorem.LEM11:
        return float(params.rho) * abs(n + 1 - beta)
    if theorem is Theorem.LEM12:
        return float(params.rho) * n * abs(n + 1 - beta)
    if theorem in (Theorem.THM1, Theorem.COR1):
        return (1.0 - alpha) * n * abs(n + 1 - beta) / (n + 1 - alpha)
    if theorem is Theorem.THM2:
        return (1.0 - alpha) * abs(n - beta)
    if theorem is Theorem.LEM3:
        return float(params.rho) * abs(n - beta)
    if thm3_branch not in ("auto", "low", "high"):
        raise InputError(f"thm3_branch must be auto, low, or high, got {thm3_branch!r}")
    low = alpha <= 0.5 if thm3_branch == "auto" else thm3_branch == "low"
    return (alpha if low else 1.0 - alpha) * abs(n - beta)


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


def _decide(hyp_ok: bool, guard_ok: bool, singular_z, concl_lower, bound, concl_z):
    if singular_z is not None:
        return VerdictState.INCONCLUSIVE, singular_z
    if not hyp_ok or not guard_ok or concl_lower is None:
        return VerdictState.INCONCLUSIVE, None
    if concl_lower < bound:
        return VerdictState.HOLDS, None
    return VerdictState.FAILS, concl_z


def _guarded_quotient(kind: _Quotient, f: SeriesA, r_max: float, spec: GridSpec):
    """Pointwise evaluator of a quotient of f, or None when its nonvanishing
    guard is not certified on |z| <= r_max. The evaluator takes a point or an
    ndarray and raises SingularDenominatorError below DEFAULT_DENOM_FLOOR."""
    if kind is _Quotient.BOUNDED_TURNING:
        return f.derivative().eval
    star = kind is _Quotient.STARLIKE
    guard = as_polynomial(Functional.RATIO_DEFECT if star else Functional.DERIV_MINUS_ONE, f)
    if not poly_sup(guard, r_max, spec).upper < 1.0:
        return None
    d1 = f.derivative()
    den_poly = f.divide_by_z() if star else d1
    d2 = d1.derivative() if kind is _Quotient.CONVEX else None

    def q(z):
        den = den_poly.eval(z)
        _require_nonsingular(z, den, DEFAULT_DENOM_FLOOR)
        if star:
            return d1.eval(z) / den
        return 1.0 / den if d2 is None else 1.0 + z * d2.eval(z) / den

    return q


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
    strictly below the threshold.
    """
    spec = spec if spec is not None else GridSpec()
    r_max = float(r_max)
    if not math.isfinite(r_max) or not (0.0 < r_max < 1.0):
        raise InputError("r_max must lie in (0, 1)")
    n = f.n
    thr = threshold(theorem, params, n, thm3_branch=thm3_branch)
    bound = _conclusion_bound(theorem, params)
    hyp_fun, _, conclusion = _RULES[theorem]

    hyp, _ = _poly_sup_argmax(as_polynomial(hyp_fun, f, params.beta), r_max, spec)
    hyp_ok = hyp.upper < thr

    concl: SupBracket | None = None
    concl_z: complex | None = None
    singular: complex | None = None
    guard_ok = True
    if isinstance(conclusion, Functional):
        concl, concl_z = _poly_sup_argmax(as_polynomial(conclusion, f), r_max, spec)
    else:
        q = _guarded_quotient(conclusion, f, r_max, spec)
        guard_ok = q is not None
        if guard_ok:
            center = bound if conclusion is _Quotient.RECIPROCAL else 1.0
            try:
                lower, t = _circle_argopt(lambda z: abs(q(z) - center), r_max, spec.m, spec.refine_depth)
                concl_z = _circle_point(r_max, t)
                concl = SupBracket(lower, math.inf, r_max, BracketKind.GRID_ONLY)
            except SingularDenominatorError as exc:
                singular = exc.z

    concl_lower = concl.lower if concl is not None else None
    state, witness = _decide(hyp_ok, guard_ok, singular, concl_lower, bound, concl_z)
    verdict = Verdict(
        state=state,
        hypothesis_margin=thr - hyp.upper,
        conclusion_margin=(bound - concl_lower) if concl_lower is not None else None,
        witness=witness,
    )
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
    """Grid verdict on class membership of order alpha over circles up to r_max.

    Scans the ladder radii below r_max plus r_max itself for the minimum of
    the relevant real part. Quotient classes run behind the same nonvanishing
    guards as check(); a failed guard or a singular denominator yields
    Inconclusive (the latter with the singular point as witness). This is a
    grid verdict, not a certificate: hypothesis_margin stays None.
    """
    spec = spec if spec is not None else GridSpec()
    r_max = float(r_max)
    if not math.isfinite(r_max) or not (0.0 < r_max < 1.0):
        raise InputError("r_max must lie in (0, 1)")
    alpha = float(alpha)
    if not (0.0 <= alpha < 1.0):
        raise ParameterError(f"membership needs 0 <= alpha < 1, got {alpha}")

    if not isinstance(which, FunctionClass):
        raise InputError(f"unknown function class {which!r}")
    quotient = _guarded_quotient(_Quotient[which.name], f, r_max, spec)
    if quotient is None:
        return Verdict(VerdictState.INCONCLUSIVE, None, None, None)

    radii = [r for r in DEFAULT_RADII if r < r_max] + [r_max]
    min_re = math.inf
    witness: complex | None = None
    try:
        for r in radii:
            val, t = _circle_argopt(lambda z: quotient(z).real, r, spec.m, spec.refine_depth, minimize=True)
            if val < min_re:
                min_re = val
                witness = _circle_point(r, t)
    except SingularDenominatorError as exc:
        return Verdict(VerdictState.INCONCLUSIVE, None, None, exc.z)

    margin = min_re - alpha
    if min_re > alpha:
        return Verdict(VerdictState.HOLDS, None, margin, None)
    return Verdict(VerdictState.FAILS, None, margin, witness)


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
    r = float(r)
    if not math.isfinite(r) or not (0.0 < r < 1.0):
        raise InputError("probe radius must lie in (0, 1)")
    n = require_int(n, 1, "leading index n must be a positive integer")
    c = w.coeffs
    if c[0] != 0:
        raise InputError("w(0) = 0 required")
    nonzero = np.nonzero(c)[0]
    if nonzero.size == 0:
        raise InputError("w must not be identically zero")
    if int(nonzero[0]) < n:
        raise InputError(f"leading index {int(nonzero[0])} is below the declared n = {n}")

    _, theta = _circle_argopt(lambda z: abs(w.eval(z)), r, spec.m, 120, basins=3, tol=1e-10)
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
