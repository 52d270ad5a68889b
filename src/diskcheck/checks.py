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
Every conclusion |q - c| < bound, and every class test Re q > alpha (with
c = 0), is scanned as q - c = N/D from two coefficient rows, D = 1 for a
polynomial q; a quotient needs the guard sup |D - 1| < 1, so D has no zero.

A check verdict is three-valued. Holds needs the hypothesis certified-upper
strictly below the threshold and the conclusion grid value below its bound;
Fails needs a concrete sample violating the conclusion while the hypothesis
is certified; everything else (hypothesis not certifiable, guard failure,
singular D) is Inconclusive. Sharp witnesses therefore drift to
Inconclusive as the hypothesis margin collapses, because a strict inequality
is never certified from an equality.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

# poly_sup is not called here, but diskcheck.checks.poly_sup stays importable:
# bench/tracer.py wraps that name and bench/test_bench.py deletes it.
from .bounds import _MAX_GRID_M, _SUM_SLACK, GridSpec, SupBracket, BracketKind, _below, _brackets, \
    _circle_argopt, _circle_point, _circle_rows, _coeff_sums, _powers, _sec_bound, _stacked, _unit_circle, \
    poly_sup  # noqa: F401
from .errors import InputError, ParameterError, require_complex, require_int, require_real
from .functionals import DEFAULT_DENOM_FLOOR, Functional, _polynomial_coeffs, _require_nonsingular
from .series import PolySeries, SeriesA, _derivative_coeffs, require_finite

__all__ = [
    "Theorem",
    "Params",
    "VerdictState",
    "Verdict",
    "CheckReport",
    "JackReport",
    "FunctionClass",
    "HYPOTHESIS_FUNCTIONAL",
    "threshold",
    "check",
    "membership",
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
    """Quotients of f and its derivatives; a member named after a
    FunctionClass is the quantity whose real part defines that class."""

    STARLIKE = "z f'/f"
    CONVEX = "1 + z f''/f'"
    BOUNDED_TURNING = "f'"
    RECIPROCAL = "1/f'"


#: Per result: hypothesis functional, beta-strip shift s (the hypothesis needs
#: Re(beta) < n + s and its threshold carries |n + s - beta|), and conclusion
#: quantity q, a polynomial functional or a quotient, bounded as |q - c| with
#: c = _center(q, bound).
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


def threshold(theorem: Theorem, params: Params, n: int) -> float:
    """Hypothesis threshold of one result; validates the parameters first,
    raising ParameterError naming the violated constraint. The split thm3
    bound follows alpha: alpha |n - beta| for alpha <= 1/2, else
    (1-alpha) |n - beta|; the two pieces meet at alpha = 1/2.
    """
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
        if not math.isfinite(1.0 / (2.0 * alpha)):
            raise ParameterError(f"thm3 needs 1/(2 alpha) within the float range, got alpha = {alpha}")
    elif not (0.0 <= alpha < 1.0):
        raise ParameterError(f"{theorem.value} needs 0 <= alpha < 1, got {alpha}")
    try:
        strip = abs(n + shift - beta)
    except OverflowError:  # |beta| beyond the float range
        strip = math.inf
    if theorem in (Theorem.LEM11, Theorem.LEM3):
        value = float(params.rho) * strip
    elif theorem is Theorem.LEM12:
        value = float(params.rho) * n * strip
    elif theorem in (Theorem.THM1, Theorem.COR1):
        value = (1.0 - alpha) * n * strip / (n + 1 - alpha)
    elif theorem is Theorem.THM2:
        value = (1.0 - alpha) * strip
    else:
        value = (alpha if alpha <= 0.5 else 1.0 - alpha) * strip
    if not math.isfinite(value):
        raise ParameterError(f"{theorem.value} threshold overflows the float range")
    if value == 0.0:  # only a subnormal rho, or a subnormal thm3 alpha, underflows it
        name, small = ("rho", float(params.rho)) if theorem in _RHO_THEOREMS else ("alpha", alpha)
        raise ParameterError(f"{theorem.value} threshold underflows to 0 at {name} = {small}")
    return value


def _conclusion_bound(theorem: Theorem, params: Params) -> float:
    if theorem in _RHO_THEOREMS:
        return float(params.rho)
    if theorem is Theorem.THM3:
        return 1.0 / (2.0 * float(params.alpha))
    return 1.0 - float(params.alpha)


def _center(conclusion, bound: float) -> float:
    """c of check's conclusion |q - c| < bound: 0 for a polynomial q, bound for 1/f', else 1."""
    return 0.0 if isinstance(conclusion, Functional) else bound if conclusion is _Quotient.RECIPROCAL else 1.0


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
    witness: complex | None


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


def _verdict(hyp_ok: bool, lower: float, z: complex, bound: float, hypothesis_margin: float | None) -> Verdict:
    """The Verdict of one row with a certified hypothesis where hyp_ok and
    conclusion grid maximum lower, nan where the conclusion is unknown (a
    failed guard or a singular point): Inconclusive for either failure, else
    Holds when lower < bound and Fails when not, with conclusion margin
    bound - lower, None where lower is nan. A Fails shows its violating
    point z, an unknown conclusion its singular point z when it has one."""
    known = lower == lower
    if hyp_ok and known:
        state = VerdictState.HOLDS if lower < bound else VerdictState.FAILS
    else:
        state = VerdictState.INCONCLUSIVE
    witness = z if (state is VerdictState.FAILS or not known) and z == z else None
    return Verdict(state, hypothesis_margin, bound - lower if known else None, witness)


#: The row D = 1 of a polynomial conclusion quantity, read-only as a broadcast view.
_ONE = np.broadcast_to(np.complex128(1.0), (1, 1))


def _ratio_rows(conclusion, a: np.ndarray, c: float):
    """Coefficient rows N and D (one row, or one per row of a) with
    q - c = N/D, for the conclusion quantity q = P/D of every function with
    series coefficient row a[i]. N = P - c D is formed coefficientwise, so
    nothing cancels on the circle. D = 1 is the row _ONE itself; every other
    D has D(0) = a_1 = 1. InputError when a coefficient overflows; call
    under np.errstate.

        q    polynomial p   z f'/f   1 + z f''/f'   f'   1/f'
        P    p              f'       f' + z f''     f'   1
        D    1              f/z      f'             1    f'
    """
    if isinstance(conclusion, Functional):  # N = p - c, p already checked
        num = _polynomial_coeffs(conclusion, a, 0j)
        num[:, 0] -= c
        return num, _ONE
    d1 = _derivative_coeffs(a)  # an overflow in it reaches N
    top, den = {  # built on demand: only the one needed
        _Quotient.STARLIKE: lambda: (d1, a[:, 1:]),
        _Quotient.CONVEX: lambda: (d1 * np.arange(1, d1.shape[-1] + 1), d1),  # (1 + k) f'_k, as z f'' = k f'_k
        _Quotient.BOUNDED_TURNING: lambda: (d1, _ONE),
        _Quotient.RECIPROCAL: lambda: (np.eye(1, d1.shape[-1]), d1),
    }[conclusion]()
    num = top - c * (np.eye(1, top.shape[-1]) if den is _ONE else den)  # D = 1 padded to the length of P
    return require_finite(num, f"the coefficients of {conclusion.value}"), den


@np.errstate(all="ignore")
def _conclusion_scan(conclusion, a: np.ndarray, r: float, spec: GridSpec, h, lead: np.ndarray, c: float):
    """The m-point grid scan on |z| = r, by one _circle_rows call, of the
    polynomial rows lead (check's hypothesis, or none) and of h(N/D), N and
    D the _ratio_rows of q - c for the one function with coefficient row a
    (shape (1, L)), h a real objective of an ndarray. Returns the rows that
    check brackets (lead, then N when D = 1) and two arrays over lead and
    the conclusion: the grid maxima of |lead| and h(N/D), and their points;
    and, last, (N, D, the N grid, the D grid) with 1.0 as the grid of D = 1,
    or None when the guard fails. A D other than 1 needs the guard
    sup |D - 1| < 1 certified by _below, else value and point are nan; where
    |D| < DEFAULT_DENOM_FLOOR the value is nan at the first such point.
    InputError when a value overflows."""
    unit = _unit_circle(spec.m)
    num, den = _ratio_rows(conclusion, a, c)
    poly = den is _ONE  # N is a polynomial row, bracketed with lead
    guarded = poly or _below(den - np.eye(1, den.shape[-1]), r, 1.0, spec)[0]
    stack = _stacked(lead, *((num,) if poly else (num, den) if guarded else ()))
    grids = _circle_rows(stack, r, spec.m)
    values, j = _circle_argopt(np.abs(grids[: len(lead)]))
    value, point, ratio = math.nan, complex(math.nan, math.nan), None
    if guarded:
        top, bottom = grids[len(lead)], 1.0 if poly else grids[-1]
        ratio = num, den, top, bottom
        vals = h(top if poly else top / bottom)
        bad = () if poly else (np.abs(grids[-1]) < DEFAULT_DENOM_FLOOR).nonzero()[0]
        if len(bad):  # singular: the first grid point below the floor
            point = r * unit[bad[0]]
        elif not np.isfinite(vals).all():
            raise InputError(f"float overflow in {conclusion.value} on |z| = {r}")
        else:
            i = vals.argmax()
            value, point = vals[i], r * unit[i]
    return stack[: len(lead) + poly], np.append(values, value), np.append(r * unit[j], point), ratio


def check(theorem: Theorem, f: SeriesA, params: Params, spec: GridSpec | None = None,
          r_max: float = 0.999) -> CheckReport:
    """Verify one sufficient-condition instance on the disk |z| <= r_max.

    The hypothesis sup gets a certified bracket. The conclusion
    |q - c| < bound is scanned as |N/D| (_conclusion_scan): certified when
    D = 1, else grid-only and behind the guard sup |D - 1| < 1, whose
    failure yields Inconclusive, never Fails. Holds also demands the
    certified hypothesis upper bound strictly below the threshold. Every row
    is scanned on the spec.m-point grid; a hypothesis (or guard) bracket
    that grid leaves undecided, lower < threshold <= upper, is refined once
    by _brackets. InputError when a derived coefficient or value overflows.
    """
    spec = spec if spec is not None else GridSpec()
    r_max = require_real(r_max, lambda r: 0.0 < r < 1.0, "r_max must lie in (0, 1)", InputError)
    n = f.n
    thr = threshold(theorem, params, n)
    bound = _conclusion_bound(theorem, params)
    hyp_fun, _, conclusion = _RULES[theorem]
    a = f.body.coeffs[None]
    hyp_rows = _polynomial_coeffs(hyp_fun, a, complex(params.beta))
    polys, values, points, _ = _conclusion_scan(conclusion, a, r_max, spec, abs, hyp_rows, _center(conclusion, bound))
    # rows: the hypothesis, then a polynomial conclusion, which inf never refines;
    # the bound rejects a non-finite grid
    lowers, uppers = _brackets(polys, r_max, values[: len(polys)], [thr, math.inf][: len(polys)], spec)
    hyp = SupBracket(float(lowers[0]), float(uppers[0]), r_max, BracketKind.CERTIFIED)
    lower, z = values[-1].item(), points[-1].item()
    concl = None
    if lower == lower:  # nan for a failed guard or a singular point
        kind = BracketKind.CERTIFIED if len(polys) > 1 else BracketKind.GRID_ONLY
        concl = SupBracket(lower, float(uppers[-1]) if len(polys) > 1 else math.inf, r_max, kind)
    return CheckReport(theorem=theorem, params=params, n=n, r_max=r_max, hyp=hyp, hyp_threshold=thr, concl=concl,
                       concl_bound=bound, verdict=_verdict(hyp.upper < thr, lower, z, bound, thr - hyp.upper))


#: Absolute room _conclusion_caps adds to each cap beside its _SUM_SLACK
#: relative room, for a grid value whose rounding is more than 2^-20 of a
#: tiny cap.
_CAP_ROOM = 2.0**-40


@np.errstate(all="ignore")
def _conclusion_caps(conclusion, a: np.ndarray, bound: float, r: float) -> np.ndarray:
    """Certified upper bounds on check's conclusion value |q - c| = |N/D|
    (_ratio_rows, c = _center) of every row a[i] of series coefficients over
    |z| <= r, from the coefficient sums S(p) = _coeff_sums(p, r) >= sup |p|
    and g = S(D - 1): S(N)/(1 - g), as |D| >= 1 - g, and for 1/f'
    |1/(1 - g^2) - c| + g/(1 - g^2), as 1/D lies in the disk of that center
    and radius; inf where g > 1/2. Every cap gets _SUM_SLACK relative and
    _CAP_ROOM absolute room, so that it also bounds the rounded grid values
    of _conclusion_scan."""
    # the 1/f' cap needs g alone, so its N = 1 - c f' is never formed
    num, den = ((None, _derivative_coeffs(a)) if conclusion is _Quotient.RECIPROCAL
                else _ratio_rows(conclusion, a, _center(conclusion, bound)))
    if den is _ONE:  # g = 0
        return _coeff_sums(num, r) * (1.0 + _SUM_SLACK) + _CAP_ROOM
    g = _coeff_sums(den - np.eye(1, den.shape[-1]), r)
    cap = (np.abs(1.0 / (1.0 - g * g) - bound) + g / (1.0 - g * g) if conclusion is _Quotient.RECIPROCAL
           else _coeff_sums(num, r) / (1.0 - g))
    return np.where(g <= 0.5, cap, np.inf) * (1.0 + _SUM_SLACK) + _CAP_ROOM


def _certified_rows(theorem: Theorem, a: np.ndarray, params: Params, thr: float, spec: GridSpec, r_max: float):
    """Which of the functions with series coefficient rows a check certainly
    decides Holds, and their cap margins bound - cap, as two row arrays,
    against the hypothesis threshold thr (threshold's value for the rows'
    class index, which validates the parameters). A row is sure when _below
    certifies its hypothesis, as check's bracket decides it, and its
    _conclusion_caps cap, which bounds every grid value of the conclusion
    and is finite only where the guard sum g <= 1/2, is below the bound.
    A sure row's margin is then at most check's on any grid."""
    bound = _conclusion_bound(theorem, params)
    hyp_fun, _, conclusion = _RULES[theorem]
    caps = _conclusion_caps(conclusion, a, bound, r_max)
    sure = _below(_polynomial_coeffs(hyp_fun, a, complex(params.beta)), r_max, thr, spec) & (caps < bound)
    return sure, bound - caps


class FunctionClass(Enum):
    STARLIKE = "star"          # Re(z f'/f) > alpha
    BOUNDED_TURNING = "c"      # Re(f') > alpha
    CONVEX = "k"               # Re(1 + z f''/f') > alpha


@np.errstate(all="ignore")
def _positive(num: np.ndarray, den: np.ndarray, top: np.ndarray, bottom, alpha: float, r: float,
              spec: GridSpec) -> bool:
    """Whether T = Re((N - alpha D) conj(D)) = Re(N conj(D)) - alpha |D|^2 > 0
    on all of |z| = r is certified, from the coefficient rows num and den of
    N and D (den may be _ONE) and their spec.m-point grids top and bottom
    (1.0 for D = 1). T is a real trigonometric polynomial of degree at most
    d = max(deg N, deg D), taken from the row lengths, so
    min T >= min_j T_j - e over its m samples T_j, with e the smaller of
    - the sec correction (sec(pi d / m) - 1)(max_j T_j - min_j T_j)/2 for
      m > 2d: the sampling inequality of _sup_upper for e^{i d theta}(T - c),
      of degree 2d, c the midpoint of the samples;
    - the Lipschitz pad L pi / m, L = S1(N) S(D) + S(N) S1(D) +
      2 alpha S(D) S1(D) >= |dT/dtheta|, S = sum_k |c_k| r^k and
      S1 = sum_k k |c_k| r^k.
    When that leaves T undecided and every T_j > 0, T is sampled once more,
    on the smallest grid m 2^j whose e, from the first samples, would
    decide, at most max(2m, 8 (d + 1)) and _MAX_GRID_M."""
    d = max(num.shape[-1], den.shape[-1]) - 1  # T's degree is at most this

    @cache
    def lip():  # >= |dT/dtheta|, needed only where sec does not decide
        moduli = np.abs(_stacked(num, den)) * _powers(r, d + 1)
        (s, sd), (s1, s1d) = moduli.sum(axis=-1), moduli @ np.arange(d + 1)
        return s1 * sd + s * s1d + 2.0 * alpha * sd * s1d

    def lowest(t, m):  # a certified lower bound on min T from its samples t on the m-point grid
        low = t.min()
        half = (t.max() - low) / 2
        sec = low - (_sec_bound(half, 2 * d, m) - half)
        return sec if sec > 0 else max(sec, low - lip() * math.pi / m)

    t = ((top - alpha * bottom) * np.conj(bottom)).real
    sure = lowest(t, spec.m) > 0
    if not sure and t.min() > 0:
        fine, cap = 2 * spec.m, min(_MAX_GRID_M, max(2 * spec.m, 8 * (d + 1)))
        while fine <= cap and not lowest(t, fine) > 0:
            fine *= 2
        if fine <= cap:
            top, bottom = _circle_rows(_stacked(num, den), r, fine)
            sure = lowest(((top - alpha * bottom) * np.conj(bottom)).real, fine) > 0
    return bool(sure)


def membership(which: FunctionClass, f: SeriesA, alpha: float, spec: GridSpec | None = None,
               r_max: float = 0.999) -> Verdict:
    """Verdict on class membership of order alpha on the disk |z| <= r_max.

    The class quantity q is scanned as N/D (_ratio_rows with c = 0) behind
    check's guard sup |D - 1| < 1; a failed guard or a singular D yields
    Inconclusive (the latter with the singular point as witness). Behind the
    guard q is analytic on the closed disk, so its real part is harmonic
    there and takes its minimum on the circle |z| = r_max (minimum
    principle): only that circle is scanned. Fails when a grid sample has
    Re q <= alpha, with that point as witness. Holds only when the sign test
    _positive certifies T = Re(N conj(D)) - alpha |D|^2 > 0 on the circle,
    which is Re q > alpha as |D| > 0 there; else Inconclusive.
    hypothesis_margin stays None, and conclusion_margin is the grid
    min Re q - alpha: check's verdict rule on the one conclusion row
    max(-Re q) < -alpha, its margin -alpha - max(-Re q).
    """
    spec = spec if spec is not None else GridSpec()
    r_max = require_real(r_max, lambda r: 0.0 < r < 1.0, "r_max must lie in (0, 1)", InputError)
    # The message shows alpha as given when it is not a number, else as a float.
    alpha = require_real(alpha, None, f"membership needs 0 <= alpha < 1, got {alpha}", ParameterError)
    require_real(alpha, lambda a: 0.0 <= a < 1.0, f"membership needs 0 <= alpha < 1, got {alpha}", ParameterError)

    if not isinstance(which, FunctionClass):
        raise InputError(f"unknown function class {which!r}")
    a = f.body.coeffs[None]
    _, values, points, ratio = _conclusion_scan(_Quotient[which.name], a, r_max, spec, lambda q: -q.real,
                                                a[:0, :0], 0.0)
    value = values.item()
    # a grid sample at or below alpha, or an unknown value, decides without the sign test
    sure = not value < -alpha or _positive(*ratio, alpha, r_max, spec)
    return _verdict(sure, value, points.item(), -alpha, None)


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


#: Newton steps jack_probe takes at most in each basin.
_POLISH_STEPS = 12
#: Highest degree that _polish_basins evaluates as one block. A first step
#: from 3 points took 18 us as one block and 21 us by blocks at K = 512, and
#: 28 against 24 us at K = 1024 (timeit, 2-CPU VM).
_BLOCKS_FROM = 768


@np.errstate(all="ignore")
def _polish_basins(rows: np.ndarray, r: float, starts: list, dt: float) -> list:
    """Safeguarded Newton steps on Im(z w'/w) = 0, the stationarity condition
    of log |w| along |z| = r, from all start angles in lockstep; each step
    evaluates rows, the coefficients of w, w' and w'' (shape (3, K+1)), at
    the moving points by blocks of b coefficients,
    c_0 + sum_j (z^b)^j sum_(0 < i <= b) c_(bj+i) z^i: one block of b = K up
    to _BLOCKS_FROM, else b = isqrt(K) + 1, so the cumulative products of z^i
    and z^(bj) take about 2b sequential steps instead of K. Each
    basin keeps an angle bracket, at first its start +- dt, and closes it at
    each point on the side that |w| falls towards. A step that is not the
    Newton step of a maximum inside the bracket is replaced by the bracket's
    midpoint. A basin stops when its ratio is real to 1e-15 or its next
    point, or its Newton step, no longer moves it. Returns (|w|, z, w, w',
    w'') at each basin's last point."""
    ends, brackets, thetas = [None] * len(starts), [[t - dt, t + dt] for t in starts], list(starts)
    live, step = list(range(len(starts))), 0
    K = rows.shape[-1] - 1
    b = K if K <= _BLOCKS_FROM else math.isqrt(K) + 1
    blocks = np.zeros((len(rows), -(-K // b) * b), dtype=np.complex128)
    blocks[:, :K] = rows[:, 1:]
    blocks = blocks.reshape(len(rows), -1, b)  # c_(bj+i) at [:, j, i - 1]
    while live:
        zs = [_circle_point(r, thetas[i]) for i in live]
        powers = np.cumprod(np.repeat(np.array(zs)[:, None], b, axis=1), axis=1)  # z^i, 0 < i <= b
        sums = blocks @ powers.T
        values = rows[:, :1] + sums[:, 0]
        if blocks.shape[1] > 1:  # the blocks j > 0 times z^(bj)
            high = np.cumprod(np.repeat(powers[:, -1:], blocks.shape[1] - 1, axis=1), axis=1)
            values += (sums[:, 1:] * high.T).sum(axis=1)
        moving = []
        for i, z, (w0, v1, v2) in zip(live, zs, values.T.tolist()):
            t, bracket, ends[i] = thetas[i], brackets[i], (abs(w0), z, w0, v1, v2)
            ratio = z * v1 / w0 if abs(w0) >= 1e-280 else 0j
            if step == _POLISH_STEPS or abs(ratio.imag) <= 1e-15 * (1.0 + abs(ratio)):
                continue
            bracket[ratio.imag > 0] = t
            slope = (ratio + z * z * v2 / w0 - ratio * ratio).real
            trial = t - ratio.imag / slope if slope > 1e-9 * (1.0 + abs(ratio) ** 2) else math.nan
            thetas[i] = trial if bracket[0] < trial < bracket[1] else 0.5 * (bracket[0] + bracket[1])
            if t != trial and t != thetas[i]:
                moving.append(i)
        live, step = moving, step + 1
    return ends


def jack_probe(w: PolySeries, n: int, r: float, spec: GridSpec | None = None) -> JackReport:
    """Locate the argmax of |w| on |z| = r and report the boundary ratios.

    Requires w(0) = 0 with leading index (first nonzero coefficient) at
    least n, and w not identically zero. |w| is scanned on the smallest grid
    m 2^j > 2 (K + 1), K the degree of w, at most _MAX_GRID_M, by one
    _circle_rows call. Of that grid, the 3 best samples, each at least 3
    samples from those before, that are grid peaks are polished by
    _polish_basins, and the point of largest |w| is reported, so its ratio is
    real to roundoff. Each basin stays within one grid step of its sample; a
    grid that is not aliased keeps the highest peak in reach. refine_depth
    plays no part.
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
    with np.errstate(all="ignore"):
        d1 = require_finite(_derivative_coeffs(c), "the derivative of w")
        d2 = require_finite(_derivative_coeffs(d1), "the second derivative of w")
    m = spec.m
    while m <= 2 * nonzero[-1] + 2 and 2 * m <= _MAX_GRID_M:
        m *= 2
    vals, starts = np.abs(_circle_rows(c[None], r, m)[0]), []
    grid = vals.copy()
    for _ in range(3):
        starts.append(int(vals.argmax()))
        np.put(vals, range(starts[-1] - 2, starts[-1] + 3), -np.inf, mode="wrap")
    dt = 2.0 * math.pi / m
    peaks = [dt * i for i in starts if not grid[i] < np.maximum(grid[i - 1], grid[(i + 1) % m])]
    rows = _stacked(c[None], d1[None], d2[None])
    _, z0, w0, v1, v2 = max(_polish_basins(rows, r, peaks, dt), key=lambda p: p[0])
    _require_nonsingular(z0, w0, DEFAULT_DENOM_FLOOR)
    _require_nonsingular(z0, v1, DEFAULT_DENOM_FLOOR)
    return JackReport(r=r, z0=z0, ratio=z0 * v1 / w0, n=n, curvature_check=(z0 * v2 / v1).real + 1.0)
