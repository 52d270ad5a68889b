"""Grid estimates and certified brackets for sup-moduli on circles and disks.

For analytic g the sup over the closed disk of radius r is attained on the
circle |z| = r (maximum principle), so a dense angular grid already gives a
true lower bound. For polynomials two certified upper bounds are available:
the coefficient-modulus sum, and the best grid sample padded by a derivative
Lipschitz bound over half the arc gap between samples. Rational functionals
only get the grid lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InputError, require_finite, require_int, require_real
from .series import PolySeries, _horner, _horner_rows

__all__ = [
    "GridSpec",
    "BracketKind",
    "SupBracket",
    "coeff_bound",
    "circle_max",
    "circle_argmax",
    "poly_sup",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    """Angular sample count and refinement budget for circle scans."""

    m: int = 4096
    refine_depth: int = 3

    def __post_init__(self):
        object.__setattr__(self, "m", require_int(self.m, 16, "grid needs at least 16 angular samples"))
        depth = require_int(self.refine_depth, 0, "refine_depth must be a nonnegative integer")
        object.__setattr__(self, "refine_depth", depth)


class BracketKind(Enum):
    CERTIFIED = "certified"
    GRID_ONLY = "grid_only"


@dataclass(frozen=True)
class SupBracket:
    """Bracket lower <= sup <= upper for a sup-modulus on the disk of radius r.

    GRID_ONLY brackets carry upper = inf: the lower bound is a genuine sample
    value but no certified cap exists.
    """

    lower: float
    upper: float
    r: float
    kind: BracketKind

    def __post_init__(self):
        if not math.isfinite(self.lower):
            raise InputError("bracket lower bound must be finite")
        if not (0.0 <= self.lower <= self.upper):
            raise InputError("bracket must satisfy 0 <= lower <= upper")

    @property
    def width(self) -> float:
        return self.upper - self.lower


@lru_cache(maxsize=32)
def _unit_circle(m: int) -> np.ndarray:
    pts = np.exp(1j * (_TWO_PI * np.arange(m) / m))
    pts.setflags(write=False)
    return pts


def _circle_point(r: float, t: float) -> complex:
    return r * complex(math.cos(t), math.sin(t))


def _golden_max(h, r: float, a: float, b: float, iters: int, best_val: float, best_x: float, tol: float):
    """Golden-section shrink of the angle interval [a, b], maximizing the
    objective h of the point at that angle on |z| = r.

    Runs interval contractions (one new evaluation each after the initial
    pair) until `iters` are done or b - a <= tol; tol = 0 means exactly
    `iters`. Returns the best value/point seen, so the result is always at
    least the incoming best.
    """
    if iters <= 0:
        return best_val, best_x
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1 = h(_circle_point(r, x1))
    f2 = h(_circle_point(r, x2))
    if f1 > best_val:
        best_val, best_x = f1, x1
    if f2 > best_val:
        best_val, best_x = f2, x2
    it = 0
    while (b - a) > tol and it < iters:
        if f1 < f2:
            a = x1
            x1, f1 = x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = h(_circle_point(r, x2))
            if f2 > best_val:
                best_val, best_x = f2, x2
        else:
            b = x2
            x2, f2 = x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = h(_circle_point(r, x1))
            if f1 > best_val:
                best_val, best_x = f1, x1
        it += 1
    return best_val, best_x


def _circle_argopt(h, r: float, svals: np.ndarray, iters: int, *, basins: int = 1, tol: float = 0.0):
    """Maximum of a real objective over |z| = r from its values svals on the
    m-point grid (m = svals.size, starting at angle 0), refined by golden
    section over one grid step either side of the best sample.

    h maps a circle point to a real value. The best `basins` grid samples,
    each at least 3 samples from those picked before, are refined by
    _golden_max(iters, tol); refining several separated basins protects
    against near-tied peaks picking the wrong one. Returns (value, theta).
    """
    m = svals.size
    dt = _TWO_PI / m
    best_val, best_t = -math.inf, 0.0
    for k in range(basins):
        i = int(svals.argmax())
        t0 = _TWO_PI * i / m
        val, t = _golden_max(h, r, t0 - dt, t0 + dt, iters, float(svals[i]), t0, tol)
        if val > best_val:
            best_val, best_t = val, t
        if k + 1 < basins:  # mask this basin in a copy
            svals = svals.copy()
            np.put(svals, range(i - 2, i + 3), -np.inf, mode="wrap")
    return best_val, best_t


def circle_argmax(g, r: float, spec: GridSpec | None = None):
    """Grid maximum of |g| over |z| = r and its angular location.

    g must accept both scalar complex arguments and ndarrays of them;
    singular-denominator errors raised by g propagate.
    """
    spec = spec if spec is not None else GridSpec()
    r = require_real(r, lambda v: 0.0 < v <= 1.0, "circle radius must lie in (0, 1]", InputError)
    h = lambda z: abs(g(z))  # noqa: E731
    val, t = _circle_argopt(h, r, np.asarray(h(r * _unit_circle(spec.m)), dtype=np.float64), spec.refine_depth)
    return val, _circle_point(r, t)


def circle_max(g, r: float, spec: GridSpec | None = None) -> float:
    """Lower bound for the true circle max of |g|: best of m grid samples
    plus refine_depth rounds of golden-section refinement around it."""
    return circle_argmax(g, r, spec)[0]


def coeff_bound(p: PolySeries, r: float) -> float:
    """Coefficient-modulus bound sum |c_k| r^k, a certified disk sup bound."""
    r = require_real(r, lambda v: 0.0 < v <= 1.0, "circle radius must lie in (0, 1]", InputError)
    return float(_coeff_sums(p.coeffs, r))


@np.errstate(all="ignore")
def _coeff_sums(c: np.ndarray, r: float):
    """sum_k |c[..., k]| r^k for every polynomial row of c."""
    return np.sum(np.abs(c) * np.float64(r) ** np.arange(c.shape[-1]), axis=-1)


def _circle_rows(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Values of every polynomial row of c at the points z, shape (rows,) +
    z.shape. A single row takes the one-dimensional Horner loop, which is
    faster than its two-dimensional form and gives the same values."""
    if len(c) == 1:
        return _horner_rows(c[0], z)[None]
    return _horner_rows(c, z)


@np.errstate(all="ignore")
def _sup_rows(c: np.ndarray, r: float, spec: GridSpec):
    """Lower bounds on sup |p| over |z| <= r for every polynomial row p of c
    (shape (rows, M+1)): one (value, theta) pair a row, the _circle_argopt
    maximum from the row's m-point grid, refined on the scalar Horner
    recursion.
    """
    svals = np.abs(_circle_rows(c, r * _unit_circle(spec.m)))
    return [_circle_argopt(lambda z: abs(_horner(row, z)), r, svals[i], spec.refine_depth)
            for i, row in enumerate(c.tolist())]


@np.errstate(all="ignore")
def _sup_upper(c: np.ndarray, r: float, lower, spec: GridSpec) -> np.ndarray:
    """Certified upper bounds on sup |p| over |z| <= r for the polynomial rows
    p of c, given their _sup_rows values lower: the smaller of the coefficient
    sum and lower padded by a derivative Lipschitz bound over half the arc gap
    pi r / m, and at least lower (the sum can round below it). InputError when
    one overflows.
    """
    lower = np.asarray(lower, dtype=np.float64)
    moduli = np.abs(c)
    powers = np.float64(r) ** np.arange(c.shape[-1])
    lip = np.sum(np.arange(1, c.shape[-1]) * moduli[:, 1:] * powers[:-1], axis=-1)
    upper = np.maximum(lower, np.minimum(np.sum(moduli * powers, axis=-1), lower + lip * math.pi * r / spec.m))
    return require_finite(upper, f"the sup on |z| = {r}")


def _sup_bracket(c: np.ndarray, r: float, spec: GridSpec) -> SupBracket:
    """Certified bracket on sup |p| over |z| <= r for the one polynomial row
    p of c (shape (1, M+1))."""
    [(lower, _)] = _sup_rows(c, r, spec)
    return SupBracket(lower, float(_sup_upper(c, r, [lower], spec)[0]), r, BracketKind.CERTIFIED)


#: Relative room a coefficient sum must leave below a bound for _below to
#: accept it without a grid. The _sup_upper bound is that sum, or the grid
#: value when rounding puts it above the sum, and Horner rounding moves a grid
#: value by far less than this.
_SUM_SLACK = 2.0**-20


def _below(c: np.ndarray, r: float, bound: float, spec: GridSpec) -> np.ndarray:
    """Whether the certified sup of every polynomial row of c over |z| <= r
    lies strictly below bound: the decision of the _sup_upper bound, taken
    from the coefficient sum alone when that leaves _SUM_SLACK of room."""
    ok = _coeff_sums(c, r) < bound * (1.0 - _SUM_SLACK)
    rest = np.flatnonzero(~ok)
    if rest.size:
        lower = [value for value, _ in _sup_rows(c[rest], r, spec)]
        ok[rest] = _sup_upper(c[rest], r, lower, spec) < bound
    return ok


def poly_sup(p: PolySeries, r: float, spec: GridSpec | None = None) -> SupBracket:
    """Certified bracket on sup of |p| over the closed disk of radius r.

    The lower bound comes from the angular grid (plus refinement); the upper
    bound is the smaller of the coefficient-sum bound and the grid value
    padded by a derivative Lipschitz bound over half the arc gap pi r / m.
    """
    spec = spec if spec is not None else GridSpec()
    r = require_real(r, lambda v: 0.0 < v <= 1.0, "circle radius must lie in (0, 1]", InputError)
    return _sup_bracket(p.coeffs[None], r, spec)
