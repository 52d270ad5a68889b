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

from .errors import InputError, require_int, require_real
from .series import PolySeries

__all__ = [
    "DEFAULT_RADII",
    "GridSpec",
    "BracketKind",
    "SupBracket",
    "coeff_bound",
    "circle_max",
    "circle_argmax",
    "poly_sup",
    "disk_sup_profile",
]

#: Radius ladder approaching the boundary: 1 - 2^-1, ..., 1 - 2^-10.
DEFAULT_RADII = tuple(1.0 - 2.0**-k for k in range(1, 11))

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


def _golden_max(h, a: float, b: float, iters: int, best_val: float, best_x: float, tol: float = 0.0):
    """Golden-section shrink of [a, b], maximizing the scalar objective h.

    Runs interval contractions (one new evaluation each after the initial
    pair) until `iters` are done or b - a <= tol; tol = 0 means exactly
    `iters`. Returns the best value/point seen, so the result is always at
    least the incoming best.
    """
    if iters <= 0:
        return best_val, best_x
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1 = h(x1)
    f2 = h(x2)
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
            f2 = h(x2)
            if f2 > best_val:
                best_val, best_x = f2, x2
        else:
            b = x2
            x2, f2 = x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = h(x1)
            if f1 > best_val:
                best_val, best_x = f1, x1
        it += 1
    return best_val, best_x


def _refine_sample(hs, svals: np.ndarray, i: int, iters: int, tol: float):
    """_golden_max of the angle objective hs over one grid step either side of
    sample i of svals, the values of hs on an m-point grid starting at angle 0."""
    m = svals.size
    dt = _TWO_PI / m
    t0 = _TWO_PI * i / m
    return _golden_max(hs, t0 - dt, t0 + dt, iters, float(svals[i]), t0, tol)


def _circle_argopt(h, r: float, m: int, iters: int, *, minimize: bool = False, basins: int = 1,
                   tol: float = 0.0):
    """Grid extremum of a real objective over |z| = r plus golden refinement.

    h maps a circle point, or an ndarray of them, to real values. The best
    `basins` grid samples, each at least 3 samples from those picked before,
    are refined over one grid step either side by _golden_max(iters, tol);
    refining several separated basins protects against near-tied peaks
    picking the wrong one. Returns (value, theta).
    """
    sign = -1.0 if minimize else 1.0
    svals = sign * np.asarray(h(r * _unit_circle(m)), dtype=np.float64)
    hs = lambda t: sign * h(_circle_point(r, t))  # noqa: E731
    best_val, best_t = -math.inf, 0.0
    for k in range(basins):
        i = int(np.argmax(svals))
        val, t = _refine_sample(hs, svals, i, iters, tol)
        if val > best_val:
            best_val, best_t = val, t
        if k + 1 < basins:
            np.put(svals, range(i - 2, i + 3), -np.inf, mode="wrap")
    return sign * best_val, best_t


def circle_argmax(g, r: float, spec: GridSpec | None = None):
    """Grid maximum of |g| over |z| = r and its angular location.

    g must accept both scalar complex arguments and ndarrays of them;
    singular-denominator errors raised by g propagate.
    """
    spec = spec if spec is not None else GridSpec()
    r = require_real(r, lambda v: 0.0 < v <= 1.0, "circle radius must lie in (0, 1]", InputError)
    val, t = _circle_argopt(lambda z: abs(g(z)), r, spec.m, spec.refine_depth)
    return val, _circle_point(r, t)


def circle_max(g, r: float, spec: GridSpec | None = None) -> float:
    """Lower bound for the true circle max of |g|: best of m grid samples
    plus refine_depth rounds of golden-section refinement around it."""
    return circle_argmax(g, r, spec)[0]


def coeff_bound(p: PolySeries, r: float) -> float:
    """Coefficient-modulus bound sum |c_k| r^k, a certified disk sup bound."""
    r = require_real(r, lambda v: 0.0 < v <= 1.0, "circle radius must lie in (0, 1]", InputError)
    return float(_coeff_sums(p.coeffs, r))


def _coeff_sums(c: np.ndarray, r: float):
    """sum_k |c[..., k]| r^k for every polynomial row of c."""
    return np.sum(np.abs(c) * np.float64(r) ** np.arange(c.shape[-1]), axis=-1)


def _poly_sup_argmax(p: PolySeries, r: float, spec: GridSpec):
    lower, z0 = circle_argmax(p.eval, r, spec)
    if p.coeffs.size > 1:
        k = np.arange(1, p.coeffs.size)
        lip = float(np.sum(k * np.abs(p.coeffs[1:]) * np.float64(r) ** (k - 1)))
    else:
        lip = 0.0
    pad = lip * math.pi * r / spec.m
    upper = min(coeff_bound(p, r), lower + pad)
    if upper < lower:  # ulp-scale rounding in the coefficient sum
        upper = lower
    return SupBracket(lower, upper, r, BracketKind.CERTIFIED), z0


def poly_sup(p: PolySeries, r: float, spec: GridSpec | None = None) -> SupBracket:
    """Certified bracket on sup of |p| over the closed disk of radius r.

    The lower bound comes from the angular grid (plus refinement); the upper
    bound is the smaller of the coefficient-sum bound and the grid value
    padded by a derivative Lipschitz bound over half the arc gap pi r / m.
    """
    spec = spec if spec is not None else GridSpec()
    r = require_real(r, lambda v: 0.0 < v <= 1.0, "circle radius must lie in (0, 1]", InputError)
    return _poly_sup_argmax(p, r, spec)[0]


def disk_sup_profile(g, spec: GridSpec | None = None):
    """Circle maxima of |g| along DEFAULT_RADII, as (r, value) pairs.

    For analytic g the values must be nondecreasing in r (maximum
    principle); the property suite asserts this rather than assuming it.
    """
    spec = spec if spec is not None else GridSpec()
    return [(r, circle_max(g, r, spec)) for r in DEFAULT_RADII]
