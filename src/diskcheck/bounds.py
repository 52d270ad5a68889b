"""Grid estimates and certified brackets for sup-moduli on circles and disks.

For analytic g the sup over the closed disk of radius r is attained on the
circle |z| = r (maximum principle), so a dense angular grid already gives a
true lower bound. Every polynomial grid comes from one FFT (_circle_rows;
Cooley & Tukey, Math. Comp. 19 (1965)); a check or membership call makes one
FFT over all of its rows, stacked by _stacked (a guard that its coefficient
sum cannot certify takes one more), and every bracket takes its lower bound
from the grid maximum alone (_circle_argopt); golden-section
refinement (_golden_argmax, GridSpec.refine_depth steps) serves only
circle_argmax, which locates a point. For a polynomial p whose last nonzero
coefficient is c_K, so of degree K, three certified upper bounds follow
from that grid maximum: the coefficient-modulus sum, the grid maximum
padded by a derivative Lipschitz bound over half the arc gap between
samples, and, for K < m, the sampling inequality

    max_{|z| = r} |p(z)| <= sec(pi K / (2 m)) * max_{0 <= j < m} |p(r e^{2 pi i j / m})|

(Frappier, Rahman & Ruscheweyh, "New inequalities for polynomials", Trans.
AMS 288 (1985); for trigonometric polynomials Ehlich & Zeller, Math. Z. 86
(1964)), applied to p(r z), whose coefficients are c_k r^k. Rational
functionals only get the grid lower bound.

GridSpec.m is the first grid. A hypothesis or guard row that it leaves
undecided, lower < bound <= upper, is refined once (_brackets): it goes
straight to the smallest grid m 2^j whose sec factor would decide it, at
most max(m, 8 (K + 1)) and _MAX_GRID_M, built from twisted copies of the
row on grids of max(m, fine / 8) points (_sub_grids), less the first grid.
jack_probe scans its one grid m 2^j > 2 (K + 1) by one _circle_rows call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import InputError, require_int, require_real
from .series import PolySeries, require_finite

__all__ = [
    "GridSpec",
    "BracketKind",
    "SupBracket",
    "circle_argmax",
    "poly_sup",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_TWO_PI = 2.0 * math.pi
#: Most angular samples a grid may have: one grid row then takes 16 MB.
_MAX_GRID_M = 2**20
#: Values one coefficient or grid array may hold, or one row (the block rule
#: of falsify and the _chunks of _below and _sub_grids): fewer numpy calls
#: are faster, and 32768 would break the memory bound of long tails.
_BLOCK_POINTS = 16384


@dataclass(frozen=True)
class GridSpec:
    """Angular sample count of circle scans, and the golden-section steps of
    circle_argmax, the only call that reads refine_depth."""

    m: int = 4096
    refine_depth: int = 3

    def __post_init__(self):
        object.__setattr__(self, "m", require_int(self.m, 16, "grid needs at least 16 angular samples"))
        if self.m > _MAX_GRID_M:
            raise InputError(f"grid needs at most {_MAX_GRID_M} angular samples")
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


def _golden_argmax(h, r: float, svals: np.ndarray, iters: int):
    """Maximum of a real objective h of the point on |z| = r, located from
    its values svals on the m-point grid (m = svals.size, from angle 0).

    The best grid sample is refined by `iters` golden-section contractions
    of the angle interval one grid step either side. Returns the best
    (value, theta) seen, so the value is at least the grid maximum.
    """
    m = svals.size
    dt = _TWO_PI / m
    i = int(svals.argmax())
    val, t = float(svals[i]), _TWO_PI * i / m

    def probe(x):
        nonlocal val, t
        f = h(_circle_point(r, x))
        if f > val:
            val, t = f, x
        return f

    if iters > 0:
        a, b = t - dt, t + dt
        x1, x2 = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
        f1, f2 = probe(x1), probe(x2)
        for _ in range(iters):
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + _INV_GOLDEN * (b - a)
                f2 = probe(x2)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - _INV_GOLDEN * (b - a)
                f1 = probe(x1)
    return val, t


def _circle_argopt(vals: np.ndarray):
    """Largest value of every row of vals (shape (rows, m), a real objective
    on the m-point grid r e^{2 pi i j / m}) and its grid index j, as two
    arrays of shape (rows,)."""
    j = vals.argmax(axis=-1)
    return vals[np.arange(len(j)), j], j


def circle_argmax(g, r: float, spec: GridSpec | None = None):
    """Lower bound for the true circle max of |g| over |z| = r and its
    location: the best of m grid samples plus refine_depth rounds of
    golden-section refinement around it. The brackets of poly_sup, check and
    membership take the grid maximum alone.

    g must accept both scalar complex arguments and ndarrays of them;
    singular-denominator errors raised by g propagate.
    """
    spec = spec if spec is not None else GridSpec()
    r = require_real(r, lambda v: 0.0 < v <= 1.0, "circle radius must lie in (0, 1]", InputError)
    h = lambda z: abs(g(z))  # noqa: E731
    val, t = _golden_argmax(h, r, np.asarray(h(r * _unit_circle(spec.m)), dtype=np.float64), spec.refine_depth)
    return val, _circle_point(r, t)


@lru_cache(maxsize=32)
def _powers(r: float, n: int) -> np.ndarray:
    """r^k for k < n, read-only and cached, so every call on one radius shares it."""
    powers = np.float64(r) ** np.arange(n)
    powers.setflags(write=False)
    return powers


def _chunks(items, width: int):
    """items in runs of max(1, _BLOCK_POINTS // width): rows of width values
    each, at most _BLOCK_POINTS values (or one row) a run."""
    step = max(1, _BLOCK_POINTS // width)
    return (items[i : i + step] for i in range(0, len(items), step))


@np.errstate(all="ignore")
def _coeff_sums(c: np.ndarray, r: float):
    """sum_k |c[..., k]| r^k for every polynomial row of c."""
    return np.sum(np.abs(c) * _powers(r, c.shape[-1]), axis=-1)


def _circle_rows(c: np.ndarray, r: float, m: int) -> np.ndarray:
    """Values of every polynomial row of c (shape (rows, K+1), lowest degree
    first) at the m points r e^{2 pi i j / m}, j = 0 .. m-1: shape (rows, m).

    The coefficients are scaled by r^k and, when K + 1 > m, folded mod m
    (z^m = 1 on the grid): the q = (K + 1) // m whole slices of m columns
    are summed, and the remaining columns added into the first ones. The
    values are then m * ifft along the last axis, one unnormalized inverse
    FFT (Cooley & Tukey, Math. Comp. 19 (1965)).
    """
    c = c * _powers(r, c.shape[-1])
    if c.shape[-1] > m:
        q = c.shape[-1] // m
        folded = c[:, : q * m].reshape(len(c), q, m).sum(axis=1)
        folded[:, : c.shape[-1] - q * m] += c[:, q * m :]
        c = folded
    return np.fft.ifft(c, n=m, axis=-1, norm="forward")


def _sub_grids(c: np.ndarray, r: float, m: int, fine: int) -> np.ndarray:
    """Values of the polynomial row c (shape (K+1,)) on the fine-point grid,
    fine = m 2^j > m, as its sub-grids s < d = fine / b of b = max(m, fine / 8)
    points: sub-grid s holds the values at r e^{2 pi i (s + d t) / fine}, t < b,
    the _circle_rows grid at b of the twisted row c_k e^{2 pi i k s / fine}.
    Sub-grid 0 is skipped exactly when b = m, as it is then c's own m-point
    grid. Built by _chunks of sub-grids."""
    b, k = max(m, fine // 8), np.arange(c.shape[-1])
    grids = [_circle_rows(c * np.take(_unit_circle(fine), np.outer(s, k), mode="wrap"), r, b)
             for s in _chunks(np.arange(int(b == m), fine // b), max(b, c.shape[-1]))]
    return grids[0] if len(grids) == 1 else np.concatenate(grids)


def _stacked(*parts) -> np.ndarray:
    """The rows of the coefficient arrays parts (shapes (rows_i, L_i)) as one
    array, each row zero-padded on the right to the longest length. Zero
    padding changes no _circle_rows value, so one call on the stack gives
    every part's grid bitwise as a call on that part alone does."""
    stack = np.zeros((sum(len(p) for p in parts), max(p.shape[-1] for p in parts)), dtype=np.complex128)
    start = 0
    for p in parts:
        stack[start : start + len(p), : p.shape[-1]] = p
        start += len(p)
    return stack


@np.errstate(all="ignore")
def _sup_rows(c: np.ndarray, r: float, spec: GridSpec):
    """Lower bounds on sup |p| over |z| <= r for every polynomial row p of c
    (shape (rows, M+1)): the _circle_argopt maxima of |p| on the rows'
    m-point _circle_rows grids and their grid indices, two arrays.
    """
    return _circle_argopt(np.abs(_circle_rows(c, r, spec.m)))


def _degrees(moduli: np.ndarray) -> np.ndarray:
    """The last nonzero index K of every row of moduli (shape (rows, L), the
    moduli of coefficient rows), so the row's degree; a zero row, whose
    every bound is 0, gets L - 1."""
    return moduli.shape[-1] - 1 - np.argmax(moduli[:, ::-1] > 0, axis=-1)


def _sec_bound(lower, degree, m: int):
    """sec(pi K / (2 m)) * lower where the degree K (one per row, or one for
    all) is below m, inf elsewhere."""
    return np.where(degree < m, lower / np.cos(np.pi * degree / (2 * m)), np.inf)


@np.errstate(all="ignore")
def _sup_upper(c: np.ndarray, r: float, lower, spec: GridSpec) -> np.ndarray:
    """Certified upper bounds on sup |p| over |z| <= r for the polynomial rows
    p of c (shape (rows, L)), given their _sup_rows grid maxima lower: the
    smallest of the coefficient sum, lower padded by a derivative Lipschitz
    bound over half the arc gap pi r / m, and, when K < m,
    sec(pi K / (2 m)) * lower, from the sampling inequality

        max_{|z| = r} |p| <= sec(pi K / (2 m)) * max_j |p(r e^{2 pi i j / m})|

    for deg p <= K < m (Frappier, Rahman & Ruscheweyh, Trans. AMS 288
    (1985); grid by FFT, Cooley & Tukey, Math. Comp. 19 (1965)). K is the
    row's last nonzero index, so trailing zeros do not loosen the bound. The
    bound is at least lower (the sum can round below it). InputError when
    one overflows.
    """
    lower = np.asarray(lower, dtype=np.float64)
    moduli = np.abs(c)
    powers = _powers(r, c.shape[-1])
    lip = np.sum(np.arange(1, c.shape[-1]) * moduli[:, 1:] * powers[:-1], axis=-1)
    upper = np.minimum(np.sum(moduli * powers, axis=-1), lower + lip * math.pi * r / spec.m)
    upper = np.minimum(upper, _sec_bound(lower, _degrees(moduli), spec.m))
    return require_finite(np.maximum(lower, upper), f"the sup on |z| = {r}")


def _brackets(c: np.ndarray, r: float, lower, bound, spec: GridSpec):
    """Brackets lower <= sup <= upper of the polynomial rows p of c (shape
    (rows, L)) over |z| <= r, from their _sup_rows grid maxima lower, against
    bound (a float, or one per row): two arrays. Every row gets its
    _sup_upper bound; a row that this leaves undecided, lower < bound <=
    upper, is refined once. It goes straight to the smallest grid
    fine = m 2^j whose sec bound would decide its first lower,
    sec(pi K / (2 fine)) * lower < bound (K its last nonzero index), at most
    max(m, 8 (K + 1)) and _MAX_GRID_M; past that cap its bracket stays as it
    is. The new lower is the largest of the first lower and the row's
    _sub_grids values, every fine-grid value outside the first grid, so it
    never falls; the new upper is the smaller of the first upper and
    sec(pi K / (2 fine)) times the new lower. A bound of inf refines no row."""
    upper = _sup_upper(c, r, lower, spec)
    undecided = ((lower < bound) & (bound <= upper)).nonzero()[0]
    if undecided.size:  # copy and broadcast only here: the common path stays as cheap as _sup_upper
        lower, bound = np.array(lower, dtype=np.float64), np.broadcast_to(bound, upper.shape)
    for i in undecided:
        degree = int(np.flatnonzero(c[i])[-1])
        fine, cap = 2 * spec.m, min(_MAX_GRID_M, max(spec.m, 8 * (degree + 1)))
        while fine <= cap and not _sec_bound(lower[i], degree, fine) < bound[i]:
            fine *= 2
        if fine <= cap:
            lower[i] = max(lower[i], np.abs(_sub_grids(c[i], r, spec.m, fine)).max())
            upper[i] = max(lower[i], min(upper[i], _sec_bound(lower[i], degree, fine)))
    return lower, upper


#: Relative room a coefficient sum must leave below a bound for _below to
#: accept it without a grid. The _sup_upper bound is at most that sum, or the
#: grid value when rounding puts it above the sum, and FFT rounding moves a
#: grid value by far less than this.
_SUM_SLACK = 2.0**-20


def _below(c: np.ndarray, r: float, bound: float, spec: GridSpec) -> np.ndarray:
    """Whether the certified sup of every polynomial row of c over |z| <= r
    lies strictly below bound: the decision of its _brackets upper, taken
    from the coefficient sum alone when that leaves _SUM_SLACK of room, else
    from grids of at most _BLOCK_POINTS values (or one row) at a time."""
    ok = _coeff_sums(c, r) < bound * (1.0 - _SUM_SLACK)
    for part in _chunks((~ok).nonzero()[0], max(spec.m, c.shape[-1])):
        ok[part] = _brackets(c[part], r, _sup_rows(c[part], r, spec)[0], bound, spec)[1] < bound
    return ok


def poly_sup(p: PolySeries, r: float, spec: GridSpec | None = None) -> SupBracket:
    """Certified bracket on sup of |p| over the closed disk of radius r.

    The lower bound is the largest grid value; the upper bound is the
    smallest of the coefficient-sum bound, the grid maximum padded
    by a derivative Lipschitz bound over half the arc gap pi r / m, and, for
    K < m, K the last nonzero index of p, the sampling inequality

        max_{|z| = r} |p| <= sec(pi K / (2 m)) * max_j |p(r e^{2 pi i j / m})|

    (Frappier, Rahman & Ruscheweyh, Trans. AMS 288 (1985)), whose grid
    values come from one FFT (Cooley & Tukey, Math. Comp. 19 (1965)).
    """
    spec = spec if spec is not None else GridSpec()
    r = require_real(r, lambda v: 0.0 < v <= 1.0, "circle radius must lie in (0, 1]", InputError)
    c = p.coeffs[None]
    lower, upper = _brackets(c, r, _sup_rows(c, r, spec)[0], math.inf, spec)
    return SupBracket(float(lower[0]), float(upper[0]), r, BracketKind.CERTIFIED)
