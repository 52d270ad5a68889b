"""The differential expressions every sufficient-condition check measures.

Six of the eight functionals are polynomials in z whose coefficients follow
closed formulas from the series coefficients; the checks bound those
polynomial forms. The two quotients are rational and only support pointwise
evaluation. Both evaluation routes are kept independent on purpose:
``_polynomial_coeffs`` uses the symbolic coefficient formulas, while
``eval_functional`` assembles values from runtime derivatives, so each one
cross-checks the other.
"""

from __future__ import annotations

import cmath
from enum import Enum

import numpy as np

from .errors import InputError, SingularDenominatorError, require_complex
from .series import SeriesA, _points, require_finite

__all__ = [
    "Functional",
    "DEFAULT_DENOM_FLOOR",
    "eval_functional",
]

#: Quotients whose denominator modulus drops below this raise SingularDenominatorError.
DEFAULT_DENOM_FLOOR = 1e-12


class Functional(Enum):
    """Expressions of f, f', f'', f''' bounded or evaluated by the checkers."""

    DERIV_DEFECT = "deriv_defect"          # f'(z) - f(z)/z
    RATIO_DEFECT = "ratio_defect"          # f(z)/z - 1
    STAR_TEST = "star_test"                # z f'' - beta (f' - f/z)
    TURN_TEST = "turn_test"                # z f'' - beta (f' - 1)
    CONVEX_TEST = "convex_test"            # z^2 f''' + (2 - beta) z f''
    STAR_QUOTIENT = "star_quotient"        # z f'/f - 1
    CONVEX_QUOTIENT = "convex_quotient"    # z f''/f'
    DERIV_MINUS_ONE = "deriv_minus_one"    # f'(z) - 1


def _require_nonsingular(z, den, floor: float) -> None:
    """Raise if any denominator modulus falls below the floor, carrying the point."""
    bad = np.abs(den) < floor
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularDenominatorError(complex(np.asarray(z, dtype=np.complex128).ravel()[i]))


@np.errstate(all="ignore")
def _polynomial_coeffs(which: Functional, a: np.ndarray, beta: complex) -> np.ndarray:
    """Exact polynomial form of a functional for every row a[..., :] of
    series coefficients; one degree less than a. With a_k the coefficient of
    z^k in f, the result carries at z^(k-1):

        DERIV_DEFECT     (k - 1) a_k
        RATIO_DEFECT     a_k                   (k >= 2)
        STAR_TEST        (k - 1)(k - beta) a_k
        TURN_TEST        k (k - 1 - beta) a_k  (k >= 2)
        CONVEX_TEST      k (k - 1)(k - beta) a_k
        DERIV_MINUS_ONE  k a_k                 (k >= 2)

    The z^0 slot is identically zero because a_1 = 1. InputError when a
    coefficient overflows or which has no polynomial form."""
    k = np.arange(1, a.shape[-1])
    ak = a[..., 1:]
    if which is Functional.DERIV_DEFECT:
        out = (k - 1) * ak
    elif which is Functional.STAR_TEST:
        out = (k - 1) * (k - beta) * ak
    elif which is Functional.CONVEX_TEST:
        out = k * (k - 1) * (k - beta) * ak
    else:
        # the other three carry no factor k - 1, so their z^0 slot is set to zero
        if which is Functional.RATIO_DEFECT:
            out = ak.copy()
        elif which is Functional.TURN_TEST:
            out = k * (k - 1 - beta) * ak
        elif which is Functional.DERIV_MINUS_ONE:
            out = k * ak
        else:
            raise InputError(f"{which!r} has no polynomial form")
        out[..., 0] = 0.0
    return require_finite(out, f"the {which.value} coefficients")


def eval_functional(which: Functional, f: SeriesA, beta: complex = 0j, z=0j):
    """Pointwise value of a functional, assembled from runtime derivatives.

    z may be a scalar or an ndarray. Removable singularities at z = 0 never
    arise because f(z)/z is formed by coefficient shift rather than division;
    the genuine quotients guard their denominator and raise
    SingularDenominatorError below ``DEFAULT_DENOM_FLOOR``.
    """
    beta = require_complex(beta, None, f"beta not interpretable as a complex number: {beta!r}", InputError)
    require_complex(beta, cmath.isfinite, "beta must be finite", InputError)
    z = _points(z)
    d1 = f.derivative()
    if which is Functional.DERIV_DEFECT:
        return d1.eval(z) - f.divide_by_z().eval(z)
    if which is Functional.RATIO_DEFECT:
        return f.divide_by_z().eval(z) - 1.0
    if which is Functional.STAR_TEST:
        return z * d1.derivative().eval(z) - beta * (d1.eval(z) - f.divide_by_z().eval(z))
    if which is Functional.TURN_TEST:
        return z * d1.derivative().eval(z) - beta * (d1.eval(z) - 1.0)
    if which is Functional.CONVEX_TEST:
        d2 = d1.derivative()
        return z * z * d2.derivative().eval(z) + (2.0 - beta) * (z * d2.eval(z))
    if which is Functional.DERIV_MINUS_ONE:
        return d1.eval(z) - 1.0
    if which is Functional.STAR_QUOTIENT:
        den = f.divide_by_z().eval(z)
        _require_nonsingular(z, den, DEFAULT_DENOM_FLOOR)
        return d1.eval(z) / den - 1.0
    if which is Functional.CONVEX_QUOTIENT:
        den = d1.eval(z)
        _require_nonsingular(z, den, DEFAULT_DENOM_FLOOR)
        return z * d1.derivative().eval(z) / den
    raise InputError(f"unknown functional {which!r}")
