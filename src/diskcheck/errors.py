"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np

__all__ = [
    "InputError",
    "ParameterError",
    "NotPolynomialError",
    "SingularDenominatorError",
]


class InputError(ValueError):
    """Invalid input: non-finite number, radius out of range, malformed file."""


class ParameterError(InputError):
    """A theorem parameter lies outside its admissible range."""


class NotPolynomialError(InputError):
    """A polynomial form was requested for a functional that is rational."""


class SingularDenominatorError(ArithmeticError):
    """A quotient's denominator fell below the modulus floor; carries the point."""

    def __init__(self, z: complex, message: str | None = None):
        self.z = complex(z)
        super().__init__(message or f"denominator modulus below floor near z = {self.z}")


def require_int(x, minimum: int, message: str, exc: type = InputError) -> int:
    """Return int(x) for a non-bool integer x >= minimum; else raise exc(message)."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < minimum:
        raise exc(message)
    return int(x)


def require_real(x, ok, message: str, exc: type) -> float:
    """Return float(x) when x converts to a float v and ok(v) holds (ok None
    accepts every float, NaN and infinities included); else raise exc(message)."""
    try:
        v = float(x)
    except (TypeError, ValueError, OverflowError):
        raise exc(message) from None
    if ok is not None and not ok(v):
        raise exc(message)
    return v


def require_complex(x, ok, message: str, exc: type) -> complex:
    """Return complex(x) when x converts to a complex v and ok(v) holds (ok
    None accepts every complex); else raise exc(message)."""
    try:
        v = complex(x)
    except (TypeError, ValueError, OverflowError):
        raise exc(message) from None
    if ok is not None and not ok(v):
        raise exc(message)
    return v


def require_finite(x, what: str):
    """Return x when every entry of it is finite; else raise InputError naming
    the overflow in what (inputs are finite, so a non-finite value overflowed)."""
    if not np.isfinite(x).all():
        raise InputError(f"float overflow in {what}")
    return x
