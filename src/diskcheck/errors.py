"""Exception types shared across the package."""

from __future__ import annotations

import numbers

__all__ = [
    "InputError",
    "ParameterError",
    "SingularDenominatorError",
]


class InputError(ValueError):
    """Invalid input: non-finite number, radius out of range, malformed file."""


class ParameterError(InputError):
    """A theorem parameter lies outside its admissible range."""


class SingularDenominatorError(ArithmeticError):
    """A quotient's denominator fell below the modulus floor; carries the point."""

    def __init__(self, z: complex):
        self.z = complex(z)
        super().__init__(f"denominator modulus below floor near z = {self.z}")


#: Highest degree of a normalized series built from a class index and a tail.
_MAX_DEGREE = 2**16


def _require_degree(n: int, tail_len: int) -> None:
    """InputError when the degree n + tail_len of a normalized series exceeds
    _MAX_DEGREE."""
    if n + tail_len > _MAX_DEGREE:
        raise InputError(f"series degree must be at most {_MAX_DEGREE}, got {n + tail_len}")


def require_int(x, minimum: int, message: str, exc: type = InputError) -> int:
    """Return int(x) for a non-bool integer x >= minimum; else raise exc(message)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < minimum:
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
