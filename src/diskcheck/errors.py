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
