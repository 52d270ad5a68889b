"""Truncated complex power series on the unit disk.

Two value types: PolySeries, a plain dense polynomial, and SeriesA, the
normalized family f(z) = z + a_{n+1} z^{n+1} + ... that every checker
accepts. Both are immutable, so they are safe to share between threads.
No operation ever extends the truncation order implicitly.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import InputError, require_complex, require_int, require_real

__all__ = ["PolySeries", "SeriesA"]


def _points(z) -> np.ndarray:
    """z as an ndarray of complex points; InputError when it is not numeric."""
    try:
        return np.asarray(z, dtype=np.complex128)
    except (TypeError, ValueError):
        raise InputError("evaluation point not interpretable as complex numbers") from None


def _horner(coeffs, z: complex) -> complex:
    """Horner recursion in plain complex arithmetic; coeffs lowest degree first."""
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc


def _horner_rows(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner recursion for every polynomial c[..., :] (lowest degree first)
    at every point of z; the result has shape c.shape[:-1] + z.shape."""
    cz = np.moveaxis(c, -1, 0).reshape(c.shape[-1:] + c.shape[:-1] + (1,) * z.ndim)
    acc = np.full(c.shape[:-1] + z.shape, cz[-1])
    for k in range(c.shape[-1] - 2, -1, -1):
        acc *= z
        acc += cz[k]
    return acc


def _derivative_coeffs(c: np.ndarray) -> np.ndarray:
    """Termwise derivative of every polynomial c[..., :]; one degree less,
    except that a constant gives the zero constant."""
    if c.shape[-1] == 1:
        return np.zeros(c.shape, dtype=np.complex128)
    return c[..., 1:] * np.arange(1, c.shape[-1])


def _tail_coeffs(n: int, tail: np.ndarray) -> np.ndarray:
    """Coefficients of z + tail[..., 0] z^{n+1} + ... for every tail row."""
    coeffs = np.zeros(tail.shape[:-1] + (max(2, n + 1 + tail.shape[-1]),), dtype=np.complex128)
    coeffs[..., 1] = 1.0
    coeffs[..., n + 1 :] = tail
    return coeffs


def _coeff_array(coeffs) -> np.ndarray:
    try:
        arr = np.array(coeffs, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InputError(f"coefficients not interpretable as complex numbers: {exc}") from None
    if arr.ndim != 1 or arr.size == 0:
        raise InputError("coefficients must form a nonempty one-dimensional sequence")
    if not np.isfinite(arr).all():
        raise InputError("non-finite coefficient")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PolySeries:
    """Polynomial c_0 + c_1 z + ... + c_M z^M stored densely from index 0.

    The truncation order M is fixed at construction; trailing zero
    coefficients are allowed and never stripped.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _coeff_array(self.coeffs)
        object.__setattr__(self, "coeffs", arr)
        # plain-complex mirror for the fast scalar Horner path
        object.__setattr__(self, "_py", tuple(complex(c) for c in arr))

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __eq__(self, other):
        if not isinstance(other, PolySeries):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __repr__(self):
        return f"PolySeries({list(self.coeffs)!r})"

    def eval(self, z):
        """Evaluate by backward (Horner) recursion; z may be scalar or ndarray."""
        if isinstance(z, (int, float, complex)) and not isinstance(z, bool):
            zc = require_complex(z, cmath.isfinite, "non-finite evaluation point", InputError)
            return _horner(self._py, zc)
        zz = _points(z)
        if not np.isfinite(zz).all():
            raise InputError("non-finite evaluation point")
        acc = _horner_rows(self.coeffs, zz)
        if zz.ndim == 0:
            return complex(acc)
        return acc

    __call__ = eval

    def derivative(self) -> PolySeries:
        """Termwise derivative; the truncation order drops by one."""
        return PolySeries(_derivative_coeffs(self.coeffs))


@dataclass(frozen=True, eq=False)
class SeriesA:
    """Normalized series f(z) = z + a_{n+1} z^{n+1} + ... truncated at order M.

    n is the class index: the z^2 .. z^n coefficients vanish exactly, so the
    first admissible tail coefficient sits at z^{n+1}. Trailing truncation
    below z^{n+1} (a bare f(z) = z) is permitted.
    """

    n: int
    body: PolySeries

    def __post_init__(self):
        object.__setattr__(self, "n", require_int(self.n, 1, "class index n must be a positive integer"))
        c = self.body.coeffs
        if c.size < 2:
            raise InputError("series must carry the z coefficient")
        if c[0] != 0:
            raise InputError("constant term must be exactly 0")
        if c[1] != 1:
            raise InputError("z coefficient must be exactly 1")
        upto = min(self.n, c.size - 1)
        if upto >= 2 and np.any(c[2 : upto + 1] != 0):
            raise InputError(f"coefficients of z^2 .. z^{self.n} must vanish for class index {self.n}")

    @classmethod
    def from_tail(cls, n: int, tail=()) -> SeriesA:
        """Build z + tail[0] z^{n+1} + tail[1] z^{n+2} + ..."""
        n = require_int(n, 1, "class index n must be a positive integer")
        try:
            raw = np.asarray(tail)
            # numpy turns None into NaN, which would pass for a non-finite coefficient
            if raw.dtype == object and any(v is None for v in raw.flat):
                raise TypeError
            tail = np.atleast_1d(raw.astype(np.complex128))
        except (TypeError, ValueError):
            raise InputError("tail must be a sequence of complex numbers") from None
        if tail.ndim != 1:
            raise InputError("tail must be a sequence of complex numbers")
        return cls(n, PolySeries(_tail_coeffs(n, tail)))

    @property
    def tail(self) -> np.ndarray:
        """Coefficients a_{n+1}, a_{n+2}, ... (possibly empty)."""
        return self.body.coeffs[self.n + 1 :]

    def eval(self, z):
        return self.body.eval(z)

    __call__ = eval

    def derivative(self) -> PolySeries:
        return self.body.derivative()

    def divide_by_z(self) -> PolySeries:
        """f(z)/z as an exact coefficient shift; the constant term is 1."""
        return PolySeries(self.body.coeffs[1:])

    def scale_radius(self, r: float) -> SeriesA:
        """Subdisk restriction f_r(z) = f(r z)/r, which maps a_k to a_k r^(k-1).

        Stays inside the same class; r must lie in (0, 1].
        """
        r = require_real(r, lambda v: 0.0 < v <= 1.0, "scale radius must lie in (0, 1]", InputError)
        c = self.body.coeffs
        powers = np.float64(r) ** np.arange(-1, c.size - 1)
        scaled = c * powers
        scaled[0] = 0.0
        scaled[1] = c[1]
        return SeriesA(self.n, PolySeries(scaled))

    def to_zfprime(self) -> SeriesA:
        """The transform f -> z f'(z), which maps a_k to k a_k."""
        return SeriesA(self.n, PolySeries(self.body.coeffs * np.arange(self.body.coeffs.size)))

    def __eq__(self, other):
        if not isinstance(other, SeriesA):
            return NotImplemented
        return self.n == other.n and self.body == other.body

    def __hash__(self):
        return hash((self.n, self.body))
