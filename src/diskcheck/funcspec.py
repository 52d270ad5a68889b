"""Read and write the JSON function files the command line accepts.

Format: {"n": 1, "coeffs": [[re, im], ...]} where coeffs lists the tail
a_{n+1}, a_{n+2}, ... of f(z) = z + a_{n+1} z^{n+1} + ... An empty coeffs
list denotes the identity f(z) = z.
"""

from __future__ import annotations

import json
import math

from .errors import InputError
from .series import SeriesA

__all__ = ["function_to_dict", "function_from_dict", "load_function"]


def function_to_dict(f: SeriesA) -> dict:
    return {
        "n": f.n,
        "coeffs": [[float(c.real), float(c.imag)] for c in f.tail],
    }


def _real_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise InputError(f"{where} overflows the float range") from None
    if not math.isfinite(value):
        raise InputError(f"{where} must be finite, got {value!r}")
    return value


def function_from_dict(obj) -> SeriesA:
    """Build a normalized series, naming the offending field on bad input."""
    if not isinstance(obj, dict):
        raise InputError("function spec must be a JSON object")
    if "n" not in obj:
        raise InputError("function spec missing field 'n'")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"field 'n' must be a positive integer, got {n!r}")
    if "coeffs" not in obj:
        raise InputError("function spec missing field 'coeffs'")
    raw = obj["coeffs"]
    if not isinstance(raw, list):
        raise InputError("field 'coeffs' must be a list of [re, im] pairs")
    tail = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError(f"coeffs[{i}] must be a [re, im] pair, got {pair!r}")
        re = _real_number(pair[0], f"coeffs[{i}][0]")
        im = _real_number(pair[1], f"coeffs[{i}][1]")
        tail.append(complex(re, im))
    return SeriesA.from_tail(n, tail)


def load_function(path) -> SeriesA:
    """Parse a function spec file; JSON and field errors become InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # not UTF-8, or an integer literal past Python's digit limit
        raise InputError(f"{path}: unreadable function spec: {exc}") from None
    return function_from_dict(obj)
