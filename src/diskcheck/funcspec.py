"""Read and write the JSON function files the command line accepts, those
of the witnesses (witnesses.py) among them; only SeriesA loads numpy.

Format: {"n": 1, "coeffs": [[re, im], ...]} where coeffs lists the tail
a_{n+1}, a_{n+2}, ... of f(z) = z + a_{n+1} z^{n+1} + ... An empty coeffs
list denotes the identity f(z) = z.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from types import SimpleNamespace

from .errors import InputError, ParameterError, _require_degree, require_int, require_real

__all__ = ["function_to_dict", "function_from_dict", "load_function"]


class Witness(Enum):
    EX1 = "ex1"
    EX2 = "ex2"
    EX3 = "ex3"


def _witness_coefficient(which: Witness, n: int, alpha: float) -> float:
    require_int(n, 1, "class index n must be a positive integer", ParameterError)
    alpha = require_real(alpha, math.isfinite, "alpha must be finite", ParameterError)
    if which is Witness.EX1:
        if not (0.0 <= alpha < 1.0):
            raise ParameterError(f"ex1 needs 0 <= alpha < 1, got {alpha}")
        return (1.0 - alpha) / (n + 1 - alpha)
    if which is Witness.EX2:
        if not (0.0 <= alpha < 1.0):
            raise ParameterError(f"ex2 needs 0 <= alpha < 1, got {alpha}")
        return (1.0 - alpha) / (n + 1)
    if which is Witness.EX3:
        if not (0.0 < alpha <= 0.5):
            raise ParameterError(f"ex3 needs 0 < alpha <= 1/2, got {alpha}")
        return alpha / (n + 1)
    raise InputError(f"unknown witness {which!r}")


def _witness_dict(which: Witness, n: int, alpha: float) -> dict:
    """function_to_dict of make_witness(which, n, alpha), with the same
    checks and messages, built without numpy."""
    tail = [complex(_witness_coefficient(which, n, alpha))]
    _require_degree(n, len(tail))
    return function_to_dict(SimpleNamespace(n=int(n), tail=tail))


def function_to_dict(f) -> dict:
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


def function_from_dict(obj):
    """Build a normalized SeriesA, naming the offending field on bad input;
    every field is checked before the numeric modules load."""
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
    from .series import SeriesA

    return SeriesA.from_tail(n, tail)


def load_function(path):
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
