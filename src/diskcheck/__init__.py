"""Certified numerical checks for coefficient conditions on the unit disk.

The package works with analytic functions normalized as
f(z) = z + a_{n+1} z^{n+1} + ... and verifies sufficient conditions of the
form  sup_{|z|<1} |z f''(z) - beta (f'(z) - f(z)/z)| < threshold  (and the
f' - 1 variant) that force f into a starlike, convex, or bounded turning
class of given order. Suprema are reported as certified brackets, the
sharp boundary examples are available as witnesses, and a seeded
randomized search plus a boundary maximum-principle probe round out the
tooling.

The exports load on first use: `import diskcheck` imports no numeric
module, so a command-line run can reject bad input before numpy loads.
"""

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BracketKind",
    "CheckReport",
    "FalsifyConfig",
    "FalsifySummary",
    "FunctionClass",
    "Functional",
    "GridSpec",
    "InputError",
    "JackReport",
    "ParameterError",
    "Params",
    "PolySeries",
    "RadiusReport",
    "SeriesA",
    "SingularDenominatorError",
    "SupBracket",
    "Theorem",
    "Verdict",
    "VerdictState",
    "Witness",
    "WitnessForms",
    "check",
    "circle_argmax",
    "eval_functional",
    "falsify",
    "function_from_dict",
    "function_to_dict",
    "jack_probe",
    "load_function",
    "make_witness",
    "membership",
    "poly_sup",
    "radius_of_validity",
    "sample_satisfying",
    "threshold",
    "witness_closed_forms",
]


def __getattr__(name):
    """Load every export on the first use of any (PEP 562), bind them as
    plain attributes, and retire this hook."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import bounds, checks, errors, funcspec, functionals, series, witnesses

    g = globals()
    for module in (bounds, checks, errors, funcspec, functionals, series, witnesses):
        g.update((k, getattr(module, k)) for k in module.__all__ if k in __all__)
    g.pop("__getattr__", None)  # a second thread may have retired it already
    return g[name]
