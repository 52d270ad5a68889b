"""Certified numerical checks for coefficient conditions on the unit disk.

The package works with analytic functions normalized as
f(z) = z + a_{n+1} z^{n+1} + ... and verifies sufficient conditions of the
form  sup_{|z|<1} |z f''(z) - beta (f'(z) - f(z)/z)| < threshold  (and the
f' - 1 variant) that force f into a starlike, convex, or bounded turning
class of given order. Suprema are reported as certified brackets, the
sharp boundary examples are available as witnesses, and a seeded
randomized search plus a boundary maximum-principle probe round out the
tooling.
"""

__version__ = "0.1.0"

from .bounds import BracketKind, GridSpec, SupBracket, circle_argmax, poly_sup
from .checks import (
    CheckReport,
    FunctionClass,
    JackReport,
    Params,
    Theorem,
    Verdict,
    VerdictState,
    check,
    jack_probe,
    membership,
    threshold,
)
from .errors import InputError, ParameterError, SingularDenominatorError
from .funcspec import function_from_dict, function_to_dict, load_function
from .functionals import Functional, eval_functional
from .series import PolySeries, SeriesA
from .witnesses import (
    FalsifyConfig,
    FalsifySummary,
    RadiusReport,
    Witness,
    WitnessForms,
    falsify,
    make_witness,
    radius_of_validity,
    sample_satisfying,
    witness_closed_forms,
)

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
