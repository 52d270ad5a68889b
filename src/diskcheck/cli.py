"""Command-line front end emitting machine-readable JSON reports.

Subcommands: check, membership, example, falsify, radius. Exit codes are
0 = Holds, 1 = Fails, 2 = Inconclusive, 3 = input or parameter error or
an internal error, so that a crash never reads as a verdict.
Every report envelope carries the tool version, a schema version and every
option of the subcommand in parser order, `beta` parsed; `example` instead
prints a bare function spec file so it can be piped straight back into `check`.
Each subcommand parses `--beta` before it reads its input file, and imports
the numeric modules it needs only after both are validated, so bad input
exits before numpy loads; `example` loads none.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys

from . import __version__
from .errors import InputError, require_complex
from .funcspec import Witness, _witness_dict, load_function

__all__ = ["main", "parse_beta"]

TOOL_NAME = "diskcheck"
SCHEMA_VERSION = 1
EXIT_ERROR = 3

_STATE_EXIT = {"holds": 0, "fails": 1, "inconclusive": 2}
# checks.Theorem and checks.FunctionClass, spelled out so that parsing
# arguments loads no numeric module
_THEOREM_CHOICES = ["lem11", "lem12", "thm1", "cor1", "thm2", "lem3", "thm3"]
_CLASS_CHOICES = ["star", "c", "k"]
_WITNESS_CHOICES = [w.value for w in Witness]


def parse_beta(text: str) -> complex:
    """Parse complex literals like '0.5', '-1', '2i', '1+2i', '1.5-0.25i'; only
    a final i (the imaginary unit) reads as j, so 'inf' stays infinite."""
    cleaned = re.sub(r"i(?=[)\s]*$)", "j", text.strip().replace(" ", "").lower())
    if not cleaned:
        raise InputError("empty beta literal")
    value = require_complex(cleaned, None, f"cannot parse beta literal {text!r}", InputError)
    return require_complex(value, cmath.isfinite, f"beta must be finite, got {text!r}", InputError)


def _pair(z: complex | None):
    return None if z is None else [z.real, z.imag]


def _finite_or_none(x: float | None):
    if x is None or not math.isfinite(x):
        return None
    return x


def _bracket_dict(b):
    if b is None:
        return None
    return {
        "lower": b.lower,
        "upper": _finite_or_none(b.upper),
        "r": b.r,
        "kind": b.kind.value,
    }


def _verdict_dict(v) -> dict:
    return {
        "state": v.state.value,
        "hypothesis_margin": v.hypothesis_margin,
        "conclusion_margin": v.conclusion_margin,
        "witness": _pair(v.witness),
    }


def _check_report_dict(rep) -> dict:
    return {
        "theorem": rep.theorem.value,
        "n": rep.n,
        "alpha": rep.params.alpha,
        "beta": _pair(rep.params.beta),
        "rho": rep.params.rho,
        "r_max": rep.r_max,
        "hypothesis": _bracket_dict(rep.hyp),
        "hypothesis_threshold": rep.hyp_threshold,
        "conclusion": _bracket_dict(rep.concl),
        "conclusion_bound": rep.concl_bound,
        "verdict": _verdict_dict(rep.verdict),
        "witness": _pair(rep.verdict.witness),
    }


def _falsify_dict(s) -> dict:
    return {
        "theorem": s.theorem.value,
        "n": s.n,
        "alpha": s.params.alpha,
        "beta": _pair(s.params.beta),
        "rho": s.params.rho,
        "trials": s.config.trials,
        "seed": s.config.seed,
        "margin": s.config.margin,
        "tail_len": s.config.tail_len,
        "r_max": s.config.r_max,
        "holds": s.holds,
        "inconclusive": s.inconclusive,
        "fails": s.fails,
        "min_conclusion_margin": s.min_conclusion_margin,
        "counterexamples": list(s.counterexamples),
    }


def _radius_dict(rep) -> dict:
    return {
        "theorem": rep.theorem.value,
        "r_star": rep.r_star,
        "iterations": rep.iterations,
        "bracket_width": rep.bracket_width,
        "status": rep.status,
        "saturated": rep.status == "saturated",
    }


def _parameters(args) -> dict:
    """Every option of the subcommand in parser order, with beta parsed."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    if "beta" in parameters:
        parameters["beta"] = _pair(parse_beta(args.beta))
    return parameters


def _envelope(command: str, parameters: dict, result) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "result": result,
    }


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_check(args) -> int:
    beta = parse_beta(args.beta)
    f = load_function(args.input)
    from .bounds import GridSpec
    from .checks import Params, Theorem, check

    params = Params(alpha=args.alpha, beta=beta, rho=args.rho)
    spec = GridSpec(m=args.grid_m)
    rep = check(Theorem(args.theorem), f, params, spec, args.rmax)
    _emit(_envelope("check", _parameters(args), _check_report_dict(rep)))
    return _STATE_EXIT[rep.verdict.state.value]


def _cmd_membership(args) -> int:
    f = load_function(args.input)
    from .bounds import GridSpec
    from .checks import FunctionClass, membership

    spec = GridSpec(m=args.grid_m)
    parameters = _parameters(args)
    verdict = membership(FunctionClass(parameters["class"]), f, args.alpha, spec, args.rmax)
    result = {
        "class": parameters["class"],
        "alpha": args.alpha,
        "r_max": args.rmax,
        "verdict": _verdict_dict(verdict),
    }
    _emit(_envelope("membership", parameters, result))
    return _STATE_EXIT[verdict.state.value]


def _cmd_example(args) -> int:
    _emit(_witness_dict(Witness(args.id), args.n, args.alpha))
    return 0


def _cmd_falsify(args) -> int:
    beta = parse_beta(args.beta)
    from .bounds import GridSpec
    from .checks import Params, Theorem
    from .witnesses import FalsifyConfig, falsify

    params = Params(alpha=args.alpha, beta=beta, rho=args.rho)
    cfg = FalsifyConfig(
        trials=args.trials,
        seed=args.seed,
        margin=args.margin,
        tail_len=args.tail_len,
        r_max=args.rmax,
    )
    spec = GridSpec(m=args.grid_m)
    summary = falsify(Theorem(args.theorem), args.n, params, cfg, spec)
    _emit(_envelope("falsify", _parameters(args), _falsify_dict(summary)))
    return 0 if summary.fails == 0 else 1


def _cmd_radius(args) -> int:
    beta = parse_beta(args.beta)
    f = load_function(args.input)
    from .checks import Params, Theorem
    from .witnesses import radius_of_validity

    params = Params(alpha=args.alpha, beta=beta, rho=args.rho)
    rep = radius_of_validity(Theorem(args.theorem), f, params)
    _emit(_envelope("radius", _parameters(args), _radius_dict(rep)))
    return 0


class _Parser(argparse.ArgumentParser):
    # bad flags are input errors, not the usual argparse exit code 2
    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog=TOOL_NAME, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pc = sub.add_parser("check", help="verify one theorem instance")
    pc.add_argument("--theorem", required=True, choices=_THEOREM_CHOICES)
    pc.add_argument("--alpha", type=float, default=0.0)
    pc.add_argument("--beta", default="0+0i")
    pc.add_argument("--rho", type=float, default=None)
    pc.add_argument("--input", required=True, help="function spec JSON file")
    pc.add_argument("--rmax", type=float, default=0.999)
    pc.add_argument("--grid-m", type=int, default=4096, dest="grid_m")
    pc.set_defaults(func=_cmd_check)

    pm = sub.add_parser("membership", help="certified class membership verdict")
    pm.add_argument("--class", required=True, choices=_CLASS_CHOICES, dest="class")
    pm.add_argument("--alpha", type=float, default=0.0)
    pm.add_argument("--input", required=True)
    pm.add_argument("--rmax", type=float, default=0.999)
    pm.add_argument("--grid-m", type=int, default=4096, dest="grid_m")
    pm.set_defaults(func=_cmd_membership)

    pe = sub.add_parser("example", help="emit a sharp witness as a function spec")
    pe.add_argument("--id", required=True, choices=_WITNESS_CHOICES)
    pe.add_argument("--n", type=int, default=1)
    pe.add_argument("--alpha", type=float, default=0.0)
    pe.set_defaults(func=_cmd_example)

    pf = sub.add_parser("falsify", help="randomized soundness search")
    pf.add_argument("--theorem", required=True, choices=_THEOREM_CHOICES)
    pf.add_argument("--n", type=int, default=1)
    pf.add_argument("--alpha", type=float, default=0.0)
    pf.add_argument("--beta", default="0+0i")
    pf.add_argument("--rho", type=float, default=None)
    pf.add_argument("--trials", type=int, default=1000)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--margin", type=float, default=0.9)
    pf.add_argument("--tail-len", type=int, default=6, dest="tail_len")
    pf.add_argument("--rmax", type=float, default=0.999)
    pf.add_argument("--grid-m", type=int, default=512, dest="grid_m")
    pf.set_defaults(func=_cmd_falsify)

    pr = sub.add_parser("radius", help="bisect the certified subdisk scale")
    pr.add_argument("--theorem", required=True, choices=_THEOREM_CHOICES)
    pr.add_argument("--alpha", type=float, default=0.0)
    pr.add_argument("--beta", default="0+0i")
    pr.add_argument("--rho", type=float, default=None)
    pr.add_argument("--input", required=True)
    pr.set_defaults(func=_cmd_radius)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    except InputError as exc:  # covers ParameterError and file diagnostics
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"{TOOL_NAME}: error: internal error: {detail}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
