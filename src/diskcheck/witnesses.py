"""Sharp witnesses, the randomized falsifier, and the radius bisection.

The three witnesses are single-coefficient functions z + c z^(n+1) whose
hypothesis sup meets its threshold exactly in the boundary limit r -> 1:

    ex1  c = (1-alpha)/(n+1-alpha)   sharp for the starlike check (thm1)
    ex2  c = (1-alpha)/(n+1)         sharp for the bounded-turning check (thm2),
                                     and for the upper branch of thm3
    ex3  c = alpha/(n+1)             sharp for the lower branch of thm3
                                     (0 < alpha <= 1/2)

Because a monomial's coefficient bound is attained on every circle, all of
their sups have closed forms, which anchors the bracket machinery.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import GridSpec, _coeff_sums, coeff_bound
from .checks import (
    HYPOTHESIS_FUNCTIONAL,
    _check_rows,
    CheckReport,
    Params,
    Theorem,
    VerdictState,
    check,
    threshold,
)
from .errors import InputError, ParameterError, require_complex, require_int, require_real
from .funcspec import function_to_dict
from .functionals import _polynomial_coeffs, as_polynomial
from .series import PolySeries, SeriesA, _tail_coeffs

__all__ = [
    "Witness",
    "WitnessForms",
    "FalsifyConfig",
    "FalsifySummary",
    "RadiusReport",
    "make_witness",
    "witness_closed_forms",
    "sample_satisfying",
    "falsify",
    "radius_of_validity",
]


#: Grid points one falsify block evaluates: a block holds max(1, 8192 // m) trials.
_BLOCK_POINTS = 8192


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


def make_witness(which: Witness, n: int, alpha: float) -> SeriesA:
    """The single-coefficient extremal function z + c z^(n+1)."""
    return SeriesA.from_tail(n, [_witness_coefficient(which, n, alpha)])


@dataclass(frozen=True)
class WitnessForms:
    """Closed-form circle sups of a witness's hypothesis and conclusion."""

    hyp_sup_on_circle: float
    concl_sup_on_circle: float


def witness_closed_forms(which: Witness, n: int, alpha: float, beta: complex, r: float) -> WitnessForms:
    """Exact sup values on |z| = r for the witness z + c z^(n+1).

    ex1 pairs the starlike hypothesis n c r^n |n+1-beta| with the quotient
    sup n c r^n / (1 - c r^n); ex2 and ex3 pair the turning hypothesis
    (n+1) c r^n |n-beta| with the derivative-defect sup (n+1) c r^n.
    """
    c = _witness_coefficient(which, n, alpha)
    beta = require_complex(beta, cmath.isfinite, "beta must be finite", InputError)
    r = require_real(r, lambda v: 0.0 < v < 1.0, "r must lie in (0, 1)", InputError)
    rn = r**n
    if which is Witness.EX1:
        return WitnessForms(
            hyp_sup_on_circle=n * c * rn * abs(n + 1 - beta),
            concl_sup_on_circle=n * c * rn / (1.0 - c * rn),
        )
    return WitnessForms(
        hyp_sup_on_circle=(n + 1) * c * rn * abs(n - beta),
        concl_sup_on_circle=(n + 1) * c * rn,
    )


@dataclass(frozen=True)
class FalsifyConfig:
    """Trial count, seed, hypothesis margin, tail length, and check radius."""

    trials: int = 1000
    seed: int = 0
    margin: float = 0.9
    tail_len: int = 6
    r_max: float = 0.999

    def __post_init__(self):
        trials = require_int(self.trials, 1, "trials must be a positive integer")
        seed = require_int(self.seed, 0, "seed must be a nonnegative integer")
        margin = require_real(self.margin, lambda v: 0.0 < v < 1.0, "margin must lie in (0, 1)", InputError)
        tail_len = require_int(self.tail_len, 0, "tail_len must be a nonnegative integer")
        r_max = require_real(self.r_max, lambda v: 0.0 < v < 1.0, "r_max must lie in (0, 1)", InputError)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "tail_len", tail_len)
        object.__setattr__(self, "r_max", r_max)


def sample_satisfying(
    theorem: Theorem,
    n: int,
    params: Params,
    cfg: FalsifyConfig,
    rng: np.random.Generator,
) -> SeriesA:
    """Draw a random tail and rescale it until the hypothesis provably holds.

    Tail coefficients are uniform in the complex box [-1, 1]^2. When the
    hypothesis polynomial's coefficient bound at radius 1 exceeds
    margin * threshold the whole tail is scaled down by that ratio, which is
    exact because the hypothesis coefficients are linear in the tail. The
    returned function therefore satisfies the hypothesis on the whole open
    disk with a certified margin. tail_len = 0 yields the identity.
    """
    return SeriesA(n, PolySeries(_sample_rows(theorem, n, params, cfg, [rng])[0]))


def _sample_rows(theorem: Theorem, n: int, params: Params, cfg: FalsifyConfig, rngs):
    """Series coefficient rows of the functions sample_satisfying draws, one
    tail from each generator of rngs, all rescaled at once."""
    target = cfg.margin * threshold(theorem, params, n)
    box = np.array([rng.uniform(-1.0, 1.0, size=(cfg.tail_len, 2)) for rng in rngs])
    tails = box[..., 0] + 1j * box[..., 1]
    a = _tail_coeffs(n, tails)
    bound = _coeff_sums(_polynomial_coeffs(HYPOTHESIS_FUNCTIONAL[theorem], a, complex(params.beta)), 1.0)
    big = bound > target
    a[big, n + 1 :] = tails[big] * (target / bound[big])[:, None]
    return a


@dataclass(frozen=True)
class FalsifySummary:
    theorem: Theorem
    n: int
    params: Params
    config: FalsifyConfig
    holds: int
    inconclusive: int
    fails: int
    min_conclusion_margin: float | None
    counterexamples: tuple


def _counterexample_record(trial: int, f: SeriesA, report: CheckReport) -> dict:
    witness = report.witness
    return {
        "trial": trial,
        "function": function_to_dict(f),
        "witness": [witness.real, witness.imag] if witness is not None else None,
        "conclusion_value": report.concl.lower if report.concl is not None else None,
        "conclusion_bound": report.concl_bound,
    }


def falsify(
    theorem: Theorem,
    n: int,
    params: Params,
    cfg: FalsifyConfig,
    spec: GridSpec | None = None,
) -> FalsifySummary:
    """Seeded search for hypothesis-satisfying functions that break a conclusion.

    Every trial draws from its own seed substream (seed, trial index), so
    summaries are reproducible and trials could run in any order. Trials are
    decided in blocks of max(1, 8192 // m) rows: the block's tails are drawn
    trial by trial and rescaled together as sample_satisfying rescales one,
    and every row is decided by check's own row-wise rules, whatever its
    verdict, so the summary is the one a sample_satisfying + check loop
    gives. Memory therefore stays bounded by the block, whatever the trial
    count. Only a Fails row goes through check itself: it is re-verified at
    16x grid density before being reported, to exclude grid artifacts. Zero
    fails is the expected outcome for a sound checker.
    """
    spec = spec if spec is not None else GridSpec(m=512, refine_depth=2)
    dense = GridSpec(m=16 * spec.m, refine_depth=spec.refine_depth)
    rows = max(1, _BLOCK_POINTS // spec.m)
    counts = {VerdictState.HOLDS: 0, VerdictState.FAILS: 0, VerdictState.INCONCLUSIVE: 0}
    min_margin: float | None = None
    counterexamples: list[dict] = []
    for start in range(0, cfg.trials, rows):
        trials = range(start, min(start + rows, cfg.trials))
        a = _sample_rows(theorem, n, params, cfg, [np.random.default_rng([cfg.seed, t]) for t in trials])
        for i, (state, margin) in enumerate(_check_rows(theorem, n, a, params, spec, cfg.r_max)):
            if state is VerdictState.FAILS:
                f = SeriesA(n, PolySeries(a[i]))
                report = check(theorem, f, params, dense, cfg.r_max)
                state, margin = report.verdict.state, report.verdict.conclusion_margin
                if state is VerdictState.FAILS:
                    counterexamples.append(_counterexample_record(trials[i], f, report))
            counts[state] += 1
            if margin is not None and (min_margin is None or margin < min_margin):
                min_margin = margin
    return FalsifySummary(
        theorem=theorem,
        n=n,
        params=params,
        config=cfg,
        holds=counts[VerdictState.HOLDS],
        inconclusive=counts[VerdictState.INCONCLUSIVE],
        fails=counts[VerdictState.FAILS],
        min_conclusion_margin=min_margin,
        counterexamples=tuple(counterexamples),
    )


@dataclass(frozen=True)
class RadiusReport:
    """Bisection outcome: r_star is the largest subdisk scale at which the
    hypothesis stays certified. status is "bracketed" after a genuine
    bisection, "saturated" when the hypothesis is certified even at scale 1
    (r_star = 1), and "empty" when not even tiny scales certify (r_star = 0).
    """

    theorem: Theorem
    r_star: float
    iterations: int
    bracket_width: float
    status: str


def radius_of_validity(theorem: Theorem, f: SeriesA, params: Params) -> RadiusReport:
    """Bisect the subdisk scale r at which f(rz)/r stops satisfying the
    hypothesis with certainty, down to a bracket of width 1e-6.

    The predicate certifies the hypothesis over the whole open disk through
    the radius-1 coefficient bound of the hypothesis polynomial; grid
    parameters play no role, so the result is a genuine certificate
    matching the closed-form scale for monomial witnesses.
    """
    thr = threshold(theorem, params, f.n)

    def certified(scale: float) -> bool:
        g = f.scale_radius(scale)
        poly = as_polynomial(HYPOTHESIS_FUNCTIONAL[theorem], g, params.beta)
        return coeff_bound(poly, 1.0) < thr

    lo, hi = 2.0**-30, 1.0
    if certified(hi):
        return RadiusReport(theorem, 1.0, 0, 0.0, "saturated")
    if not certified(lo):
        return RadiusReport(theorem, 0.0, 0, 0.0, "empty")
    iterations = 0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if certified(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return RadiusReport(theorem, 0.5 * (lo + hi), iterations, hi - lo, "bracketed")
