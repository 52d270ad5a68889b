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

import numpy as np

from .bounds import _BLOCK_POINTS, _MAX_GRID_M, GridSpec, _coeff_sums
from .checks import (
    HYPOTHESIS_FUNCTIONAL,
    _certified_rows,
    CheckReport,
    Params,
    Theorem,
    VerdictState,
    check,
    threshold,
)
from .errors import _MAX_DEGREE, InputError, _require_degree, require_complex, require_int, require_real
from .funcspec import Witness, _witness_coefficient, function_to_dict
from .functionals import _polynomial_coeffs
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


#: Most trials one falsify call may run.
_MAX_TRIALS = 10**6


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
        if trials > _MAX_TRIALS:
            raise InputError(f"trials must be at most {_MAX_TRIALS}")
        if tail_len > _MAX_DEGREE:
            raise InputError(f"tail_len must be at most {_MAX_DEGREE}")
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

    Tail coefficients are uniform in the complex box [-1, 1]^2, drawn as
    rng.uniform(-1.0, 1.0, size=(tail_len, 2)). When the hypothesis
    polynomial's coefficient bound at radius 1 exceeds margin * threshold the
    whole tail is scaled down by that ratio, which is exact because the
    hypothesis coefficients are linear in the tail. The returned function
    therefore satisfies the hypothesis on the whole open disk with a
    certified margin. tail_len = 0 yields the identity. With
    rng = np.random.Generator(np.random.PCG64(seed).advance(2 * tail_len * t))
    it returns trial t of falsify.
    """
    target = cfg.margin * threshold(theorem, params, n)
    box = rng.uniform(-1.0, 1.0, size=(cfg.tail_len, 2))
    return SeriesA(n, PolySeries(_sample_rows(theorem, n, params, target, box[None])[0]))


def _sample_rows(theorem: Theorem, n: int, params: Params, target: float, box: np.ndarray) -> np.ndarray:
    """Series coefficient rows of the functions sample_satisfying draws, one
    from each tail box[i] of a (rows, tail_len, 2) array of uniform(-1, 1)
    draws (real and imaginary parts), all rescaled at once to a hypothesis
    coefficient sum at radius 1 of at most target."""
    tails = box[..., 0] + 1j * box[..., 1]
    a = _tail_coeffs(n, tails)
    bound = _coeff_sums(_polynomial_coeffs(HYPOTHESIS_FUNCTIONAL[theorem], a, complex(params.beta)), 1.0)
    big = bound > target
    a[big, n + 1 :] = tails[big] * (target / bound[big])[:, None]
    return a


def _tail_boxes(seed: int, trials: range, tail_len: int, rows: int):
    """Yield, for every rows consecutive trials t of trials (fewer in the
    last block), the (rows, tail_len, 2) array of their draws: trial t's are
    values 2 tail_len t ... 2 tail_len (t + 1) - 1 of the one
    uniform(-1.0, 1.0) stream of default_rng(seed). One generator, advanced
    to the first trial, draws the whole range block by block."""
    gen = np.random.Generator(np.random.PCG64(seed).advance(2 * tail_len * trials.start))
    for first in range(0, len(trials), rows):
        yield gen.uniform(-1.0, 1.0, size=(min(rows, len(trials) - first), tail_len, 2))


@dataclass(frozen=True)
class FalsifySummary:
    """Verdict counts of falsify's trials, the smallest conclusion margin
    (bound - cap for a cap-certified Holds, check's margin for any other
    trial; None when no trial has one), and the counterexample records."""

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
    witness = report.verdict.witness
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

    Trial t draws values 2 tail_len t ... 2 tail_len (t + 1) - 1 of the one
    uniform(-1.0, 1.0) stream of default_rng(seed), so summaries are
    reproducible and do not depend on how trials are grouped, and
    sample_satisfying with that stream advanced by 2 tail_len t rebuilds any
    one trial (_tail_boxes). Trials are decided in blocks of
    max(1, _BLOCK_POINTS // (n + 1 + tail_len)) rows, 1820 at n = 2 and the
    default tail_len 6: the block's tails are rescaled together as
    sample_satisfying rescales one. A block's coefficient arrays hold at
    most _BLOCK_POINTS values, or one row, and its draws 2 tail_len values a
    row, so memory stays bounded whatever m, tail_len and the trial count.

    A row whose hypothesis _below certifies and whose coefficient-sum cap on
    the conclusion is below the bound is a certified Holds
    (_certified_rows), with margin bound - cap, at most check's margin on any
    grid. Every other row goes through check on spec, one at a time, and a
    Fails is re-checked at 16x grid density (at most the grid cap) before
    being reported, to exclude grid artifacts. So the counts and
    counterexamples are those of a sample_satisfying + check loop, and
    min_conclusion_margin is at most that loop's: a certified lower bound
    where the caps decide. spec matters only to hypothesis rows whose sum
    leaves no room below the threshold and to the rows that go through
    check. Zero fails is the expected outcome for a sound checker.
    Blocks are decided one after another on the calling thread, and each
    block's other rows are checked before the next block is drawn, so
    counterexamples are in trial order and an error is raised after the
    checks of the earlier blocks' trials.
    """
    thr = threshold(theorem, params, n)
    _require_degree(n, cfg.tail_len)
    spec = spec if spec is not None else GridSpec(m=512)
    dense = GridSpec(m=min(16 * spec.m, _MAX_GRID_M))
    rows = max(1, _BLOCK_POINTS // (n + 1 + cfg.tail_len))
    counts = dict.fromkeys(VerdictState, 0)
    min_margin = math.nan
    counterexamples: list[dict] = []
    for start, box in zip(range(0, cfg.trials, rows), _tail_boxes(cfg.seed, range(cfg.trials), cfg.tail_len, rows)):
        a = _sample_rows(theorem, n, params, cfg.margin * thr, box)
        sure, margins = _certified_rows(theorem, a, params, thr, spec, cfg.r_max)
        counts[VerdictState.HOLDS] += int(sure.sum())
        min_margin = np.fmin.reduce(margins[sure], initial=min_margin)
        for row in np.flatnonzero(~sure).tolist():
            f = SeriesA(n, PolySeries(a[row]))
            report = check(theorem, f, params, spec, cfg.r_max)
            if report.verdict.state is VerdictState.FAILS:
                report = check(theorem, f, params, dense, cfg.r_max)
                if report.verdict.state is VerdictState.FAILS:
                    counterexamples.append(_counterexample_record(start + row, f, report))
            counts[report.verdict.state] += 1
            if report.verdict.conclusion_margin is not None:
                min_margin = np.fmin(min_margin, report.verdict.conclusion_margin)
    return FalsifySummary(
        theorem=theorem,
        n=n,
        params=params,
        config=cfg,
        holds=counts[VerdictState.HOLDS],
        inconclusive=counts[VerdictState.INCONCLUSIVE],
        fails=counts[VerdictState.FAILS],
        min_conclusion_margin=None if math.isnan(min_margin) else float(min_margin),
        counterexamples=tuple(counterexamples),
    )


@dataclass(frozen=True)
class RadiusReport:
    """Bisection outcome: r_star is the certified lower end of the bisection
    bracket. status is "bracketed" after a genuine bisection, "saturated"
    when the hypothesis is certified even at scale 1 (r_star = 1), and
    "empty" when not even tiny scales certify (r_star = 0).
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
    # coefficient j of the hypothesis polynomial of f(sz)/s is h_j s^j
    h = _polynomial_coeffs(HYPOTHESIS_FUNCTIONAL[theorem], f.body.coeffs, complex(params.beta))

    def certified(scale: float) -> bool:
        return _coeff_sums(h, scale) < thr

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
    return RadiusReport(theorem, lo, iterations, hi - lo, "bracketed")
