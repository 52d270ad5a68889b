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

from .bounds import _MAX_GRID_M, GridSpec, _coeff_sums, coeff_bound
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
from .series import _MAX_DEGREE, PolySeries, SeriesA, _tail_coeffs

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


#: Values one falsify block row array may hold: a block holds
#: max(1, 8192 // max(m, n + 1 + tail_len)) trials, so its grids and its
#: coefficient rows both stay within 8192 values.
_BLOCK_POINTS = 8192
#: Most trials one falsify call may run.
_MAX_TRIALS = 10**6

#: numpy's SeedSequence hash constants (random/bit_generator.pyx) and the
#: PCG64 multiplier (random/src/pcg64/pcg64.h), which _stream_states replays.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


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
    certified margin. tail_len = 0 yields the identity.
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


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constant before and after each of its first count
    multiplications by mult, as a (2, count, 1) uint32 array."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array([chain[:-1], chain[1:]], dtype=np.uint32)[..., None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of values with its own pair of
    _hash_constants columns; a single row is hashed with every pair."""
    values = (values ^ consts[0]) * consts[1]
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    values = _MIX_L * x - _MIX_R * y
    return values ^ values >> 16


def _stream_states(seed: int, trials: range) -> np.ndarray:
    """The PCG64 states that default_rng([seed, t]) starts from, for every t
    of trials, as a (len(trials), 4) uint64 array of the 128-bit state and
    increment, high word first: numpy's SeedSequence and pcg64_set_seed
    replayed on uint32 and uint64 arrays, one trial a column.

    The entropy is the seed's little-endian 32-bit words (at least one) and
    then the trial, one word since trials stay below _MAX_TRIALS < 2^32. It is
    hashed into a pool of 4 words; each pool word is then mixed into the
    other three, and every entropy word past the fourth into all four.
    generate_state(4, uint64) expands the pool to (initstate, initseq), and
    pcg64_set_seed sets inc = 2 initseq + 1 and
    state = (inc + initstate) * MULT + inc mod 2^128.
    """
    words = [seed & 0xFFFFFFFF]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & 0xFFFFFFFF)
    entropy = np.zeros((max(4, len(words) + 1), len(trials)), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(trials.start, trials.stop)
    consts = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy))
    pool = _hashmix(entropy[:4], consts[:, :4])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[:, 4 + 3 * src : 7 + 3 * src]))
    for i in range(4, len(entropy)):
        pool = _mix(pool, _hashmix(entropy[i], consts[:, 4 * i : 4 * i + 4]))
    out = _hashmix(np.concatenate([pool, pool]), _hash_constants(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = out[0::2] | out[1::2] << 32
    inc_hi = seq_hi << 1 | seq_lo >> 63
    inc_lo = seq_lo << 1 | 1
    s_lo = inc_lo + seed_lo
    s_hi = inc_hi + seed_hi + (s_lo < inc_lo)
    # s * MULT mod 2^128, with the high word of s_lo * MULT_LO from 32-bit limbs
    low, high = s_lo & 0xFFFFFFFF, s_lo >> 32
    m_low, m_high = _PCG_MULT_LO & 0xFFFFFFFF, _PCG_MULT_LO >> 32
    cross = high * m_low
    mid = (low * m_low >> 32) + (cross & 0xFFFFFFFF) + (low * m_high & 0xFFFFFFFF)
    mul_hi = high * m_high + (cross >> 32) + (low * m_high >> 32) + (mid >> 32)
    state_lo = s_lo * _PCG_MULT_LO + inc_lo
    state_hi = mul_hi + s_lo * _PCG_MULT_HI + s_hi * _PCG_MULT_LO + inc_hi + (state_lo < inc_lo)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=-1)


def _tail_boxes(seed: int, trials: range, tail_len: int, rows: int):
    """Yield, for every rows consecutive trials t of trials (fewer in the
    last block), the (rows, tail_len, 2) array of the first draws
    default_rng([seed, t]).uniform(-1.0, 1.0, size=(tail_len, 2)).

    The streams' start states come from _stream_states, for at most
    _BLOCK_POINTS trials at a time; the draws are numpy's own, by one
    Generator whose PCG64 is set to each trial's state in turn.
    """
    gen = np.random.default_rng(0)
    chunk = rows * max(1, _BLOCK_POINTS // rows)
    for begin in range(0, len(trials), chunk):
        states = _stream_states(seed, trials[begin : begin + chunk])
        for first in range(0, len(states), rows):
            block = states[first : first + rows].tolist()
            box = np.empty((len(block), tail_len, 2))
            for i, (state_hi, state_lo, inc_hi, inc_lo) in enumerate(block):
                gen.bit_generator.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                box[i] = gen.uniform(-1.0, 1.0, size=(tail_len, 2))
            yield box


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

    Trial t draws from default_rng([seed, t]), so summaries are reproducible,
    trials could run in any order, and sample_satisfying with that generator
    rebuilds any one trial. The streams' start states are computed together,
    at most 8192 trials at a time, and the draws are numpy's own. Trials are
    decided in blocks of max(1, 8192 // max(m, n + 1 + tail_len)) rows: the
    block's tails are rescaled together as sample_satisfying rescales one,
    and every row is decided by check's own row-wise rules, whatever its
    verdict, so the summary is the one a sample_satisfying + check loop
    gives. A block's grids and coefficient rows then hold at most 8192 values
    an array (one row when a single row is larger), so memory stays bounded
    whatever m, tail_len and the trial count. Only a Fails row goes through
    check itself: it is re-verified at 16x grid density (at most the grid
    cap) before being reported, to exclude grid artifacts. Zero fails is the
    expected outcome for a sound checker.
    """
    spec = spec if spec is not None else GridSpec(m=512)
    dense = GridSpec(m=min(16 * spec.m, _MAX_GRID_M))
    rows = max(1, _BLOCK_POINTS // max(spec.m, n + 1 + cfg.tail_len))
    thr = threshold(theorem, params, n)
    counts = {VerdictState.HOLDS: 0, VerdictState.FAILS: 0, VerdictState.INCONCLUSIVE: 0}
    min_margin: float | None = None
    counterexamples: list[dict] = []
    boxes = _tail_boxes(cfg.seed, range(cfg.trials), cfg.tail_len, rows)
    for start, box in zip(range(0, cfg.trials, rows), boxes):
        a = _sample_rows(theorem, n, params, cfg.margin * thr, box)
        for i, (state, margin) in enumerate(_check_rows(theorem, a, params, thr, spec, cfg.r_max)):
            if state is VerdictState.FAILS:
                f = SeriesA(n, PolySeries(a[i]))
                report = check(theorem, f, params, dense, cfg.r_max)
                state, margin = report.verdict.state, report.verdict.conclusion_margin
                if state is VerdictState.FAILS:
                    counterexamples.append(_counterexample_record(start + i, f, report))
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
