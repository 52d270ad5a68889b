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
import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import _MAX_GRID_M, GridSpec, _coeff_sums
from .checks import (
    _FAILS,
    HYPOTHESIS_FUNCTIONAL,
    _STATE_CODES,
    _STATES,
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
from .functionals import _polynomial_coeffs
from .series import _MAX_DEGREE, PolySeries, SeriesA, _require_degree, _tail_coeffs

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
#: max(1, 16384 // max(m, n + 1 + tail_len)) trials, so its grids and its
#: coefficient rows both stay within 16384 values, and _uniforms's 128-bit
#: draw arithmetic works on at most 16384 values an array. Once no step is
#: per trial, a block's fixed cost is its numpy calls, so fewer, larger
#: blocks are faster; 32768 would break the memory bound of long tails.
_BLOCK_POINTS = 16384
#: Most trials one falsify call may run.
_MAX_TRIALS = 10**6
#: Most threads one falsify call decides its trials on, its own included.
#: About half a block's time is FFT and grid arithmetic, which numpy runs
#: without the GIL.
_WORKERS = 2
#: Longest streams, and fewest, that _uniforms draws by jump-ahead arrays.
#: An array draw costs about 25 numpy passes over 128-bit words, where
#: numpy's own uniform takes a few ns, and one call about 45 us, where
#: setting a Generator to a stream takes about 6 us. At 96 draws a stream
#: (tail_len 48), or at 8 streams, the two ways take about the same time.
_JUMP_DRAWS, _JUMP_STREAMS = 96, 8

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
    of trials, as a (2, 2, len(trials)) uint64 array: the high words of the
    128-bit state and increment, then their low words. numpy's SeedSequence
    and pcg64_set_seed are replayed on uint32 and uint64 arrays, one trial a
    column.

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
    s_hi, s_lo = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    state_hi, state_lo = _add128(*_mul128(s_hi, s_lo, _PCG_MULT_HI, _PCG_MULT_LO), inc_hi, inc_lo)
    return np.array([[state_hi, inc_hi], [state_lo, inc_lo]])


def _mul128(x_hi, x_lo, y_hi, y_lo):
    """x * y mod 2^128, elementwise, for 128-bit numbers held as uint64 high
    and low words (arrays, or Python ints below 2^64 beside an array): the
    high word of x_lo * y_lo comes from 32-bit limb products, whose partial
    sums stay below 2^64."""
    x0, x1 = x_lo & 0xFFFFFFFF, x_lo >> 32
    y0, y1 = y_lo & 0xFFFFFFFF, y_lo >> 32
    low = x0 * y0
    mid = x1 * y0 + (low >> 32)
    cross = x0 * y1 + (mid & 0xFFFFFFFF)
    hi = x1 * y1 + (mid >> 32) + (cross >> 32) + x_lo * y_hi + x_hi * y_lo
    return hi, x_lo * y_lo


def _add128(x_hi, x_lo, y_hi, y_lo):
    """x + y mod 2^128, elementwise, in the words of _mul128."""
    lo = x_lo + y_lo
    return x_hi + y_hi + (lo < y_lo), lo


@functools.cache
def _jump_table() -> np.ndarray:
    """PCG64's k-step jumps for k = 1 up to the first power of two of at
    least _JUMP_DRAWS, the widest draw window of _uniforms, as a (2, 2, k)
    uint64 array of high then low words: [:, 0, k - 1] holds A_k = MULT^k
    and [:, 1, k - 1] holds S_k = sum_{j<k} MULT^j mod 2^128, so that k
    steps take a state s with increment inc to A_k s + S_k inc (O'Neill,
    "PCG: a family of simple fast space-efficient statistically good
    algorithms for random number generation", HMC-CS-2014-0905). Built by
    doubling, with A_{h+k} = A_h A_k and S_{h+k} = A_h S_k + S_h; one
    read-only table, built once, serves every draw count."""
    hi, lo = np.array([[[_PCG_MULT_HI], [0]], [[_PCG_MULT_LO], [1]]], dtype=np.uint64)
    while hi.shape[1] < _JUMP_DRAWS:
        jump_hi, jump_lo = _mul128(hi[:1, -1:], lo[:1, -1:], hi, lo)
        jump_hi[1], jump_lo[1] = _add128(jump_hi[1], jump_lo[1], hi[1, -1:], lo[1, -1:])
        hi, lo = np.concatenate([hi, jump_hi], axis=1), np.concatenate([lo, jump_lo], axis=1)
    table = np.array([hi, lo])
    table.setflags(write=False)
    return table


def _uniforms(states: np.ndarray, draws: int) -> np.ndarray:
    """The first draws values of uniform(-1.0, 1.0) from each PCG64 stream of
    a _stream_states array, as a (trials, draws) array.

    At least _JUMP_STREAMS streams of at most _JUMP_DRAWS draws are drawn on
    arrays. Draw k (from 1) of a stream with start state s and increment inc
    outputs XSL-RR of its state after k steps, A_k s + S_k inc mod 2^128
    from _jump_table (the high word xor the low word, rotated right by the
    top 6 bits of the high word), and numpy's uniform maps an output u to
    -1 + 2 (u >> 11) 2^-53. Both products of a draw come from one _mul128
    call. The draws are taken in windows of
    max(1, min(draws, _BLOCK_POINTS // (2 trials))) columns, each jumping on
    from the last state of the one before, so each array of that arithmetic
    holds at most _BLOCK_POINTS values once a window has a column per trial.
    Other streams are drawn by numpy's own doubles (u >> 11) 2^-53, written
    in place by one Generator set to each start state in turn, and then
    mapped as uniform maps them.
    """
    trials = states.shape[-1]
    out = np.empty((trials, draws))
    if draws > _JUMP_DRAWS or trials < _JUMP_STREAMS:
        gen = np.random.default_rng(0)
        for i, (state_hi, inc_hi, state_lo, inc_lo) in enumerate(states.reshape(4, trials).T.tolist()):
            gen.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
                "has_uint32": 0,
                "uinteger": 0,
            }
            gen.random(out=out[i])
        out *= 2.0
        out -= 1.0
        return out
    table = _jump_table()
    width = max(1, min(draws, _BLOCK_POINTS // (2 * trials)))
    start_hi, start_lo = states[..., None]
    for first in range(0, draws, width):
        jump_hi, jump_lo = table[:, :, None, : min(width, draws - first)]
        hi, lo = _mul128(jump_hi, jump_lo, start_hi, start_lo)
        hi, lo = _add128(hi[0], lo[0], hi[1], lo[1])
        value, rot = hi ^ lo, hi >> 58
        out[:, first : first + width] = ((value >> rot | value << (64 - rot & 63)) >> 11) * 2.0**-52 - 1.0
        start_hi, start_lo = np.array([hi[:, -1:], start_hi[1]]), np.array([lo[:, -1:], start_lo[1]])
    return out


def _tail_boxes(seed: int, trials: range, tail_len: int, rows: int):
    """Yield, for every rows consecutive trials t of trials (fewer in the
    last block), the (rows, tail_len, 2) array of the first draws
    default_rng([seed, t]).uniform(-1.0, 1.0, size=(tail_len, 2)).

    No generator is seeded per trial: the streams' start states come from
    _stream_states, for at most _BLOCK_POINTS trials a call, and their draws
    from _uniforms, for groups of whole blocks whose 2 tail_len draws a
    trial fit _BLOCK_POINTS values (one block when they do not, whose draws
    come to less than twice its rows' n + 1 + tail_len coefficients). So
    the draws are numpy's own values bit for bit.
    """
    group = rows * max(1, _BLOCK_POINTS // (rows * max(1, 2 * tail_len)))
    chunk = group * max(1, _BLOCK_POINTS // group)
    for begin in range(0, len(trials), chunk):
        states = _stream_states(seed, trials[begin : begin + chunk])
        for first in range(0, states.shape[-1], group):
            draws = _uniforms(states[..., first : first + group], 2 * tail_len)
            for row in range(0, len(draws), rows):
                block = draws[row : row + rows]
                yield block.reshape(len(block), tail_len, 2)


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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, or the CPU count
    where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _decide_chunk(theorem: Theorem, n: int, params: Params, cfg: FalsifyConfig, spec: GridSpec, thr: float,
                  rows: int, trials: range, stop: threading.Event):
    """Decide the trials of one falsify chunk in blocks of rows trials, until
    they are done, one block raises, or stop is set before the next block.
    Returns the chunk's counts by state code, its smallest margin, its Fails
    rows as (trial, coefficient row) pairs in trial order, and the exception
    that ended it, or None. The Fails rows are counted as Fails and left out
    of the margin, for falsify to re-check."""
    counts = np.zeros(len(_STATES), dtype=np.int64)
    min_margin = math.nan
    fails = []
    try:
        boxes = _tail_boxes(cfg.seed, trials, cfg.tail_len, rows)
        for start in range(trials.start, trials.stop, rows):
            if stop.is_set():
                break
            a = _sample_rows(theorem, n, params, cfg.margin * thr, next(boxes))
            states, margins = _check_rows(theorem, a, params, thr, spec, cfg.r_max)
            failed = np.flatnonzero(states == _FAILS)
            fails += zip((start + failed).tolist(), a[failed])
            margins[failed] = math.nan
            counts += np.bincount(states, minlength=len(_STATES))
            min_margin = np.fmin(min_margin, np.fmin.reduce(margins))
    except Exception as exc:
        return counts, min_margin, fails, exc
    return counts, min_margin, fails, None


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
    rebuilds any one trial. The draws are numpy's own values, computed on
    arrays: the streams' start states by replaying numpy's seeding, and for
    tails of at most 48 terms and at least 8 trials, draw k of each stream by
    PCG64's k-step jump (_tail_boxes). Trials are decided in blocks of
    max(1, 16384 // max(m, n + 1 + tail_len)) rows, 32 at the defaults: the
    block's tails are rescaled together as sample_satisfying rescales one,
    and every row gets check's verdict state and conclusion margin from
    check's own row-wise rules, whatever its verdict, so the summary is the
    one a sample_satisfying + check loop gives. The counts and the smallest
    margin are taken from those arrays. A block's grids and coefficient rows
    hold at most 16384 values an array (one row when a single row is
    larger), and its draws 2 tail_len values a row, so memory stays bounded
    whatever m, tail_len and the trial count. Only a Fails row goes through
    check itself: it is re-verified at 16x grid density (at most the grid
    cap) before being reported, to exclude grid artifacts. Zero fails is the
    expected outcome for a sound checker.

    The call uses up to two threads. Its blocks are split into
    min(_WORKERS, usable CPUs, blocks) contiguous chunks of whole blocks,
    decided at once: the calling thread decides the first, and one more
    thread the second in a copy of the caller's contextvars context, so
    under the caller's numpy floating-point error state. So at most two
    blocks are held at once, and the coefficient row of each trial that
    fails on the coarse grid until it is re-checked. The Fails rows of all
    chunks are re-checked afterwards in trial order, and an exception is
    raised as a serial run would raise it: the first one in trial order,
    after the re-checks of the trials before it. Once the first chunk has
    raised or been interrupted, the other stops before its next block; no
    thread outlives the call. Results therefore do not depend on the thread
    count.
    """
    thr = threshold(theorem, params, n)
    _require_degree(n, cfg.tail_len)
    spec = spec if spec is not None else GridSpec(m=512)
    dense = GridSpec(m=min(16 * spec.m, _MAX_GRID_M))
    rows = max(1, _BLOCK_POINTS // max(spec.m, n + 1 + cfg.tail_len))
    blocks = -(-cfg.trials // rows)
    count = min(_WORKERS, _usable_cpus(), blocks)
    edges = [min(cfg.trials, rows * (k * blocks // count)) for k in range(count + 1)]
    stop = threading.Event()
    results = [None] * count

    def decide(k: int) -> None:
        results[k] = _decide_chunk(theorem, n, params, cfg, spec, thr, rows, range(edges[k], edges[k + 1]), stop)

    workers = [threading.Thread(target=contextvars.copy_context().run, args=(decide, k)) for k in range(1, count)]
    started = []
    try:
        for worker in workers:
            worker.start()
            started.append(worker)
        decide(0)
    finally:
        # the first chunk's error, or an interrupt, makes the others moot
        if results[0] is None or results[0][3] is not None:
            stop.set()
        for worker in started:
            worker.join()
    counts = np.zeros(len(_STATES), dtype=np.int64)
    min_margin = math.nan
    counterexamples: list[dict] = []
    for chunk_counts, chunk_margin, fails, error in results:
        counts += chunk_counts
        min_margin = np.fmin(min_margin, chunk_margin)
        for trial, row in fails:
            f = SeriesA(n, PolySeries(row))
            report = check(theorem, f, params, dense, cfg.r_max)
            counts[_FAILS] -= 1
            counts[_STATE_CODES[report.verdict.state]] += 1
            if report.verdict.conclusion_margin is not None:
                min_margin = np.fmin(min_margin, report.verdict.conclusion_margin)
            if report.verdict.state is VerdictState.FAILS:
                counterexamples.append(_counterexample_record(trial, f, report))
        if error is not None:
            raise error
    tally = dict(zip(_STATES, counts.tolist()))
    return FalsifySummary(
        theorem=theorem,
        n=n,
        params=params,
        config=cfg,
        holds=tally[VerdictState.HOLDS],
        inconclusive=tally[VerdictState.INCONCLUSIVE],
        fails=tally[VerdictState.FAILS],
        min_conclusion_margin=None if math.isnan(min_margin) else float(min_margin),
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
    return RadiusReport(theorem, 0.5 * (lo + hi), iterations, hi - lo, "bracketed")
