"""Sharp witnesses, the falsifier, and the validity-radius bisection."""

import math
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import diskcheck.bounds
import diskcheck.checks
import diskcheck.witnesses

from diskcheck import (
    FalsifyConfig,
    Functional,
    GridSpec,
    InputError,
    ParameterError,
    Params,
    PolySeries,
    SeriesA,
    Theorem,
    VerdictState,
    Witness,
    check,
    circle_argmax,
    eval_functional,
    falsify,
    make_witness,
    poly_sup,
    radius_of_validity,
    sample_satisfying,
    threshold,
    witness_closed_forms,
)
from diskcheck.bounds import _below, _coeff_sums
from diskcheck.checks import _RULES, HYPOTHESIS_FUNCTIONAL, _center, _certified_rows, _conclusion_bound, \
    _conclusion_caps, _conclusion_scan
from diskcheck.funcspec import function_to_dict, load_function
from diskcheck.functionals import _polynomial_coeffs
from diskcheck.series import _tail_coeffs
from diskcheck.witnesses import FalsifySummary, _sample_rows, _tail_boxes

from conftest import polynomial

LADDER = (0.9, 0.99, 0.999, 0.9999)
DENSE = GridSpec(m=8192, refine_depth=5)


class TestWitnessCoefficients:
    def test_known_values(self):
        assert make_witness(Witness.EX1, 1, 0.0).tail[0] == pytest.approx(0.5)
        assert make_witness(Witness.EX1, 1, 0.5).tail[0] == pytest.approx(1 / 3)
        assert make_witness(Witness.EX1, 2, 0.25).tail[0] == pytest.approx(3 / 11)
        assert make_witness(Witness.EX2, 1, 0.0).tail[0] == pytest.approx(0.5)
        assert make_witness(Witness.EX2, 2, 0.5).tail[0] == pytest.approx(1 / 6)
        assert make_witness(Witness.EX3, 1, 0.5).tail[0] == pytest.approx(0.25)
        assert make_witness(Witness.EX3, 3, 0.2).tail[0] == pytest.approx(0.05)

    def test_layout(self):
        f = make_witness(Witness.EX1, 3, 0.25)
        assert f.n == 3
        assert f.tail.size == 1
        assert np.all(f.body.coeffs[2:4] == 0)

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            make_witness(Witness.EX1, 1, 1.0)
        with pytest.raises(ParameterError):
            make_witness(Witness.EX2, 1, -0.1)
        with pytest.raises(ParameterError):
            make_witness(Witness.EX3, 1, 0.0)
        with pytest.raises(ParameterError):
            make_witness(Witness.EX3, 1, 0.6)
        with pytest.raises(ParameterError):
            make_witness(Witness.EX1, 0, 0.0)
        with pytest.raises(ParameterError):
            make_witness(Witness.EX1, 1, math.inf)


class TestClosedForms:
    @pytest.mark.parametrize("r", LADDER)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ex1_forms_match_bracket_machinery(self, n, r):
        alpha, beta = 0.25, 0.5 + 0.5j
        f = make_witness(Witness.EX1, n, alpha)
        forms = witness_closed_forms(Witness.EX1, n, alpha, beta, r)
        hyp = poly_sup(polynomial(Functional.STAR_TEST, f, beta), r, DENSE)
        assert hyp.lower == pytest.approx(forms.hyp_sup_on_circle, rel=1e-12)
        assert hyp.upper == pytest.approx(forms.hyp_sup_on_circle, rel=1e-12)
        got = circle_argmax(lambda zs: eval_functional(Functional.STAR_QUOTIENT, f, 0j, zs), r, DENSE)[0]
        assert got == pytest.approx(forms.concl_sup_on_circle, abs=1e-6 * (1 + forms.concl_sup_on_circle))

    @pytest.mark.parametrize("r", LADDER)
    @pytest.mark.parametrize("which,alpha", [(Witness.EX2, 0.25), (Witness.EX3, 0.4)])
    def test_turning_witness_forms_match(self, which, alpha, r):
        n, beta = 2, -1 + 0j
        f = make_witness(which, n, alpha)
        forms = witness_closed_forms(which, n, alpha, beta, r)
        hyp = poly_sup(polynomial(Functional.TURN_TEST, f, beta), r, DENSE)
        assert hyp.lower == pytest.approx(forms.hyp_sup_on_circle, rel=1e-12)
        concl = poly_sup(polynomial(Functional.DERIV_MINUS_ONE, f), r, DENSE)
        assert concl.lower == pytest.approx(forms.concl_sup_on_circle, rel=1e-12)
        assert concl.upper == pytest.approx(forms.concl_sup_on_circle, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            witness_closed_forms(Witness.EX1, 1, 0.0, 0j, 1.0)
        with pytest.raises(InputError):
            witness_closed_forms(Witness.EX1, 1, 0.0, complex("inf"), 0.9)
        with pytest.raises(ParameterError):
            witness_closed_forms(Witness.EX3, 1, 0.9, 0j, 0.9)


class TestSharpness:
    """Each witness saturates its threshold in the r -> 1 limit."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
    def test_ex1_hypothesis_ratio_is_r_to_the_n(self, n, alpha):
        thr = threshold(Theorem.THM1, Params(alpha=alpha), n)
        for r in LADDER:
            forms = witness_closed_forms(Witness.EX1, n, alpha, 0j, r)
            assert forms.hyp_sup_on_circle / thr == pytest.approx(r**n, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_ex2_hypothesis_ratio_is_r_to_the_n(self, n):
        alpha, beta = 0.25, 0.5j
        thr = threshold(Theorem.THM2, Params(alpha=alpha, beta=beta), n)
        for r in LADDER:
            forms = witness_closed_forms(Witness.EX2, n, alpha, beta, r)
            assert forms.hyp_sup_on_circle / thr == pytest.approx(r**n, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_ex3_hypothesis_ratio_is_r_to_the_n(self, n):
        alpha = 0.4
        thr = threshold(Theorem.THM3, Params(alpha=alpha), n)
        for r in LADDER:
            forms = witness_closed_forms(Witness.EX3, n, alpha, 0j, r)
            assert forms.hyp_sup_on_circle / thr == pytest.approx(r**n, rel=1e-12)

    def test_ex1_conclusion_limit_is_the_order_bound(self):
        # n c / (1 - c) = 1 - alpha exactly, by the choice of c
        for n in (1, 2, 5):
            for alpha in (0.0, 0.3, 0.8):
                c = make_witness(Witness.EX1, n, alpha).tail[0].real
                assert n * c / (1 - c) == pytest.approx(1 - alpha, rel=1e-12)

    def test_witness_checks_hold_strictly_inside(self):
        spec = GridSpec(m=1024, refine_depth=2)
        pairs = [
            (Theorem.THM1, Witness.EX1, 0.25),
            (Theorem.THM2, Witness.EX2, 0.25),
            (Theorem.THM3, Witness.EX3, 0.25),
            (Theorem.THM3, Witness.EX2, 0.75),
        ]
        for thm, wit, alpha in pairs:
            f = make_witness(wit, 2, alpha)
            rep = check(thm, f, Params(alpha=alpha), spec)
            assert rep.verdict.state is VerdictState.HOLDS, (thm, wit)
            assert 0 < rep.verdict.hypothesis_margin < rep.hyp_threshold


class TestFalsifyConfig:
    def test_defaults(self):
        cfg = FalsifyConfig()
        assert (cfg.trials, cfg.seed, cfg.margin, cfg.tail_len, cfg.r_max) == (
            1000, 0, 0.9, 6, 0.999,
        )

    def test_validation(self):
        with pytest.raises(InputError):
            FalsifyConfig(trials=0)
        with pytest.raises(InputError):
            FalsifyConfig(seed=-1)
        with pytest.raises(InputError):
            FalsifyConfig(margin=1.0)
        with pytest.raises(InputError):
            FalsifyConfig(margin=0.0)
        with pytest.raises(InputError):
            FalsifyConfig(tail_len=-1)
        with pytest.raises(InputError):
            FalsifyConfig(r_max=1.0)
        with pytest.raises(InputError):
            FalsifyConfig(trials=True)


class TestSampleSatisfying:
    def test_certified_hypothesis_margin(self):
        cfg = FalsifyConfig(trials=1, tail_len=6, margin=0.9)
        params = Params(alpha=0.25)
        for trial in range(20):
            rng = np.random.default_rng([11, trial])
            f = sample_satisfying(Theorem.THM1, 1, params, cfg, rng)
            poly = polynomial(HYPOTHESIS_FUNCTIONAL[Theorem.THM1], f, params.beta)
            bound = sum(abs(c) for c in poly.coeffs)
            assert bound <= 0.9 * threshold(Theorem.THM1, params, 1) * (1 + 1e-12)

    def test_rescale_hits_target_exactly(self):
        cfg = FalsifyConfig(tail_len=6, margin=0.5)
        params = Params(alpha=0.0)
        rng = np.random.default_rng(3)
        f = sample_satisfying(Theorem.THM2, 2, params, cfg, rng)
        poly = polynomial(HYPOTHESIS_FUNCTIONAL[Theorem.THM2], f, 0j)
        bound = sum(abs(c) for c in poly.coeffs)
        target = 0.5 * threshold(Theorem.THM2, params, 2)
        # raw uniform draws essentially always exceed the target, so the
        # rescale makes the bound land on it
        assert bound == pytest.approx(target, rel=1e-9)

    def test_deterministic_given_stream(self):
        cfg = FalsifyConfig(tail_len=4)
        params = Params(alpha=0.1)
        a = sample_satisfying(Theorem.THM1, 1, params, cfg, np.random.default_rng([5, 9]))
        b = sample_satisfying(Theorem.THM1, 1, params, cfg, np.random.default_rng([5, 9]))
        assert a == b

    def test_empty_tail_gives_identity(self):
        cfg = FalsifyConfig(tail_len=0)
        f = sample_satisfying(Theorem.THM1, 3, Params(), cfg, np.random.default_rng(0))
        assert f.tail.size == 0
        assert f(0.5) == 0.5


class TestFalsify:
    def test_no_counterexamples_on_sound_checks(self):
        cfg = FalsifyConfig(trials=40, seed=2)
        out = falsify(Theorem.THM1, 1, Params(alpha=0.25), cfg)
        assert out.fails == 0
        assert out.counterexamples == ()
        assert out.holds + out.inconclusive == 40
        assert out.holds > 0
        assert out.min_conclusion_margin is not None and out.min_conclusion_margin > 0

    def test_reproducible(self):
        cfg = FalsifyConfig(trials=15, seed=42)
        a = falsify(Theorem.THM2, 2, Params(alpha=0.5, beta=0.5j), cfg)
        b = falsify(Theorem.THM2, 2, Params(alpha=0.5, beta=0.5j), cfg)
        assert a == b

    def test_seed_changes_margins(self):
        p = Params(alpha=0.25)
        a = falsify(Theorem.THM1, 1, p, FalsifyConfig(trials=10, seed=0))
        b = falsify(Theorem.THM1, 1, p, FalsifyConfig(trials=10, seed=1))
        assert a.min_conclusion_margin != b.min_conclusion_margin

    @pytest.mark.parametrize("theorem", [Theorem.THM1, Theorem.THM2])
    def test_long_tails_keep_memory_bounded(self, theorem):
        # a block's coefficient rows count against its 16384 values: a
        # 4096-term tail gives 3 rows a block, not 1024
        cfg = FalsifyConfig(trials=128, seed=4, tail_len=4096)
        spec = GridSpec(m=16)
        tracemalloc.start()
        try:
            out = falsify(theorem, 1, Params(alpha=0.25), cfg, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert out.holds + out.inconclusive + out.fails == 128
        small = FalsifyConfig(trials=5, seed=4, tail_len=4096)
        assert_bounds_the_loop(falsify(theorem, 1, Params(alpha=0.25), small, spec),
                               theorem, 1, Params(alpha=0.25), small, spec)

    @pytest.mark.parametrize("n", ["x", None, 0, 1.5])
    def test_bad_class_index_names_itself(self, n):
        # n is validated before the block size is computed from it
        with pytest.raises(ParameterError) as info:
            falsify(Theorem.THM1, n, Params(), FalsifyConfig(trials=2))
        assert str(info.value) == "class index n must be a positive integer"

    def test_rho_lemma_smoke(self):
        cfg = FalsifyConfig(trials=10, seed=3)
        out = falsify(Theorem.LEM12, 1, Params(rho=0.5), cfg)
        assert out.fails == 0


def trial_rng(seed, tail_len, trial):
    """A generator that starts at trial's draws of falsify's stream, as the
    README's rebuild recipe makes it."""
    return np.random.Generator(np.random.PCG64(seed).advance(2 * tail_len * trial))


def stream_boxes(seed, trials, tail_len):
    """The boxes of trials cut from the one uniform(-1, 1) stream of
    default_rng(seed), with no advance: the draws before trials.start are
    made and dropped, at most 2^20 at a time."""
    gen = np.random.default_rng(seed)
    for done in range(0, 2 * tail_len * trials.start, 2**20):
        gen.uniform(-1.0, 1.0, size=min(2**20, 2 * tail_len * trials.start - done))
    return gen.uniform(-1.0, 1.0, size=(len(trials), tail_len, 2))


class TestTailStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7])
    @pytest.mark.parametrize("tail_len", [0, 1, 6, 33])
    def test_boxes_are_the_per_trial_draws(self, seed, tail_len):
        # trial t's box is its slice of one prefix draw, whatever the rows a
        # block and wherever the range starts
        for start, stop in ((0, 64), (37, 100)):
            want = np.random.default_rng(seed).uniform(-1, 1, size=(stop, tail_len, 2))[start:]
            for rows in (1, 5, 16, 64):
                boxes = list(_tail_boxes(seed, range(start, stop), tail_len, rows))
                assert [len(box) for box in boxes] == [min(rows, stop - i) for i in range(start, stop, rows)]
                assert np.array_equal(np.concatenate(boxes), want)

    def test_boxes_cross_the_state_chunk_edge(self):
        # _tail_boxes advances its generator to the first trial of its range:
        # near the trial cap, two adjacent ranges of 32-row blocks give the
        # boxes of one range, and both are the unadvanced stream's draws
        edge, stop = 10**6 - 1000, 10**6
        whole = list(_tail_boxes(2**64 + 3, range(edge - 520, stop), 6, 32))
        chunks = (range(edge - 520, edge), range(edge, stop))
        halves = [list(_tail_boxes(2**64 + 3, trials, 6, 32)) for trials in chunks]
        assert [len(box) for box in whole] == [32] * 47 + [16]
        assert [len(box) for box in halves[0] + halves[1]] == [32] * 16 + [8] + [32] * 31 + [8]
        want = stream_boxes(2**64 + 3, range(edge - 520, stop), 6)
        assert np.array_equal(np.concatenate(whole), want)
        assert np.array_equal(np.concatenate(halves[0] + halves[1]), want)

    def test_draw_windows_groups_and_state_chunks_join_up(self):
        # at tail_len 6 and 32 rows a block, the 507 blocks of a 16200-trial
        # range near the cap each draw on from where the last one stopped:
        # together they are the unadvanced stream's draws for that range
        trials = range(10**6 - 16200, 10**6)
        boxes = list(_tail_boxes(5, trials, 6, 32))
        assert [len(box) for box in boxes] == [32] * 506 + [8]
        assert np.array_equal(np.concatenate(boxes), stream_boxes(5, trials, 6))

    def test_a_trial_near_the_cap_is_rebuilt_alone(self):
        # the last trial a call may run, drawn alone by the rebuild recipe,
        # is its box in a block and its slice of one unadvanced prefix draw
        last = 10**6 - 1
        for seed in (0, 2**130 + 7):
            boxes = list(_tail_boxes(seed, range(last - 40, last + 1), 1, 7))
            alone = trial_rng(seed, 1, last).uniform(-1.0, 1.0, size=(1, 2))
            assert np.array_equal(boxes[-1][-1], alone)
            assert np.array_equal(alone, np.random.default_rng(seed).uniform(-1, 1, size=(last + 1, 1, 2))[last])

    @pytest.mark.parametrize("k", [1, 97, 2**17 - 1, 2**17])
    def test_advance_skips_draws(self, k):
        # the one numpy property the contract rests on: PCG64.advance(k) then
        # uniform gives values k... of the unadvanced stream
        for seed in (0, 2**64 + 3):
            advanced = np.random.Generator(np.random.PCG64(seed).advance(k)).uniform(-1.0, 1.0, size=9)
            assert np.array_equal(advanced, np.random.default_rng(seed).uniform(-1.0, 1.0, size=k + 9)[k:])

    def test_longest_tails_keep_draw_memory_bounded(self):
        # at the tail_len cap a block's draws are one trial's 2^17 values
        trials, tail_len = range(7, 9), 2**16
        want = np.random.default_rng(2**64 + 3).uniform(-1, 1, size=(trials.stop, tail_len, 2))[trials.start :]
        tracemalloc.start()
        try:
            boxes = _tail_boxes(2**64 + 3, trials, tail_len, 1)
            same = [np.array_equal(box, want[i : i + 1]) for i, box in enumerate(boxes)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same == [True, True]
        assert peak < 4 * 2**20


def per_trial_falsify(theorem, n, params, cfg, spec):
    """The falsifier as one sample_satisfying + check per trial, with the 16x
    dense re-check and counterexample record of a Fails: the oracle for the
    block-wise falsify. Each trial's generator is built alone by advance."""
    counts = dict.fromkeys(VerdictState, 0)
    min_margin = None
    records = []
    for trial in range(cfg.trials):
        f = sample_satisfying(theorem, n, params, cfg, trial_rng(cfg.seed, cfg.tail_len, trial))
        report = check(theorem, f, params, spec, cfg.r_max)
        if report.verdict.state is VerdictState.FAILS:
            report = check(theorem, f, params, GridSpec(m=16 * spec.m, refine_depth=spec.refine_depth), cfg.r_max)
            if report.verdict.state is VerdictState.FAILS:
                records.append({
                    "trial": trial,
                    "function": function_to_dict(f),
                    "witness": [report.verdict.witness.real, report.verdict.witness.imag],
                    "conclusion_value": report.concl.lower,
                    "conclusion_bound": report.concl_bound,
                })
        counts[report.verdict.state] += 1
        margin = report.verdict.conclusion_margin
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
        counterexamples=tuple(records),
    )


def assert_bounds_the_loop(got, theorem, n, params, cfg, spec):
    """got, a falsify summary, has the counts and counterexamples of
    per_trial_falsify on spec, and a smallest conclusion margin at most that
    loop's on spec and on the 16x denser grid, whose values include spec's."""
    want = per_trial_falsify(theorem, n, params, cfg, spec)
    assert replace(got, min_conclusion_margin=None) == replace(want, min_conclusion_margin=None)
    assert (got.min_conclusion_margin is None) == (want.min_conclusion_margin is None)
    dense = per_trial_falsify(theorem, n, params, cfg, GridSpec(m=16 * spec.m)).min_conclusion_margin
    for margin in (want.min_conclusion_margin, dense):
        assert margin is None or got.min_conclusion_margin <= margin


def _params(theorem, alpha, beta):
    if theorem in (Theorem.LEM11, Theorem.LEM12, Theorem.LEM3):
        return Params(beta=beta, rho=1.0 - alpha)
    return Params(alpha=alpha, beta=beta)


#: (grid, trials): one block of trials a call, on a coarse grid, on the
#: default one and on a fine one.
ORACLE_GRIDS = (
    (GridSpec(m=16, refine_depth=0), 40),
    (GridSpec(m=512, refine_depth=2), 37),
    (GridSpec(m=8192, refine_depth=3), 3),
)
ORACLE_TAIL_LENS = (0, 1, 6)


def block_points(monkeypatch, points):
    """Set the _BLOCK_POINTS of every module that sizes falsify's arrays:
    its coefficient blocks (witnesses), and the hypothesis grid chunks of
    _below (bounds._chunks)."""
    for module in ("witnesses", "bounds"):
        monkeypatch.setattr(f"diskcheck.{module}._BLOCK_POINTS", points)


#: _BLOCK_POINTS that gives 32-row coefficient blocks at n = 2 and tail_len 6.
POINTS_32_ROWS = 32 * 9


class TestFalsifyOracle:
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_summary_matches_per_trial_loop(self, theorem):
        # every theorem meets every grid with every tail length through n:
        # the loop's counts and counterexamples, and a margin no larger
        for n in (1, 2, 3):
            for i, (alpha, beta) in enumerate(((0.25, 0j), (0.6, -0.5 + 0.5j))):
                params = _params(theorem, alpha, beta)
                for j, (spec, trials) in enumerate(ORACLE_GRIDS):
                    tail_len = ORACLE_TAIL_LENS[(n + i + j) % 3]
                    cfg = FalsifyConfig(trials=trials, seed=17 + n, tail_len=tail_len)
                    assert_bounds_the_loop(falsify(theorem, n, params, cfg, spec), theorem, n, params, cfg, spec)

    @pytest.mark.parametrize("tail_len", [0, 1])
    def test_multiword_seed_and_short_tails(self, tail_len):
        # a seed of three 32-bit words
        spec = GridSpec(m=512, refine_depth=2)
        cfg = FalsifyConfig(trials=37, seed=2**70 + 1, tail_len=tail_len)
        for theorem in (Theorem.THM1, Theorem.THM2, Theorem.LEM12):
            params = _params(theorem, 0.25, 0.5j)
            assert_bounds_the_loop(falsify(theorem, 2, params, cfg, spec), theorem, 2, params, cfg, spec)

    @pytest.mark.parametrize("points", [64, 512, None])
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_summary_does_not_depend_on_block_points(self, theorem, points, monkeypatch):
        # at 64 and 512 points, coefficient blocks of 7 and 56 rows (n = 2,
        # tail_len 6) give the summary of one block a call, margin included;
        # that summary matches the per-trial loop
        for alpha, beta in ((0.25, 0j), (0.6, -0.5 + 0.5j)):
            params = _params(theorem, alpha, beta)
            for spec, trials in ORACLE_GRIDS:
                cfg = FalsifyConfig(trials=trials, seed=29)
                want = falsify(theorem, 2, params, cfg, spec)
                if points is None:
                    assert_bounds_the_loop(want, theorem, 2, params, cfg, spec)
                    continue
                with monkeypatch.context() as patch:
                    block_points(patch, points)
                    assert falsify(theorem, 2, params, cfg, spec) == want

    @pytest.mark.parametrize("theorem", [Theorem.THM2, Theorem.THM1])
    def test_every_trial_past_its_bound_is_rechecked_and_recorded(self, theorem, monkeypatch):
        # a conclusion bound of 1e-3 is below every cap, so every trial goes
        # through check, and every trial whose guard holds Fails there and at
        # the 16x dense re-check
        monkeypatch.setattr("diskcheck.checks._conclusion_bound", lambda theorem, params: 1e-3)
        params = Params(alpha=0.25)
        cfg = FalsifyConfig(trials=6, seed=4)
        spec = GridSpec(m=512, refine_depth=2)
        got = falsify(theorem, 2, params, cfg, spec)
        assert got == per_trial_falsify(theorem, 2, params, cfg, spec)
        assert got.fails == len(got.counterexamples) > 0
        if theorem is Theorem.THM2:
            assert [c["trial"] for c in got.counterexamples] == list(range(6))
        for record in got.counterexamples:
            f = sample_satisfying(theorem, 2, params, cfg, trial_rng(cfg.seed, cfg.tail_len, record["trial"]))
            assert record["function"] == function_to_dict(f)
            assert record["conclusion_bound"] == 1e-3
            assert record["conclusion_value"] >= 1e-3
            assert math.hypot(*record["witness"]) == pytest.approx(cfg.r_max, rel=1e-12)

    def test_uncertified_rows_are_left_to_check(self, monkeypatch):
        # a row is certified only where check holds, with a margin no larger
        # than check's; the rest are left to check
        params = Params(alpha=0.25)
        spec = GridSpec(m=512, refine_depth=2)
        r_max = 0.999

        def verdicts(theorem, tails):
            thr = diskcheck.checks.threshold(theorem, params, 1)
            sure, margins = _certified_rows(
                theorem, _tail_coeffs(1, np.array(tails, dtype=complex)), params, thr, spec, r_max)
            reports = [check(theorem, SeriesA.from_tail(1, t), params, spec, r_max) for t in tails]
            assert sure.tolist() == [True, False]
            assert reports[0].verdict.state is VerdictState.HOLDS
            assert margins[0] <= reports[0].verdict.conclusion_margin
            return reports

        thr = threshold(Theorem.THM2, params, 1)
        # the turn test of z + c z^2 is 2 c z, whose coefficient sum at r_max is 2 c r_max
        big = 1.01 * thr / (2.0 * r_max)
        big_report = verdicts(Theorem.THM2, [[0.05], [big]])[1]
        assert big_report.verdict.state is VerdictState.INCONCLUSIVE
        assert big_report.verdict.hypothesis_margin < 0

        # with the hypothesis threshold out of the way, f = z + 0.3 z^2 + 0.2 z^3
        # meets the thm3 conclusion Re f' > alpha on |z| = r_max (min 0.33) but
        # not the guard sup |f' - 1| < 1 (1.198)
        with monkeypatch.context() as patch:
            patch.setattr("diskcheck.checks.threshold", lambda theorem, params, n, **kw: 1e9)
            reports = verdicts(Theorem.THM3, [[0.1, 0.0], [0.3, 0.2]])
        assert reports[0].verdict.state is VerdictState.HOLDS
        assert reports[1].verdict.state is VerdictState.INCONCLUSIVE
        assert reports[1].verdict.conclusion_margin is None

        # a margin and r_max this close to 1 leave the coefficient sums no room
        # below the threshold, so the bracket decides every hypothesis, from
        # grids of at most 16384 values a call: all 5 rows at m = 512, two
        # rows at a time at m = 8192; the caps still certify every row
        bracketed = []
        real_sup_rows = diskcheck.bounds._sup_rows

        def counting_sup_rows(c, r, spec):
            bracketed.append(len(c))
            return real_sup_rows(c, r, spec)

        monkeypatch.setattr("diskcheck.bounds._sup_rows", counting_sup_rows)
        monkeypatch.setattr("diskcheck.witnesses.check", lambda *args: pytest.fail("a certified row went to check"))
        cfg = FalsifyConfig(trials=5, seed=1, margin=1.0 - 1e-12, r_max=1.0 - 1e-12)
        grids = (spec, GridSpec(m=8192, refine_depth=3))
        got = [falsify(Theorem.THM2, 2, params, cfg, grid) for grid in grids]
        assert bracketed == [5, 2, 2, 1]
        monkeypatch.undo()
        for summary, grid in zip(got, grids):
            assert_bounds_the_loop(summary, Theorem.THM2, 2, params, cfg, grid)

    @pytest.mark.parametrize("theorem", [Theorem.THM1, Theorem.COR1, Theorem.THM2])
    def test_sum_shortcut_decides_as_the_bracket(self, theorem, rng):
        # hypothesis and guard rows whose coefficient sums at r_max sit 2^-21
        # above and below their bound are left to the bracket, and rows 2^-19
        # below it are accepted from the sum; either way the decision is
        # poly_sup's
        params = Params(alpha=0.25, beta=0.5)
        spec = GridSpec(m=512, refine_depth=2)
        r_max = 0.999
        a = _tail_coeffs(1, rng.uniform(-1, 1, (6, 4)) + 1j * rng.uniform(-1, 1, (6, 4)))
        a[0, 3:] = 0.0  # a monomial row, whose grid meets its coefficient sum
        guard = Functional.RATIO_DEFECT if theorem is Theorem.THM1 else Functional.DERIV_MINUS_ONE
        for fun, beta, bound in ((HYPOTHESIS_FUNCTIONAL[theorem], 0.5, threshold(theorem, params, 1)),
                                 (guard, 0j, 1.0)):
            c = _polynomial_coeffs(fun, a, beta)
            sums = np.sum(np.abs(c) * r_max ** np.arange(c.shape[-1]), axis=-1)
            for rel in (1.0 + 2.0**-21, 1.0 - 2.0**-21, 1.0 - 2.0**-19):
                rows = c * (bound * rel / sums)[:, None]
                want = [poly_sup(PolySeries(row), r_max, spec).upper < bound for row in rows]
                assert _below(rows, r_max, bound, spec).tolist() == want
                assert rel < 1.0 or not want[0]


def raising(error):
    """An action that raises error."""

    def action():
        raise error

    return action


def failing_boxes(fail_at, action):
    """_tail_boxes that runs action before it yields the block starting at
    trial fail_at."""
    real = diskcheck.witnesses._tail_boxes

    def boxes(seed, trials, tail_len, rows):
        for start, box in zip(range(trials.start, trials.stop, rows), real(seed, trials, tail_len, rows)):
            if start == fail_at:
                action()
            yield box

    return boxes


class TestFalsifySerial:
    @pytest.mark.parametrize("theorem", [Theorem.THM2, Theorem.THM1])
    def test_counterexamples_keep_trial_order(self, theorem, monkeypatch):
        # with a conclusion bound of 1e-3, Fails rows fall in all three blocks
        # of 70 trials, 0-31, 32-63 and 64-69
        monkeypatch.setattr("diskcheck.checks._conclusion_bound", lambda theorem, params: 1e-3)
        monkeypatch.setattr("diskcheck.witnesses._BLOCK_POINTS", POINTS_32_ROWS)
        params = Params(alpha=0.25)
        cfg = FalsifyConfig(trials=70, seed=4)
        spec = GridSpec(m=512, refine_depth=2)
        got = falsify(theorem, 2, params, cfg, spec)
        assert got == per_trial_falsify(theorem, 2, params, cfg, spec)
        trials = [c["trial"] for c in got.counterexamples]
        assert trials == sorted(trials) and trials[0] < 32 and trials[-1] >= 64
        if theorem is Theorem.THM2:
            assert trials == list(range(70))

    @pytest.mark.parametrize("error", [InputError("injected at trial 96"), FloatingPointError("injected")])
    def test_error_comes_after_the_earlier_rechecks(self, error, monkeypatch):
        # 130 trials are blocks of 32; the block of trials 96-127 raises after
        # every earlier trial was checked, recorded Fails and re-checked, in
        # trial order
        monkeypatch.setattr("diskcheck.checks._conclusion_bound", lambda theorem, params: 1e-3)
        monkeypatch.setattr("diskcheck.witnesses._BLOCK_POINTS", POINTS_32_ROWS)
        params = Params(alpha=0.25)
        cfg = FalsifyConfig(trials=130, seed=4)
        spec = GridSpec(m=512, refine_depth=2)
        rechecked = []

        def recording_check(theorem, f, params, grid, r_max):
            rechecked.append((function_to_dict(f), grid.m))
            return check(theorem, f, params, grid, r_max)

        monkeypatch.setattr("diskcheck.witnesses.check", recording_check)
        monkeypatch.setattr("diskcheck.witnesses._tail_boxes", failing_boxes(96, raising(error)))
        with pytest.raises(type(error)) as info:
            falsify(Theorem.THM2, 2, params, cfg, spec)
        assert info.value is error
        # every trial's cap is above the bound: it is checked on the grid, and
        # re-checked on the 16x dense one
        assert rechecked == [
            (function_to_dict(sample_satisfying(Theorem.THM2, 2, params, cfg, trial_rng(cfg.seed, cfg.tail_len, t))), m)
            for t in range(96) for m in (512, 8192)]

    def test_floating_point_errors_follow_the_callers_errstate(self, monkeypatch):
        # numpy's error state is context-local, and every block is decided in
        # the caller's context: an overflow while the second of three 32-row
        # blocks is drawn raises under the caller's over="raise", and warns
        # under numpy's default
        monkeypatch.setattr("diskcheck.witnesses._BLOCK_POINTS", POINTS_32_ROWS)
        params = Params(alpha=0.25)
        cfg = FalsifyConfig(trials=96, seed=4)
        spec = GridSpec(m=512, refine_depth=2)
        states = []
        real_certified_rows = diskcheck.witnesses._certified_rows

        def recording_certified_rows(*args):
            states.append(np.geterr())
            return real_certified_rows(*args)

        def overflow():
            np.float64(1e308) * np.float64(10.0)

        monkeypatch.setattr("diskcheck.witnesses._certified_rows", recording_certified_rows)
        monkeypatch.setattr("diskcheck.witnesses._tail_boxes", failing_boxes(32, overflow))
        with np.errstate(over="raise", under="warn"):
            caller = np.geterr()
            with pytest.raises(FloatingPointError, match="overflow"):
                falsify(Theorem.THM1, 2, params, cfg, spec)
        assert states == [caller]
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = falsify(Theorem.THM1, 2, params, cfg, spec)
        assert states[1:] == [np.geterr()] * 3
        monkeypatch.undo()
        assert got == falsify(Theorem.THM1, 2, params, cfg, spec)


class TestFalsifyPruning:
    @pytest.mark.parametrize("tail_len", [6, 40])
    @pytest.mark.parametrize("spec", [None, GridSpec(m=64)], ids=["m512", "m64"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_drawn_rows_are_decided_without_a_grid(self, theorem, n, spec, tail_len, monkeypatch):
        # on falsify's own draws every hypothesis sum leaves room below its
        # threshold and every cap is below its bound (the vertex test below):
        # every trial is a certified holds, with no circle grid and no check
        calls = []
        real_rows, real_check = diskcheck.bounds._circle_rows, diskcheck.witnesses.check

        def counting_rows(*args):
            calls.append("grid")
            return real_rows(*args)

        def counting_check(*args):
            calls.append("check")
            return real_check(*args)

        for module in ("bounds", "checks"):
            monkeypatch.setattr(f"diskcheck.{module}._circle_rows", counting_rows)
        monkeypatch.setattr("diskcheck.witnesses.check", counting_check)
        for alpha, beta in ((0.25, 0j), (0.6, -0.5 + 0.5j)):
            params = _params(theorem, alpha, beta)
            for seed in (0, 1073741829):
                got = falsify(theorem, n, params, FalsifyConfig(seed=seed, tail_len=tail_len), spec)
                assert got.holds == 1000 and got.min_conclusion_margin > 0
        assert calls == []

    @pytest.mark.parametrize("patch", ["infinite caps", "bound 1e-3"])
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_rows_the_caps_leave_go_through_check(self, theorem, patch, monkeypatch):
        # with infinite caps, or a conclusion bound of 1e-3 below every cap,
        # no row is certified and every trial goes through check on the grid,
        # in blocks of 16 trials: the summary is the per-trial loop's, margin
        # included. With infinite caps, the identity (tail_len 0) and a third
        # parameter set, which puts beta 1e-9 inside its strip so that the
        # threshold, the tails and the conclusion values are all near 0, join:
        # their caps can be below 1e-3
        sets, tail_lens = [(0.25, 0j), (0.6, -0.5 + 0.5j)], (6, 40)
        if patch == "infinite caps":
            sets, tail_lens = sets + [(0.25, 2 + _RULES[theorem][1] - 1e-9)], (0, 6, 40)
            monkeypatch.setattr("diskcheck.checks._conclusion_caps",
                                lambda conclusion, a, bound, r: np.full(len(a), np.inf))
        else:
            monkeypatch.setattr("diskcheck.checks._conclusion_bound", lambda theorem, params: 1e-3)
        checked = []
        real_check = diskcheck.witnesses.check

        def counting_check(theorem, f, params, grid, r_max):
            checked[-1] += grid.m == spec.m
            return real_check(theorem, f, params, grid, r_max)

        monkeypatch.setattr("diskcheck.witnesses.check", counting_check)
        for alpha, beta in sets:
            params = _params(theorem, alpha, beta)
            for spec, trials in ORACLE_GRIDS:
                for tail_len in tail_lens:
                    monkeypatch.setattr("diskcheck.witnesses._BLOCK_POINTS", 16 * (3 + tail_len))
                    cfg = FalsifyConfig(trials=trials, seed=23, tail_len=tail_len)
                    checked.append(0)
                    got = falsify(theorem, 2, params, cfg, spec)
                    assert checked[-1] == trials
                    assert got == per_trial_falsify(theorem, 2, params, cfg, spec), (alpha, spec, tail_len)

    def test_fails_rows_do_not_lower_the_floor(self, monkeypatch):
        # trial 0 has a pole halfway between two points of the m = 64 grid, and
        # its guard sum leaves its cap infinite: it goes through check, fails
        # there, but its 16x dense re-check meets the pole and has no margin,
        # so its grid margin must not be the smallest (hypotheses out of the
        # way); the trials after it are certified
        spec, r = GridSpec(m=64, refine_depth=0), 0.999
        pole = math.pi + math.pi / spec.m
        tails = [[(1.0 - 5e-13) / r * np.exp(1j * (math.pi - pole)), 0.0], [0.05, 0.02j], [0.08, -0.03], [0.1j, 0.04]]
        rows = _tail_coeffs(1, np.array(tails))
        monkeypatch.setattr("diskcheck.witnesses._sample_rows", lambda theorem, n, params, target, box: rows)
        for module in ("checks", "witnesses"):
            monkeypatch.setattr(f"diskcheck.{module}.threshold", lambda theorem, params, n: 1e9)
        params = Params(alpha=0.25)
        got = falsify(Theorem.THM1, 1, params, FalsifyConfig(trials=4, tail_len=2, r_max=r), spec)
        sure, margins = _certified_rows(Theorem.THM1, rows, params, 1e9, spec, r)
        assert sure.tolist() == [False, True, True, True]
        assert check(Theorem.THM1, SeriesA(1, PolySeries(rows[0])), params, spec, r).verdict.state is VerdictState.FAILS
        assert (got.holds, got.inconclusive, got.fails) == (3, 1, 0)
        assert got.min_conclusion_margin == margins[1:].min() > 0

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_caps_just_above_the_bound_are_left_to_check(self, theorem, monkeypatch):
        # monomials z + c z^3 whose conclusion reaches its cap at a grid
        # point (alpha = 0.6, as in test_caps_bound_the_grid_values), with c
        # set by bisection so that the cap is the bound times 1 - 1e-3 and
        # 1 + 1e-3 (hypotheses out of the way): only the first is certified,
        # and the second fails in check and is reported
        params, spec, r = _params(theorem, 0.6, 0j), GridSpec(m=512), 0.999
        bound, conclusion = _conclusion_bound(theorem, params), _RULES[theorem][2]

        def monomial(target):
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                a = SeriesA.from_tail(2, [mid]).body.coeffs[None]
                lo, hi = (mid, hi) if _conclusion_caps(conclusion, a, bound, r)[0] < target else (lo, mid)
            return SeriesA.from_tail(2, [lo]).body.coeffs

        rows = np.array([monomial(bound * (1 - 1e-3)), monomial(bound * (1 + 1e-3))])
        for module in ("checks", "witnesses"):
            monkeypatch.setattr(f"diskcheck.{module}.threshold", lambda theorem, params, n: 1e9)
        sure, margins = _certified_rows(theorem, rows, params, 1e9, spec, r)
        assert sure.tolist() == [True, False]
        states = [check(theorem, SeriesA(2, PolySeries(row)), params, spec, r).verdict.state for row in rows]
        assert states == [VerdictState.HOLDS, VerdictState.FAILS]
        monkeypatch.setattr("diskcheck.witnesses._sample_rows", lambda theorem, n, params, target, box: rows)
        got = falsify(theorem, 2, params, FalsifyConfig(trials=2, tail_len=1, r_max=r), spec)
        assert (got.holds, got.inconclusive, got.fails) == (1, 0, 1)
        assert [c["trial"] for c in got.counterexamples] == [1]

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_caps_bound_the_grid_values(self, theorem, rng):
        # drawn rows of seven scales at n = 1 and 2, on every grid up to
        # m = 8192; every eighth row is a monomial z + c z^(n+1) with c > 0,
        # whose conclusion meets its cap at the grid point of angle pi / n
        # (at alpha = 0.6, where the 1/f' center 1/(2 alpha) is below 1)
        assert_caps_bound_the_grid_values(theorem, 0.6, rng)

    def test_thm3_caps_bound_the_grid_values_above_center_one(self, rng):
        # at alpha = 0.25 the 1/f' center c = 2 is above the center
        # 1/(1 - g^2) of the disk that 1/f' lies in, so the cap
        # c - 1/(1 + g) is met by a monomial at the grid point of angle 0
        assert_caps_bound_the_grid_values(Theorem.THM3, 0.25, rng)

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_the_monomial_vertex_cap_is_the_bound(self, theorem, rng):
        # falsify draws from the simplex sum_k w_k |a_k| <= thr of hypothesis
        # coefficient sums at r = 1, and every cap is largest at its vertex
        # z + c z^(n+1), c > 0 with sum thr: there the cap is the conclusion
        # bound, so no draw with margin < 1 can fail. thm3 at alpha < 1/2 is
        # the exception, as thm2's threshold dominates its own: its cap is
        # |1/(1 - a^2) - 1/(2a)| + a/(1 - a^2), 0.6 of the bound at a = 0.25.
        # Rows drawn onto the simplex's face never pass the vertex's cap.
        hyp_fun, _, conclusion = _RULES[theorem]
        for n in (1, 2, 3):
            for alpha in (0.0, 0.25, 0.5, 0.75):
                if theorem is Theorem.THM3 and alpha == 0.0:
                    continue
                for beta in (0j, 0.5 + 0j, -1 + 0j, 2j):
                    params = _params(theorem, alpha, beta)
                    thr, bound = threshold(theorem, params, n), _conclusion_bound(theorem, params)
                    a = SeriesA.from_tail(n, [1.0]).body.coeffs[None].copy()
                    a[:, n + 1] = thr / _coeff_sums(_polynomial_coeffs(hyp_fun, a, beta), 1.0)
                    cap = _conclusion_caps(conclusion, a, bound, 1.0)[0]
                    want = bound
                    if theorem is Theorem.THM3 and alpha < 0.5:
                        want = abs(1 / (1 - alpha**2) - bound) + alpha / (1 - alpha**2)
                    assert cap == pytest.approx(want, rel=2**-19), (n, alpha, beta)
                    drawn = _sample_rows(theorem, n, params, thr, rng.uniform(-1.0, 1.0, (64, 6, 2)))
                    assert (_conclusion_caps(conclusion, drawn, bound, 1.0) <= cap * (1 + 2**-19)).all()


def assert_caps_bound_the_grid_values(theorem, alpha, rng):
    """The caps of drawn rows of seven scales at n = 1 and 2 are at least
    their grid values at m = 16, 512 and 8192; on every eighth row, a
    monomial z + c z^(n+1) with c > 0, they equal its grid maximum to
    rounding."""
    params = _params(theorem, alpha, 0j)
    bound = _conclusion_bound(theorem, params)
    conclusion = _RULES[theorem][2]
    for n in (1, 2):
        a = _tail_coeffs(n, rng.uniform(-1.0, 1.0, (56, 6)) + 1j * rng.uniform(-1.0, 1.0, (56, 6)))
        a[:, n + 1:] *= np.repeat([1e-12, 1e-6, 1e-3, 0.03, 0.1, 0.3, 1e6], 8)[:, None]
        a[::8, n + 2:] = 0.0
        a[::8, n + 1] = np.abs(a[::8, n + 1])
        caps = _conclusion_caps(conclusion, a, bound, 0.999)
        assert np.isfinite(caps).sum() >= 24
        for m in (16, 512, 8192):
            # check's scan of each row alone, with no hypothesis row ahead
            lower = np.array([_conclusion_scan(conclusion, row[None], 0.999, GridSpec(m=m), abs, a[:0, :0],
                                               _center(conclusion, bound))[1][0] for row in a])
            known = ~np.isnan(lower)
            assert known[np.isfinite(caps)].all()
            assert (caps[known] >= lower[known]).all(), (n, m)
            tight = np.isfinite(caps[::8])
            np.testing.assert_allclose(lower[::8][tight], caps[::8][tight], rtol=2**-19, atol=2**-39)


class TestRadiusOfValidity:
    def test_halving_oracle(self):
        f = SeriesA.from_tail(1, [1.0])
        for thm in (Theorem.THM1, Theorem.THM2):
            rep = radius_of_validity(thm, f, Params(alpha=0.0))
            assert rep.status == "bracketed"
            assert rep.r_star == pytest.approx(0.5, abs=1e-4)
            assert rep.bracket_width <= 1e-6
            assert rep.iterations >= 10

    def test_monomial_closed_form(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            c = float(rng.uniform(0.3, 3.0))
            alpha = float(rng.uniform(0.0, 0.9))
            f = SeriesA.from_tail(n, [c])
            thr = threshold(Theorem.THM1, Params(alpha=alpha), n)
            want = (thr / (n * (n + 1) * c)) ** (1.0 / n)
            rep = radius_of_validity(Theorem.THM1, f, Params(alpha=alpha))
            if want >= 1.0:
                assert rep.status == "saturated"
            else:
                assert rep.r_star == pytest.approx(want, abs=2e-6)

    def test_saturated_for_identity(self):
        rep = radius_of_validity(Theorem.THM1, SeriesA.from_tail(1, []), Params())
        assert rep.status == "saturated"
        assert rep.r_star == 1.0
        assert rep.iterations == 0

    def test_empty_for_huge_coefficient(self):
        rep = radius_of_validity(Theorem.THM1, SeriesA.from_tail(1, [1e30]), Params())
        assert rep.status == "empty"
        assert rep.r_star == 0.0

    def test_bracketed_scale_is_certified(self):
        # r_star is the certified lower end of the bisection bracket: at it, the
        # hypothesis coefficient sum is below the threshold, for every loadable
        # corpus file and theorem
        bracketed = 0
        for path in sorted((pathlib.Path(__file__).parent / "corpus").glob("*.json")):
            try:
                f = load_function(str(path))
            except InputError:
                continue
            for theorem in Theorem:
                for alpha, beta in ((0.5, 0j), (0.25, 0.5 + 0j)):
                    params = _params(theorem, alpha, beta)
                    rep = radius_of_validity(theorem, f, params)
                    if rep.status == "bracketed":
                        h = _polynomial_coeffs(HYPOTHESIS_FUNCTIONAL[theorem], f.body.coeffs, beta)
                        assert _coeff_sums(h, rep.r_star) < threshold(theorem, params, f.n), (path.name, theorem)
                        bracketed += 1
        assert bracketed >= 100

    def test_monotone_in_coefficient_size(self):
        stars = []
        for c in (0.6, 1.0, 2.0):
            rep = radius_of_validity(Theorem.THM2, SeriesA.from_tail(1, [c]), Params())
            stars.append(rep.r_star)
        assert stars[0] > stars[1] > stars[2]

    def test_monotone_in_alpha(self):
        f = SeriesA.from_tail(1, [1.0])
        a0 = radius_of_validity(Theorem.THM1, f, Params(alpha=0.0)).r_star
        a5 = radius_of_validity(Theorem.THM1, f, Params(alpha=0.5)).r_star
        assert a0 == pytest.approx(0.5, abs=1e-4)
        assert a5 == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert a5 < a0

    def test_rho_lemma_radius(self):
        # lem11 with rho = 0.25: coefficient 2 c r < rho |2 - 0| = 0.5
        rep = radius_of_validity(Theorem.LEM11, SeriesA.from_tail(1, [1.0]), Params(rho=0.25))
        assert rep.r_star == pytest.approx(0.25, abs=1e-4)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            radius_of_validity(Theorem.LEM11, SeriesA.from_tail(1, [0.5]), Params())
