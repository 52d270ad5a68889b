"""Sharp witnesses, the falsifier, and the validity-radius bisection."""

import math
import threading
import tracemalloc

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
    circle_max,
    eval_functional,
    falsify,
    make_witness,
    poly_sup,
    radius_of_validity,
    sample_satisfying,
    threshold,
    witness_closed_forms,
)
from diskcheck.bounds import _below
from diskcheck.checks import _STATES, HYPOTHESIS_FUNCTIONAL, _check_rows
from diskcheck.funcspec import function_to_dict
from diskcheck.functionals import _polynomial_coeffs, as_polynomial
from diskcheck.series import _tail_coeffs
from diskcheck.witnesses import FalsifySummary, _tail_boxes

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
        hyp = poly_sup(as_polynomial(Functional.STAR_TEST, f, beta), r, DENSE)
        assert hyp.lower == pytest.approx(forms.hyp_sup_on_circle, rel=1e-12)
        assert hyp.upper == pytest.approx(forms.hyp_sup_on_circle, rel=1e-12)
        got = circle_max(lambda zs: eval_functional(Functional.STAR_QUOTIENT, f, 0j, zs), r, DENSE)
        assert got == pytest.approx(forms.concl_sup_on_circle, abs=1e-6 * (1 + forms.concl_sup_on_circle))

    @pytest.mark.parametrize("r", LADDER)
    @pytest.mark.parametrize("which,alpha", [(Witness.EX2, 0.25), (Witness.EX3, 0.4)])
    def test_turning_witness_forms_match(self, which, alpha, r):
        n, beta = 2, -1 + 0j
        f = make_witness(which, n, alpha)
        forms = witness_closed_forms(which, n, alpha, beta, r)
        hyp = poly_sup(as_polynomial(Functional.TURN_TEST, f, beta), r, DENSE)
        assert hyp.lower == pytest.approx(forms.hyp_sup_on_circle, rel=1e-12)
        concl = poly_sup(as_polynomial(Functional.DERIV_MINUS_ONE, f), r, DENSE)
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
            poly = as_polynomial(HYPOTHESIS_FUNCTIONAL[Theorem.THM1], f, params.beta)
            bound = sum(abs(c) for c in poly.coeffs)
            assert bound <= 0.9 * threshold(Theorem.THM1, params, 1) * (1 + 1e-12)

    def test_rescale_hits_target_exactly(self):
        cfg = FalsifyConfig(tail_len=6, margin=0.5)
        params = Params(alpha=0.0)
        rng = np.random.default_rng(3)
        f = sample_satisfying(Theorem.THM2, 2, params, cfg, rng)
        poly = as_polynomial(HYPOTHESIS_FUNCTIONAL[Theorem.THM2], f, 0j)
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
        # a block's coefficient rows count against its 16384 values, as its
        # grids do: at m = 16 a 4096-term tail gives 3 rows a block, not 1024
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
        assert falsify(theorem, 1, Params(alpha=0.25), small, spec) == per_trial_falsify(
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
        # each falsify chunk advances its own generator to its first trial:
        # near the trial cap, two chunks of 32-row blocks give the boxes of
        # one range, and both are the unadvanced stream's draws
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
                    "witness": [report.witness.real, report.witness.imag],
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


def _params(theorem, alpha, beta):
    if theorem in (Theorem.LEM11, Theorem.LEM12, Theorem.LEM3):
        return Params(beta=beta, rho=1.0 - alpha)
    return Params(alpha=alpha, beta=beta)


#: (grid, trials): 32 rows a block for m = 512, two rows for m = 8192, and a
#: single partial block for m = 16; no trial count is a multiple of its rows.
ORACLE_GRIDS = (
    (GridSpec(m=16, refine_depth=0), 40),
    (GridSpec(m=512, refine_depth=2), 37),
    (GridSpec(m=8192, refine_depth=3), 3),
)
ORACLE_TAIL_LENS = (0, 1, 6)


class TestFalsifyOracle:
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_summary_equals_per_trial_loop(self, theorem):
        # every theorem meets every grid with every tail length through n
        for n in (1, 2, 3):
            for i, (alpha, beta) in enumerate(((0.25, 0j), (0.6, -0.5 + 0.5j))):
                params = _params(theorem, alpha, beta)
                for j, (spec, trials) in enumerate(ORACLE_GRIDS):
                    tail_len = ORACLE_TAIL_LENS[(n + i + j) % 3]
                    cfg = FalsifyConfig(trials=trials, seed=17 + n, tail_len=tail_len)
                    got = falsify(theorem, n, params, cfg, spec)
                    assert got == per_trial_falsify(theorem, n, params, cfg, spec), (n, alpha, spec, tail_len)

    @pytest.mark.parametrize("tail_len", [0, 1])
    def test_multiword_seed_and_short_tails(self, tail_len):
        # a seed of three 32-bit words, and 37 trials at 32 rows a block
        spec = GridSpec(m=512, refine_depth=2)
        cfg = FalsifyConfig(trials=37, seed=2**70 + 1, tail_len=tail_len)
        for theorem in (Theorem.THM1, Theorem.THM2, Theorem.LEM12):
            params = _params(theorem, 0.25, 0.5j)
            assert falsify(theorem, 2, params, cfg, spec) == per_trial_falsify(theorem, 2, params, cfg, spec)

    @pytest.mark.parametrize("theorem", [Theorem.THM2, Theorem.THM1])
    def test_every_trial_past_its_bound_is_rechecked_and_recorded(self, theorem, monkeypatch):
        # a conclusion bound of 1e-3 turns every trial whose guard holds into
        # Fails, at the coarse grid and at the 16x dense re-check
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
        # each block row gets check's own verdict, uncertified ones included
        params = Params(alpha=0.25)
        spec = GridSpec(m=512, refine_depth=2)
        r_max = 0.999

        def verdicts(theorem, tails):
            thr = diskcheck.checks.threshold(theorem, params, 1)
            states, margins = _check_rows(
                theorem, _tail_coeffs(1, np.array(tails, dtype=complex)), params, thr, spec, r_max)
            reports = [check(theorem, SeriesA.from_tail(1, t), params, spec, r_max) for t in tails]
            assert [(_STATES[s], None if m != m else m) for s, m in zip(states, margins.tolist())] == [
                (rep.verdict.state, rep.verdict.conclusion_margin) for rep in reports]
            return reports

        thr = threshold(Theorem.THM2, params, 1)
        # the turn test of z + c z^2 is 2 c z, whose coefficient sum at r_max is 2 c r_max
        big = 1.01 * thr / (2.0 * r_max)
        small_report, big_report = verdicts(Theorem.THM2, [[0.05], [big]])
        assert small_report.verdict.state is VerdictState.HOLDS
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
        # below the threshold, so the bracket decides every hypothesis
        bracketed = []
        real_sup_rows = diskcheck.bounds._sup_rows

        def counting_sup_rows(c, r, spec):
            bracketed.append(len(c))
            return real_sup_rows(c, r, spec)

        monkeypatch.setattr("diskcheck.bounds._sup_rows", counting_sup_rows)
        monkeypatch.setattr("diskcheck.witnesses.check", lambda *args: pytest.fail("only a Fails row goes to check"))
        cfg = FalsifyConfig(trials=5, seed=1, margin=1.0 - 1e-12, r_max=1.0 - 1e-12)
        got = falsify(Theorem.THM2, 2, params, cfg, spec)
        assert bracketed == [5]
        monkeypatch.undo()
        assert got == per_trial_falsify(Theorem.THM2, 2, params, cfg, spec)

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


def on_workers(patch, workers):
    """Let falsify split its trials over up to workers threads, whatever the
    CPUs of the machine the tests run on."""
    patch.setattr("diskcheck.witnesses._WORKERS", workers)
    patch.setattr("diskcheck.witnesses._usable_cpus", lambda: 2)


def raising(error):
    """An action that raises error."""

    def action():
        raise error

    return action


def recording_chunks(patch):
    """Record the trial range, thread and stop event of every falsify chunk."""
    chunks = []
    real = diskcheck.witnesses._decide_chunk

    def decide_chunk(*args):
        chunks.append((args[-2], threading.current_thread(), args[-1]))
        chunks.sort(key=lambda chunk: chunk[0].start)
        return real(*args)

    patch.setattr("diskcheck.witnesses._decide_chunk", decide_chunk)
    return chunks


def failing_boxes(fail_at, action):
    """_tail_boxes that runs action before it yields the block starting at
    trial fail_at, and the list of the block starts it has yielded."""
    real = diskcheck.witnesses._tail_boxes
    yielded = []

    def boxes(seed, trials, tail_len, rows):
        for start, box in zip(range(trials.start, trials.stop, rows), real(seed, trials, tail_len, rows)):
            if start == fail_at:
                action()
            yielded.append(start)
            yield box

    return boxes, yielded


class TestFalsifyThreads:
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_summary_does_not_depend_on_the_worker_count(self, theorem, monkeypatch):
        # the m = 512 and m = 8192 grids have two blocks, one a chunk
        params = _params(theorem, 0.6, -0.5 + 0.5j)
        for spec, trials in ORACLE_GRIDS:
            cfg = FalsifyConfig(trials=trials, seed=5, tail_len=6)
            got = {}
            for workers in (1, 2):
                with monkeypatch.context() as patch:
                    on_workers(patch, workers)
                    chunks = recording_chunks(patch)
                    got[workers] = falsify(theorem, 2, params, cfg, spec)
                rows = 16384 // spec.m
                want = [range(trials)] if workers == 1 or rows >= trials else [range(rows), range(rows, trials)]
                assert [chunk[0] for chunk in chunks] == want
                assert [chunk[1] is threading.current_thread() for chunk in chunks] == [True, False][: len(want)]
            assert got[1] == got[2]

    @pytest.mark.parametrize("theorem", [Theorem.THM2, Theorem.THM1])
    def test_counterexamples_of_both_chunks_keep_trial_order(self, theorem, monkeypatch):
        # with a conclusion bound of 1e-3, Fails rows fall in both chunks of
        # 70 trials, blocks 0-31 and 32-69
        monkeypatch.setattr("diskcheck.checks._conclusion_bound", lambda theorem, params: 1e-3)
        params = Params(alpha=0.25)
        cfg = FalsifyConfig(trials=70, seed=4)
        spec = GridSpec(m=512, refine_depth=2)
        got = {}
        for workers in (1, 2):
            with monkeypatch.context() as patch:
                on_workers(patch, workers)
                got[workers] = falsify(theorem, 2, params, cfg, spec)
        assert got[1] == got[2]
        trials = [c["trial"] for c in got[2].counterexamples]
        assert trials == sorted(trials) and trials[0] < 32 <= trials[-1]
        if theorem is Theorem.THM2:
            assert trials == list(range(70))

    @pytest.mark.parametrize("error", [InputError("injected at trial 96"), FloatingPointError("injected")])
    def test_error_in_the_second_chunk_is_raised_as_serially(self, error, monkeypatch):
        # 130 trials are chunks 0-63 and 64-129; the block of trials 96-127
        # raises after every earlier trial was recorded Fails and re-checked
        monkeypatch.setattr("diskcheck.checks._conclusion_bound", lambda theorem, params: 1e-3)
        params = Params(alpha=0.25)
        cfg = FalsifyConfig(trials=130, seed=4)
        spec = GridSpec(m=512, refine_depth=2)
        before = threading.active_count()
        rechecked = {}
        for workers in (1, 2):
            with monkeypatch.context() as patch:
                on_workers(patch, workers)
                rechecked[workers] = []

                def recording_check(theorem, f, *args, seen=rechecked[workers]):
                    seen.append(function_to_dict(f))
                    return check(theorem, f, *args)

                patch.setattr("diskcheck.witnesses.check", recording_check)
                patch.setattr("diskcheck.witnesses._tail_boxes", failing_boxes(96, raising(error))[0])
                with pytest.raises(type(error)) as info:
                    falsify(Theorem.THM2, 2, params, cfg, spec)
            assert info.value is error
            assert threading.active_count() == before
        assert len(rechecked[1]) == 96
        assert rechecked[1] == rechecked[2]

    @pytest.mark.parametrize("error", [InputError("injected at trial 0"), KeyboardInterrupt()])
    def test_error_in_the_first_chunk_stops_the_second(self, error, monkeypatch):
        # the second chunk, blocks 160-319, waits before its second block
        # until the first chunk has raised, and so decides at most two blocks
        cfg = FalsifyConfig(trials=320, seed=4)
        spec = GridSpec(m=512, refine_depth=2)
        before = threading.active_count()
        on_workers(monkeypatch, 2)
        chunks = recording_chunks(monkeypatch)
        fail_boxes, _ = failing_boxes(0, raising(error))
        wait_boxes, yielded = failing_boxes(192, lambda: chunks[0][2].wait(10.0))
        monkeypatch.setattr("diskcheck.witnesses._tail_boxes", lambda seed, trials, tail_len, rows: (
            fail_boxes if trials.start == 0 else wait_boxes)(seed, trials, tail_len, rows))
        with pytest.raises(type(error)) as info:
            falsify(Theorem.THM2, 2, Params(alpha=0.25), cfg, spec)
        assert info.value is error
        assert threading.active_count() == before
        assert [trials for trials, _, _ in chunks] == [range(160), range(160, 320)]
        assert chunks[0][2] is chunks[1][2] and chunks[1][2].is_set()
        assert yielded == [160, 192][: len(yielded)]

    def test_worker_keeps_the_callers_floating_point_state(self, monkeypatch):
        # numpy's error state is context-local, and a worker runs in a copy of
        # the caller's context: an overflow in the second chunk raises under
        # the caller's over="raise", and warns under numpy's default
        params = Params(alpha=0.25)
        cfg = FalsifyConfig(trials=64, seed=4)
        spec = GridSpec(m=512, refine_depth=2)
        states = []
        real_check_rows = diskcheck.witnesses._check_rows

        def recording_check_rows(*args):
            states.append((np.geterr(), threading.current_thread() is threading.main_thread()))
            return real_check_rows(*args)

        def overflow():
            np.float64(1e308) * np.float64(10.0)

        monkeypatch.setattr("diskcheck.witnesses._check_rows", recording_check_rows)
        outcomes = {}
        for workers in (1, 2):
            with monkeypatch.context() as patch:
                on_workers(patch, workers)
                patch.setattr("diskcheck.witnesses._tail_boxes", failing_boxes(32, overflow)[0])
                with np.errstate(over="raise", under="warn"):
                    caller = np.geterr()
                    with pytest.raises(FloatingPointError) as info:
                        falsify(Theorem.THM1, 2, params, cfg, spec)
                assert [state for state, _ in states] == [caller]
                with pytest.warns(RuntimeWarning, match="overflow"):
                    outcomes[workers] = falsify(Theorem.THM1, 2, params, cfg, spec)
                assert [state for state, _ in states[1:]] == [np.geterr()] * 2
            assert sorted(main for _, main in states) == [workers == 1, True, True]
            outcomes[workers] = (str(info.value), outcomes[workers])
            states.clear()
        assert outcomes[1] == outcomes[2]


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
