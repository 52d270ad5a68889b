"""Sharp witnesses, the falsifier, and the validity-radius bisection."""

import math
import pathlib
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
from diskcheck.bounds import _below, _coeff_sums, _sup_rows, _sup_upper
from diskcheck.checks import _FAILS, _RULES, _STATES, HYPOTHESIS_FUNCTIONAL, _check_rows, _conclusion_bound, \
    _NO_ROWS, _conclusion_caps, _conclusion_rows
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
        # 4096-term tail gives 3 rows a block, and its m = 16 grids are
        # scanned 3 rows a chunk, not 1024
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


def _params(theorem, alpha, beta):
    if theorem in (Theorem.LEM11, Theorem.LEM12, Theorem.LEM3):
        return Params(beta=beta, rho=1.0 - alpha)
    return Params(alpha=alpha, beta=beta)


#: (grid, trials): one block of trials, its conclusions scanned 32 rows a
#: chunk for m = 512, two rows for m = 8192, and in a single partial chunk
#: for m = 16; no trial count is a multiple of its chunk.
ORACLE_GRIDS = (
    (GridSpec(m=16, refine_depth=0), 40),
    (GridSpec(m=512, refine_depth=2), 37),
    (GridSpec(m=8192, refine_depth=3), 3),
)
ORACLE_TAIL_LENS = (0, 1, 6)


def block_points(monkeypatch, points):
    """Set the _BLOCK_POINTS of every module that sizes falsify's arrays:
    its coefficient blocks (witnesses), and its hypothesis grid and
    conclusion chunks (bounds._chunks)."""
    for module in ("witnesses", "bounds"):
        monkeypatch.setattr(f"diskcheck.{module}._BLOCK_POINTS", points)


#: _BLOCK_POINTS that gives 32-row coefficient blocks at n = 2 and tail_len 6.
POINTS_32_ROWS = 32 * 9


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
        # a seed of three 32-bit words, and 37 trials scanned 32 rows a chunk
        spec = GridSpec(m=512, refine_depth=2)
        cfg = FalsifyConfig(trials=37, seed=2**70 + 1, tail_len=tail_len)
        for theorem in (Theorem.THM1, Theorem.THM2, Theorem.LEM12):
            params = _params(theorem, 0.25, 0.5j)
            assert falsify(theorem, 2, params, cfg, spec) == per_trial_falsify(theorem, 2, params, cfg, spec)

    @pytest.mark.parametrize("points", [64, 512, None])
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_summary_does_not_depend_on_block_points(self, theorem, points, monkeypatch):
        # at 64 and 512 points, coefficient blocks of 7 and 56 rows (n = 2,
        # tail_len 6) and grids of 1 to 32 rows a chunk; at the default, one
        # block a call
        if points is not None:
            block_points(monkeypatch, points)
        for alpha, beta in ((0.25, 0j), (0.6, -0.5 + 0.5j)):
            params = _params(theorem, alpha, beta)
            for spec, trials in ORACLE_GRIDS:
                cfg = FalsifyConfig(trials=trials, seed=29)
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
                theorem, _tail_coeffs(1, np.array(tails, dtype=complex)), params, thr, spec, r_max, math.nan)
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
        # below the threshold, so the bracket decides every hypothesis, from
        # grids of at most 16384 values a call: all 5 rows at m = 512, two
        # rows at a time at m = 8192
        bracketed = []
        real_sup_rows = diskcheck.bounds._sup_rows

        def counting_sup_rows(c, r, spec):
            bracketed.append(len(c))
            return real_sup_rows(c, r, spec)

        monkeypatch.setattr("diskcheck.bounds._sup_rows", counting_sup_rows)
        monkeypatch.setattr("diskcheck.witnesses.check", lambda *args: pytest.fail("only a Fails row goes to check"))
        cfg = FalsifyConfig(trials=5, seed=1, margin=1.0 - 1e-12, r_max=1.0 - 1e-12)
        grids = (spec, GridSpec(m=8192, refine_depth=3))
        got = [falsify(Theorem.THM2, 2, params, cfg, grid) for grid in grids]
        assert bracketed == [5, 2, 2, 1]
        monkeypatch.undo()
        assert got == [per_trial_falsify(Theorem.THM2, 2, params, cfg, grid) for grid in grids]

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
        # every earlier trial was recorded Fails and re-checked, in trial order
        monkeypatch.setattr("diskcheck.checks._conclusion_bound", lambda theorem, params: 1e-3)
        monkeypatch.setattr("diskcheck.witnesses._BLOCK_POINTS", POINTS_32_ROWS)
        params = Params(alpha=0.25)
        cfg = FalsifyConfig(trials=130, seed=4)
        spec = GridSpec(m=512, refine_depth=2)
        rechecked = []

        def recording_check(theorem, f, *args):
            rechecked.append(function_to_dict(f))
            return check(theorem, f, *args)

        monkeypatch.setattr("diskcheck.witnesses.check", recording_check)
        monkeypatch.setattr("diskcheck.witnesses._tail_boxes", failing_boxes(96, raising(error)))
        with pytest.raises(type(error)) as info:
            falsify(Theorem.THM2, 2, params, cfg, spec)
        assert info.value is error
        assert rechecked == [
            function_to_dict(sample_satisfying(Theorem.THM2, 2, params, cfg, trial_rng(cfg.seed, cfg.tail_len, t)))
            for t in range(96)]

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
        real_check_rows = diskcheck.witnesses._check_rows

        def recording_check_rows(*args):
            states.append(np.geterr())
            return real_check_rows(*args)

        def overflow():
            np.float64(1e308) * np.float64(10.0)

        monkeypatch.setattr("diskcheck.witnesses._check_rows", recording_check_rows)
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
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_summary_equals_the_unpruned_rule(self, theorem, monkeypatch):
        # every ORACLE_GRIDS grid runs at least three blocks, of four chunks at
        # m = 16 and 512 and of two at m = 8192, so rows are pruned against the
        # margins of earlier blocks and of earlier chunks; the last parameter
        # set puts beta 1e-9 inside its strip, so the threshold, the tails and
        # the conclusion values are all near 0
        edge = 2 + _RULES[theorem][1] - 1e-9
        scanned = []
        real_rows = diskcheck.checks._conclusion_rows

        def counting_rows(conclusion, a, *args):
            scanned[-1] += len(a)
            return real_rows(conclusion, a, *args)

        monkeypatch.setattr("diskcheck.checks._conclusion_rows", counting_rows)
        monkeypatch.setattr("diskcheck.bounds._BLOCK_POINTS", 4096)
        got = {}
        for prune in (True, False):
            scanned.append(0)
            with monkeypatch.context() as patch:
                if not prune:  # infinite caps: every row is scanned whatever its floor
                    patch.setattr("diskcheck.checks._conclusion_caps",
                                  lambda conclusion, a, bound, r, sums: np.full(len(a), np.inf))
                got[prune] = []
                for alpha, beta in ((0.25, 0j), (0.6, -0.5 + 0.5j), (0.25, edge)):
                    params = _params(theorem, alpha, beta)
                    for spec, trials in ORACLE_GRIDS:
                        for tail_len in (0, 1, 6, 40):
                            rows = 16384 // max(spec.m, 3 + tail_len)
                            patch.setattr("diskcheck.witnesses._BLOCK_POINTS", rows * (3 + tail_len))
                            cfg = FalsifyConfig(trials=2 * rows + trials, seed=23, tail_len=tail_len)
                            got[prune].append(falsify(theorem, 2, params, cfg, spec))
        assert got[True] == got[False]
        assert scanned[0] < scanned[1]

    @pytest.mark.parametrize("theorem", [Theorem.THM1, Theorem.COR1, Theorem.THM3])
    def test_coarse_caps_scan_at_most_two_chunks(self, theorem, monkeypatch):
        # calls that scanned many rows on coefficient-sum caps alone (493
        # for thm1, 310 for cor1, 332 for thm3 at m = 512): the m' = 64 caps
        # leave at most two 32-row chunks to scan, and the summary is that
        # of infinite caps, which scan every row
        params, cfg = Params(alpha=0.25, beta=0.5), FalsifyConfig(trials=1000, seed=1073741829)
        scanned = []
        real_rows = diskcheck.checks._conclusion_rows

        def counting_rows(conclusion, a, *args):
            scanned[-1] += len(a)
            return real_rows(conclusion, a, *args)

        monkeypatch.setattr("diskcheck.checks._conclusion_rows", counting_rows)
        scanned.append(0)
        got = falsify(theorem, 2, params, cfg)
        assert got.fails == 0 and scanned[-1] <= 64
        monkeypatch.setattr("diskcheck.checks._conclusion_caps",
                            lambda conclusion, a, bound, r, sums: np.full(len(a), np.inf))
        scanned.append(0)
        assert falsify(theorem, 2, params, cfg) == got
        assert scanned[-1] == 1000

    @pytest.mark.parametrize("m, tail_len, coarse", [(512, 6, True), (64, 6, False), (512, 128, False)])
    def test_coarse_caps_only_below_the_grid(self, m, tail_len, coarse, monkeypatch):
        # m' = 64 at n = 2 and tail_len 6 is below the default m = 512 but
        # not below --grid-m 64, and m' = 1024 for 128-term tails is above
        # 512: there every cap comes from coefficient sums, although both
        # calls scan past their first chunk (510 and 1000 rows)
        sums = []
        real_caps = diskcheck.checks._conclusion_caps

        def recording_caps(conclusion, a, bound, r, how):
            sums.append(how)
            return real_caps(conclusion, a, bound, r, how)

        monkeypatch.setattr("diskcheck.checks._conclusion_caps", recording_caps)
        cfg = FalsifyConfig(trials=1000, seed=1073741829, tail_len=tail_len)
        falsify(Theorem.THM1, 2, Params(alpha=0.25, beta=0.5), cfg, GridSpec(m=m))
        assert sums[0] is _coeff_sums
        assert any(how is not _coeff_sums for how in sums) == coarse

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_rows_at_the_bound_fail_under_a_negative_floor(self, theorem, monkeypatch, rng):
        # with a conclusion bound of 1e-3, drawn rows reach the bound and the
        # rows scaled down by 1e-6 stay below it; a floor of -1 may prune only
        # the latter
        monkeypatch.setattr("diskcheck.checks._conclusion_bound", lambda theorem, params: 1e-3)
        params = _params(theorem, 0.25, 0j)
        thr = threshold(theorem, params, 2)
        spec = GridSpec(m=512, refine_depth=2)
        a = _sample_rows(theorem, 2, params, 0.9 * thr, rng.uniform(-1.0, 1.0, (16, 6, 2)))
        a[8:, 3:] *= 1e-6
        want_states, want_margins = _check_rows(theorem, a, params, thr, spec, 0.999, math.nan)
        states, margins = _check_rows(theorem, a, params, thr, spec, 0.999, -1.0)
        failed = want_states == _FAILS
        assert failed[:8].all()
        assert states.tolist() == want_states.tolist()
        assert margins[failed].tolist() == want_margins[failed].tolist()
        assert (margins <= want_margins).all()

    @pytest.mark.parametrize("seed", [0, 1073741829])
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_chunks_come_in_ascending_cap_margin(self, theorem, seed, monkeypatch):
        # a default 1000-trial call is one block, scanned 32 rows a chunk in
        # ascending order of cap margin: coefficient-sum caps in the first
        # chunk, the smaller of those and the m' = 64 caps after it (seed 0
        # mostly scans one chunk, 1073741829 several); it scans fewer rows
        # than blocks of 32 trials, each one chunk pruned only against
        # earlier blocks
        params = _params(theorem, 0.25, 0j)
        bound = _conclusion_bound(theorem, params)
        conclusion = _RULES[theorem][2]
        cfg = FalsifyConfig(trials=1000, seed=seed)
        chunks = []
        real_rows = diskcheck.checks._conclusion_rows

        def recording_rows(conclusion, a, *args):
            chunks.append(a)
            return real_rows(conclusion, a, *args)

        monkeypatch.setattr("diskcheck.checks._conclusion_rows", recording_rows)
        got = falsify(theorem, 2, params, cfg)
        caps = [_conclusion_caps(conclusion, a, bound, cfg.r_max, _coeff_sums) for a in chunks]
        caps[1:] = [np.fmin(cap, _conclusion_caps(conclusion, a, bound, cfg.r_max, coarse_sums(64)))
                    for cap, a in zip(caps[1:], chunks[1:])]
        margins = [bound - cap for cap in caps]
        assert [len(m) for m in margins[:-1]] == [32] * (len(margins) - 1)
        assert (np.diff(np.concatenate(margins)) >= 0).all()
        scanned = sum(map(len, margins))
        chunks.clear()
        monkeypatch.setattr("diskcheck.witnesses._BLOCK_POINTS", POINTS_32_ROWS)
        assert falsify(theorem, 2, params, cfg) == got
        assert scanned < sum(map(len, chunks))

    @pytest.mark.parametrize("floor", [math.nan, 0.0, 1e-4, 1.0])
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_rows_at_the_bound_are_always_scanned(self, theorem, floor, monkeypatch, rng):
        # as in test_rows_at_the_bound_fail_under_a_negative_floor, drawn rows
        # reach a bound of 1e-3 and rows scaled down by 1e-6 stay below it
        # (but for thm3, whose 1/f' center is then 1e-3); at the other floors
        # and one row a chunk, so that floor falls between chunks, every row
        # whose cap margin is at most 0 is scanned and comes back Fails, as
        # the unpruned rule has it
        monkeypatch.setattr("diskcheck.checks._conclusion_bound", lambda theorem, params: 1e-3)
        block_points(monkeypatch, 512)
        params = _params(theorem, 0.25, 0j)
        thr = threshold(theorem, params, 2)
        spec = GridSpec(m=512, refine_depth=2)
        a = _sample_rows(theorem, 2, params, 0.9 * thr, rng.uniform(-1.0, 1.0, (16, 6, 2)))
        a[1::2, 3:] *= 1e-6
        at_bound = np.flatnonzero(_conclusion_caps(_RULES[theorem][2], a, 1e-3, 0.999, _coeff_sums) >= 1e-3)
        want_states, want_margins = _check_rows(theorem, a, params, thr, spec, 0.999, math.nan)
        scanned = []
        real_rows = diskcheck.checks._conclusion_rows

        def recording_rows(conclusion, rows, *args):
            scanned.extend(map(bytes, rows))
            return real_rows(conclusion, rows, *args)

        monkeypatch.setattr("diskcheck.checks._conclusion_rows", recording_rows)
        states, margins = _check_rows(theorem, a, params, thr, spec, 0.999, floor)
        assert set(range(0, 16, 2)) <= set(at_bound.tolist())
        assert {bytes(a[i]) for i in at_bound} <= set(scanned)
        assert (states[at_bound] == _FAILS).all() and (want_states[at_bound] == _FAILS).all()
        assert states.tolist() == want_states.tolist()
        assert margins[at_bound].tolist() == want_margins[at_bound].tolist()

    def test_fails_rows_do_not_lower_the_floor(self, monkeypatch):
        # trial 0 has a pole halfway between two points of the m = 64 grid:
        # it fails there, but its 16x dense re-check meets the pole and has no
        # margin, so its grid margin must not prune the trials after it (one
        # row a chunk; hypotheses out of the way)
        spec, r = GridSpec(m=64, refine_depth=0), 0.999
        pole = math.pi + math.pi / spec.m
        tails = [[(1.0 - 5e-13) / r * np.exp(1j * (math.pi - pole)), 0.0], [0.05, 0.02j], [0.08, -0.03], [0.1j, 0.04]]
        rows = _tail_coeffs(1, np.array(tails))
        monkeypatch.setattr("diskcheck.witnesses._sample_rows", lambda theorem, n, params, target, box: rows)
        for module in ("checks", "witnesses"):
            monkeypatch.setattr(f"diskcheck.{module}.threshold", lambda theorem, params, n: 1e9)
        block_points(monkeypatch, 64)
        cfg = FalsifyConfig(trials=4, tail_len=2, r_max=r)
        got = falsify(Theorem.THM1, 1, Params(alpha=0.25), cfg, spec)
        assert _check_rows(Theorem.THM1, rows, Params(alpha=0.25), 1e9, spec, r, math.nan)[0][0] == _FAILS
        assert (got.holds, got.inconclusive, got.fails) == (3, 1, 0)
        monkeypatch.setattr("diskcheck.checks._conclusion_caps",
                            lambda conclusion, a, bound, r, sums: np.full(len(a), np.inf))
        assert got == falsify(Theorem.THM1, 1, Params(alpha=0.25), cfg, spec)

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
                    cap = _conclusion_caps(conclusion, a, bound, 1.0, _coeff_sums)[0]
                    want = bound
                    if theorem is Theorem.THM3 and alpha < 0.5:
                        want = abs(1 / (1 - alpha**2) - bound) + alpha / (1 - alpha**2)
                    assert cap == pytest.approx(want, rel=2**-19), (n, alpha, beta)
                    drawn = _sample_rows(theorem, n, params, thr, rng.uniform(-1.0, 1.0, (64, 6, 2)))
                    assert (_conclusion_caps(conclusion, drawn, bound, 1.0, _coeff_sums) <= cap * (1 + 2**-19)).all()


def coarse_sums(m):
    """The certified sup bounds of _check_rows' coarse caps, on the m-point grid."""
    grid = GridSpec(m=m)
    return lambda c, r: _sup_upper(c, r, _sup_rows(c, r, grid)[0], grid)


def assert_caps_bound_the_grid_values(theorem, alpha, rng):
    """The caps of drawn rows of seven scales at n = 1 and 2, from
    coefficient sums and from the sup bounds on coarse grids of m' = 16, 32
    and 64 points, are at least their grid values at m = 16, 512 and 8192,
    and each coarse cap is at most its sum cap, to rounding; on every eighth
    row, a monomial z + c z^(n+1) with c > 0, the sum caps equal its grid
    maximum to rounding."""
    params = _params(theorem, alpha, 0j)
    bound = _conclusion_bound(theorem, params)
    conclusion = _RULES[theorem][2]
    for n in (1, 2):
        a = _tail_coeffs(n, rng.uniform(-1.0, 1.0, (56, 6)) + 1j * rng.uniform(-1.0, 1.0, (56, 6)))
        a[:, n + 1:] *= np.repeat([1e-12, 1e-6, 1e-3, 0.03, 0.1, 0.3, 1e6], 8)[:, None]
        a[::8, n + 2:] = 0.0
        a[::8, n + 1] = np.abs(a[::8, n + 1])
        caps = _conclusion_caps(conclusion, a, bound, 0.999, _coeff_sums)
        coarse = [_conclusion_caps(conclusion, a, bound, 0.999, coarse_sums(m)) for m in (16, 32, 64)]
        assert np.isfinite(caps).sum() >= 24
        for tighter in coarse:  # a monomial's grid maximum is its sum, and can round a few ulps above it
            assert (tighter <= caps * (1 + 2**-45)).all(), n
        for m in (16, 512, 8192):
            _, lower, _ = _conclusion_rows(conclusion, a, bound, 0.999, GridSpec(m=m), _NO_ROWS)
            known = ~np.isnan(lower)
            assert known[np.isfinite(caps)].all()
            for cap in [caps, *coarse]:
                assert (cap[known] >= lower[known]).all(), (n, m)
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
