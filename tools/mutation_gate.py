"""Mutation gate for the certificates: each mutant must fail a named test.

Every entry of MUTANTS is one edit of src/diskcheck: the file, an exact
source snippet, its replacement, and the tests that must kill it. For each
entry the gate copies src/, tests/ and pyproject.toml to a temporary
directory, applies the edit there (never in the checkout) and runs the
named tests with `pytest -x -q`. A snippet that is not found exactly once
is stale. The named tests are first run once on the unmutated copy, and
must pass there. Prints one line per entry, `killed`, `SURVIVED` or
`STALE`, and exits 1 on any survivor or stale snippet.

Run as `python3 tools/mutation_gate.py` (about a minute). Not part of the
Tier-1 suite.
Grounding: DeMillo, Lipton & Sayward, "Hints on test data selection",
IEEE Computer 11 (1978).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BOUNDS, CHECKS, FUNCTIONALS = "src/diskcheck/bounds.py", "src/diskcheck/checks.py", "src/diskcheck/functionals.py"
T_BOUNDS, T_CHECKS, T_WITNESSES = "tests/test_bounds.py", "tests/test_checks.py", "tests/test_witnesses.py"
T_FUNCTIONALS, T_EXACT = "tests/test_functionals.py", "tests/test_exact.py"

#: (name, file, snippet, replacement, tests that must kill it).
MUTANTS = (
    # _brackets' one refinement of an undecided row
    ("refine: stop one doubling early", BOUNDS,
     "not _sec_bound(lower[i], degree, fine) < bound[i]",
     "not _sec_bound(lower[i], degree, 2 * fine) < bound[i]",
     [T_BOUNDS + "::test_refinement_goes_straight_to_the_smallest_deciding_grid"]),
    ("refine: lower from the new sub-grids only", BOUNDS,
     "lower[i] = max(lower[i], np.abs(_sub_grids(c[i], r, spec.m, fine)).max())",
     "lower[i] = np.abs(_sub_grids(c[i], r, spec.m, fine)).max()",
     [T_BOUNDS + "::test_refined_bracket_encloses_the_dense_grid"]),
    ("refine: K = fine - 1 in the refined sec", BOUNDS,
     "min(upper[i], _sec_bound(lower[i], degree, fine))",
     "min(upper[i], _sec_bound(lower[i], fine - 1, fine))",
     [T_CHECKS + "::test_high_degree_hypothesis_near_the_threshold_is_refined"]),
    ("refine: <= in the undecided trigger", BOUNDS,
     "((lower < bound) & (bound <= upper))",
     "((lower <= bound) & (bound <= upper))",
     [T_CHECKS + "::test_a_sample_at_the_threshold_is_never_refined"]),
    # check never refines a polynomial conclusion row
    ("check: the conclusion bound in place of inf", CHECKS,
     "[thr, math.inf][: len(polys)]",
     "[thr, bound][: len(polys)]",
     [T_CHECKS + "::test_stacked_brackets_equal_one_row_brackets"]),
    # _certified_rows: a sure row needs both terms
    ("sure rows: drop the _below term", CHECKS,
     "sure = _below(_polynomial_coeffs(hyp_fun, a, complex(params.beta)), r_max, thr, spec) & (caps < bound)",
     "sure = caps < bound",
     [T_WITNESSES]),
    ("sure rows: drop caps < bound", CHECKS,
     "sure = _below(_polynomial_coeffs(hyp_fun, a, complex(params.beta)), r_max, thr, spec) & (caps < bound)",
     "sure = _below(_polynomial_coeffs(hyp_fun, a, complex(params.beta)), r_max, thr, spec)",
     [T_WITNESSES]),
    # the ratio form q - c = N/D, its guard and its cap
    ("ratio: N without its - c D term", CHECKS,
     "num = top - c * (np.eye(1, top.shape[-1]) if den is _ONE else den)",
     "num = top",
     [T_CHECKS + "::test_a_conclusion_near_its_center_keeps_every_digit"]),
    ("guard: sup |D| < 1 in place of sup |D - 1| < 1", CHECKS,
     "_below(den - np.eye(1, den.shape[-1]), r, 1.0, spec)",
     "_below(den, r, 1.0, spec)",
     [T_CHECKS + "::test_a_conclusion_near_its_center_keeps_every_digit"]),
    ("caps: S(N) without its / (1 - g)", CHECKS,
     "else _coeff_sums(num, r) / (1.0 - g))",
     "else _coeff_sums(num, r))",
     [T_WITNESSES + "::TestFalsifyPruning::test_caps_bound_the_grid_values"]),
    # the verdict rule and the 1/f' cap
    ("verdict: holds at lower == bound", CHECKS,
     "state = VerdictState.HOLDS if lower < bound else VerdictState.FAILS",
     "state = VerdictState.HOLDS if lower <= bound else VerdictState.FAILS",
     [T_CHECKS]),
    ("caps: g/(1 + g^2) in the 1/f' cap", CHECKS,
     "cap = (np.abs(1.0 / (1.0 - g * g) - bound) + g / (1.0 - g * g) if",
     "cap = (np.abs(1.0 / (1.0 - g * g) - bound) + g / (1.0 + g * g) if",
     [T_WITNESSES]),
    # membership's sign test of T = Re(N conj(D)) - alpha |D|^2
    ("sign test: the correction e dropped", CHECKS,
     "sec = low - (_sec_bound(half, 2 * d, m) - half)",
     "sec = low",
     [T_EXACT + "::test_a_grid_gap_below_the_order_is_not_a_holds"]),
    ("sign test: sec without m > 2d", CHECKS,
     "_sec_bound(half, 2 * d, m) - half",
     "half / math.cos(math.pi * d / m) - half",
     [T_EXACT + "::test_an_aliased_grid_is_not_a_holds"]),
    ("sign test: the pad without its pi / m", CHECKS,
     "lip() * math.pi / m)",
     "lip())",
     [T_EXACT + "::test_the_lipschitz_pad_alone_certifies_a_holds"]),
    # the exact polynomial forms of the hypothesis functionals
    ("coeffs: index shift in the star test", FUNCTIONALS,
     "out = (k - 1) * (k - beta) * ak",
     "out = k * (k - beta) * ak",
     [T_FUNCTIONALS, T_CHECKS]),
    ("coeffs: wrong beta sign in the turn test", FUNCTIONALS,
     "out = k * (k - 1 - beta) * ak",
     "out = k * (k - 1 + beta) * ak",
     [T_FUNCTIONALS, T_CHECKS]),
)


def _copy(dest: Path):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def _passes(tree: Path, tests) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                         cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutation_gate_") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        selected = sorted({t for *_, tests in MUTANTS for t in tests})
        if not _passes(base, selected):
            print("the named tests fail on the unmutated tree", file=sys.stderr)
            return 1
        for i, (name, path, snippet, replacement, tests) in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{i}"
            _copy(tree)
            text = (tree / path).read_text()
            if text.count(snippet) != 1:
                print(f"STALE     {name}: snippet found {text.count(snippet)} times in {path}")
                bad += 1
                continue
            (tree / path).write_text(text.replace(snippet, replacement))
            survived = _passes(tree, tests)
            print(f"{'SURVIVED' if survived else 'killed':9} {name}")
            bad += survived
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
