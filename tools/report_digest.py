"""Print one digest line per CLI run over the corpus, for byte-identity gates.

Runs `diskcheck.cli.main` in-process on every tests/corpus file through
check and radius (7 theorems x 2 parameter sets) and membership (3 classes
x 2 orders), plus example for each witness and falsify (50 trials) for each
theorem and n in {1, 2, 3}. A second set runs at `--grid-m 64`: check for
every corpus file and theorem, membership for every class at `--rmax` 0.6,
0.9 and 0.999 (so the radius ladder is cut at different rungs, and some
runs exit 1), and falsify (50 trials, n = 2) for each theorem. Each line is
the argv, the exit code and the sha256 of stdout + stderr. Inputs are named
relative to the repo root, so the output does not depend on where the
checkout lives. Compare two trees with `python3 tools/report_digest.py >
a.txt` in each and `diff`.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from diskcheck.cli import main  # noqa: E402

THEOREMS = ("lem11", "lem12", "thm1", "cor1", "thm2", "lem3", "thm3")
RHO_THEOREMS = ("lem11", "lem12", "lem3")
PARAMS = ((0.5, "0"), (0.25, "0.5"))  # the (alpha, beta) pairs of bench/workloads.py CLI_PARAMS


def theorem_args(thm, alpha, beta):
    order = ["--rho", repr(1.0 - alpha)] if thm in RHO_THEOREMS else ["--alpha", repr(alpha)]
    return ["--theorem", thm, "--beta", beta] + order


def runs():
    for path in sorted((ROOT / "tests" / "corpus").glob("*.json")):
        name = str(path.relative_to(ROOT))
        for cmd in ("check", "radius"):
            for thm in THEOREMS:
                for alpha, beta in PARAMS:
                    yield [cmd, "--input", name] + theorem_args(thm, alpha, beta)
        for cls in ("star", "c", "k"):
            for alpha in (0.0, 0.5):
                yield ["membership", "--class", cls, "--alpha", repr(alpha), "--input", name]
    for wid in ("ex1", "ex2", "ex3"):
        yield ["example", "--id", wid, "--n", "2", "--alpha", "0.25"]
    for thm in THEOREMS:
        for n in (1, 2, 3):
            yield ["falsify", "--n", str(n), "--trials", "50"] + theorem_args(thm, *PARAMS[0])
    coarse = ["--grid-m", "64"]
    for path in sorted((ROOT / "tests" / "corpus").glob("*.json")):
        name = str(path.relative_to(ROOT))
        for thm in THEOREMS:
            yield ["check", "--input", name] + theorem_args(thm, *PARAMS[0]) + coarse
        for cls in ("star", "c", "k"):
            for rmax in ("0.6", "0.9", "0.999"):
                yield ["membership", "--class", cls, "--alpha", "0.5", "--rmax", rmax, "--input", name] + coarse
    for thm in THEOREMS:
        yield ["falsify", "--n", "2", "--trials", "50"] + theorem_args(thm, *PARAMS[0]) + coarse


if __name__ == "__main__":
    os.chdir(ROOT)
    for argv in runs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(" ".join(argv), code, digest)
