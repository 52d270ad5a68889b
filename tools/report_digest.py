"""Print one digest line per CLI run over the corpus, for byte-identity gates.

Runs `diskcheck.cli.main` in-process on every tests/corpus file through
check and radius (7 theorems x 2 parameter sets) and membership (3 classes
x 2 orders), plus example for each witness and falsify (50 trials) for each
theorem and n in {1, 2, 3}. A second set runs at `--grid-m 64`: check for
every corpus file and theorem, membership for every class at `--rmax` 0.6,
0.9 and 0.999 (membership scans the circle |z| = rmax, and some runs exit
1), and falsify (50 trials, n = 2) for each theorem. A third set runs
falsify (50 trials, n = 2, the second parameter set) for each theorem at
--seed 1, 2^32 and 2^70 + 1, seeds of one, two and three 32-bit words, and
at --tail-len 0, 1 and 40, and falsify (1000 trials, n = 2) for each
theorem and parameter set at the default grid and at --grid-m 64, once at
the default tail length and once at --tail-len 40. The first are one block
of trials; the second are 3 blocks of at most 381 trials, so the margins,
counts and trial numbers that falsify carries from block to block are
covered too. A fourth set passes out-of-range
and non-finite arguments (--rmax, --alpha, --beta, --rho, --margin, --n) to
every command, so that each argument error the CLI can print is covered.
Each line is the argv, the exit code and the sha256 of stdout + stderr.
Inputs are named relative to the repo root, so the output does not depend
on where the checkout lives. Compare two trees with
`python3 tools/report_digest.py > a.txt` in each and `diff`.

To see why a line changed, dump the runs in each tree and compare the dumps:

    python3 tools/report_digest.py --dump a.jsonl > a.txt   # prints the same lines
    python3 tools/report_digest.py --compare a.jsonl b.jsonl

A dump holds one JSON object a line: argv, exit code, stdout and stderr.
--compare parses each stdout as JSON and walks both reports together. For
every float field (list indices folded to []) it prints how many values
changed, the largest relative rise and fall, and the largest absolute
change. It exits 1, naming the run and field, when an exit code, a stderr,
or any non-float field or report shape differs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
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
    for stream in (["--seed", "1"], ["--seed", str(2**32)], ["--seed", str(2**70 + 1)],
                   ["--tail-len", "0"], ["--tail-len", "1"], ["--tail-len", "40"]):
        for thm in THEOREMS:
            yield ["falsify", "--n", "2", "--trials", "50"] + theorem_args(thm, *PARAMS[1]) + stream
    for tail in ([], ["--tail-len", "40"]):
        for grid in ([], coarse):
            for thm in THEOREMS:
                for alpha, beta in PARAMS:
                    yield ["falsify", "--n", "2", "--trials", "1000"] + theorem_args(thm, alpha, beta) + grid + tail
    yield from bad_argument_runs("tests/corpus/halfdisk.json")


def bad_argument_runs(name):
    """Runs on one valid input whose arguments each break one constraint;
    all but a few exit 3."""
    one = ["--trials", "1"]
    for rmax in ("0", "1", "nan", "inf", "-0.5"):
        yield ["check", "--input", name, "--rmax", rmax] + theorem_args("thm1", *PARAMS[0])
        yield ["membership", "--class", "star", "--input", name, "--rmax", rmax]
        yield ["falsify", "--rmax", rmax] + one + theorem_args("thm1", *PARAMS[0])
    for alpha in ("nan", "inf", "-0.1", "1", "0.7"):
        for thm in ("thm1", "thm3"):
            yield ["check", "--input", name, "--theorem", thm, "--alpha", alpha]
            yield ["falsify", "--theorem", thm, "--alpha", alpha] + one
            yield ["radius", "--input", name, "--theorem", thm, "--alpha", alpha]
        yield ["membership", "--class", "k", "--input", name, "--alpha", alpha]
        for wid in ("ex1", "ex2", "ex3"):
            yield ["example", "--id", wid, "--alpha", alpha]
    for beta in ("x", "nan", "inf", "1e400", "1+nani", "", "2", "3i+2", "1j+"):
        for thm in ("thm1", "thm2"):
            yield ["check", "--input", name, "--theorem", thm, "--beta", beta]
            yield ["falsify", "--theorem", thm, "--beta", beta] + one
            yield ["radius", "--input", name, "--theorem", thm, "--beta", beta]
    for rho in ("0", "-1", "nan", "inf"):
        for thm in RHO_THEOREMS:
            yield ["check", "--input", name, "--theorem", thm, "--rho", rho]
            yield ["falsify", "--theorem", thm, "--rho", rho] + one
            yield ["radius", "--input", name, "--theorem", thm, "--rho", rho]
    yield ["check", "--input", name, "--theorem", "lem11"]
    for margin in ("0", "1", "nan", "inf"):
        yield ["falsify", "--theorem", "thm1", "--margin", margin] + one
    for n in ("0", "-1"):
        yield ["falsify", "--theorem", "thm1", "--n", n] + one
        yield ["example", "--id", "ex1", "--n", n]


class _Tee(io.StringIO):
    """One stream's capture that also writes into the shared buffer."""

    def __init__(self, shared):
        super().__init__()
        self.shared = shared

    def write(self, text):
        self.shared.write(text)
        return super().write(text)


def digest_lines(dump):
    """Run every argv, print its digest line and, when dump is a file, write
    the run to it."""
    for argv in runs():
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest = hashlib.sha256(both.getvalue().encode()).hexdigest()
        print(" ".join(argv), code, digest)
        if dump is not None:
            run = {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
            dump.write(json.dumps(run) + "\n")


def _report(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def _walk(a, b, path, fields, problems):
    """Compare two parsed reports: float leaves go to fields, every other
    difference to problems."""
    if type(a) is float and type(b) is float:
        rec = fields.setdefault(path, {"values": 0, "changed": 0, "rise": 0.0, "fall": 0.0, "abs": 0.0})
        rec["values"] += 1
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        rec["changed"] += 1
        rel = (b - a) / abs(a) if a else math.copysign(math.inf, b - a)
        rec["rise"], rec["fall"] = max(rec["rise"], rel), min(rec["fall"], rel)
        rec["abs"] = max(rec["abs"], abs(b - a))
    elif type(a) is dict and type(b) is dict and a.keys() == b.keys():
        for key in a:
            _walk(a[key], b[key], f"{path}.{key}" if path else key, fields, problems)
    elif type(a) is list and type(b) is list and len(a) == len(b):
        for x, y in zip(a, b):
            _walk(x, y, path + "[]", fields, problems)
    elif type(a) is not type(b) or a != b:
        problems.append(f"{path or 'stdout'}: {json.dumps(a)[:80]} -> {json.dumps(b)[:80]}")


def compare(old_path, new_path):
    """Print the float changes between two dumps; 1 when anything else changed."""
    with open(old_path) as fa, open(new_path) as fb:
        old, new = [json.loads(line) for line in fa], [json.loads(line) for line in fb]
    fields, problems, changed = {}, [], 0
    if [r["argv"] for r in old] != [r["argv"] for r in new]:
        problems.append("the two dumps hold different runs")
    for a, b in zip(old, new):
        found = []
        if a["code"] != b["code"]:
            found.append(f"exit code {a['code']} -> {b['code']}")
        if a["stderr"] != b["stderr"]:
            found.append(f"stderr {a['stderr']!r} -> {b['stderr']!r}")
        _walk(_report(a["stdout"]), _report(b["stdout"]), "", fields, found)
        changed += a != b
        problems += [" ".join(a["argv"]) + ": " + line for line in found]
    print(f"{len(old)} runs, {changed} with a changed output")
    print(f"{'field':48} {'values':>7} {'changed':>7} {'max rise':>10} {'max fall':>10} {'max |change|':>12}")
    for path, rec in sorted(fields.items()):
        if rec["changed"]:
            print(f"{path:48} {rec['values']:7} {rec['changed']:7} {rec['rise']:10.3g} {rec['fall']:10.3g} "
                  f"{rec['abs']:12.3g}")
    print(f"{len(problems)} exit code, stderr or non-float changes")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="FILE", help="also write every run to FILE, one JSON line each")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two dumps and exit")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    with open(args.dump, "w") if args.dump else contextlib.nullcontext() as dump:
        os.chdir(ROOT)
        digest_lines(dump)
