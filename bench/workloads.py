"""The three benchmark workloads: seeded inputs, one timed call per item,
and the checks every output must pass.

Inputs are made here from the workload seed with the benchmark's own
formulas (thresholds, hypothesis coefficients, FFT grid sups), so the
program under test only ever receives finished inputs. Each workload yields
rounds of items forever. A round has a fixed composition and is shuffled,
so every run measures the same mix, also when its last round is cut.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = BENCH / "corpus"
SCHEMA = ROOT / "docs" / "report_schema.json"
REFERENCE = BENCH / "reference.json"

THEOREMS = ("lem11", "lem12", "thm1", "cor1", "thm2", "lem3", "thm3")
RHO_THEOREMS = ("lem11", "lem12", "lem3")
POLY_CONCL = ("lem11", "lem12", "thm2", "lem3")
HYPOTHESIS = {
    "lem11": "star", "lem12": "star", "thm1": "star", "cor1": "convex",
    "thm2": "turn", "lem3": "turn", "thm3": "turn",
}
CLASSES = ("star", "c", "k")
STATE_EXIT = {"holds": 0, "fails": 1, "inconclusive": 2}
EXIT_ERROR = 3

# acceptance criterion 3 grid
NS = (1, 2, 3)
ALPHAS = (0.0, 0.25, 0.5, 0.75)
BETAS = (0j, 0.5 + 0j, -1 + 0j, 2j)

R_MAX = 0.999
POOL_SEED = 20261017


class BenchSetupError(RuntimeError):
    """The checkout lacks something the benchmark needs."""


def import_diskcheck():
    if not (SRC / "diskcheck" / "__init__.py").is_file():
        raise BenchSetupError(f"no diskcheck package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import diskcheck

    return diskcheck


def load_reference() -> dict:
    if not REFERENCE.is_file():
        raise BenchSetupError(f"missing reference verdicts {REFERENCE}")
    return json.loads(REFERENCE.read_text())


# ---------------------------------------------------------------- formulas


def params_for(thm: str, alpha: float, beta: complex) -> dict:
    """Keyword arguments of diskcheck.Params; the plain-bound lemmas take
    rho = 1 - alpha, as in acceptance criterion 3."""
    if thm in RHO_THEOREMS:
        return {"alpha": 0.0, "beta": beta, "rho": 1.0 - alpha}
    return {"alpha": alpha, "beta": beta, "rho": None}


def hyp_threshold(thm: str, n: int, p: dict) -> float:
    a, b, rho = p["alpha"], p["beta"], p["rho"]
    if thm == "lem11":
        return rho * abs(n + 1 - b)
    if thm == "lem12":
        return rho * n * abs(n + 1 - b)
    if thm in ("thm1", "cor1"):
        return (1.0 - a) * n * abs(n + 1 - b) / (n + 1 - a)
    if thm == "thm2":
        return (1.0 - a) * abs(n - b)
    if thm == "lem3":
        return rho * abs(n - b)
    return (a if a <= 0.5 else 1.0 - a) * abs(n - b)


def hyp_coeffs(kind: str, n: int, tail: np.ndarray, beta: complex) -> np.ndarray:
    """Coefficients of the hypothesis polynomial at z^0 .. z^(n+K-1)."""
    k = np.arange(n + 1, n + 1 + tail.size)
    if kind == "star":
        c = (k - 1) * (k - beta) * tail
    elif kind == "turn":
        c = k * (k - 1 - beta) * tail
    else:
        c = k * (k - 1) * (k - beta) * tail
    return np.concatenate([np.zeros(n, dtype=np.complex128), c])


def grid_values(coeffs: np.ndarray, r: float, m: int) -> np.ndarray:
    """p(r e^(2 pi i j / m)) for j < m, by folding mod m and one FFT."""
    c = coeffs * r ** np.arange(coeffs.size)
    folded = np.zeros(m, dtype=np.complex128)
    np.add.at(folded, np.arange(c.size) % m, c)
    return m * np.fft.ifft(folded)


def grid_sup(coeffs: np.ndarray, r: float, m: int) -> float:
    return float(np.abs(grid_values(coeffs, r, m)).max())


def coeff_sum(coeffs: np.ndarray, r: float) -> float:
    return float(np.sum(np.abs(coeffs) * r ** np.arange(coeffs.size)))


# ---------------------------------------------------------------- items


@dataclass
class Outcome:
    """What one item's output says: how many verdicts it carried, how many
    of them were decided (holds or fails), and why it failed, if it did."""

    bearing: int = 0
    decided: int = 0
    error: str | None = None


@dataclass
class Item:
    """One timed call. `call` runs it; `verify` checks its return value.
    `units` is the number of work items the call completes."""

    op: str
    units: int
    call: Callable[[], object]
    verify: Callable[[object], Outcome]


def _decided(state: str) -> int:
    return int(state in ("holds", "fails"))


def _flip(ref_state: str, state: str) -> bool:
    return {ref_state, state} == {"holds", "fails"}


def _state(verdict) -> str:
    return verdict.state.value


# ---------------------------------------------------------------- falsify_grid

#: Trials per falsify call: the FalsifyConfig default, the CLI's --trials
#: default and the acceptance tests all run 1000.
FALSIFY_TRIALS = 1000
#: The set-up call runs one trial, so setup_s is import and first-call cache
#: fill rather than the steady-state work that items_per_s measures.
SETUP_TRIALS = 1


def falsify_call(dc, thm: str, n: int, alpha: float, beta: complex, seed: int, trials: int):
    params = dc.Params(**params_for(thm, alpha, beta))
    cfg = dc.FalsifyConfig(trials=trials, seed=seed)
    return dc.falsify(dc.Theorem(thm), n, params, cfg)


def _verify_falsify(trials: int):
    def verify(s) -> Outcome:
        total = s.holds + s.inconclusive + s.fails
        out = Outcome(bearing=total, decided=s.holds + s.fails)
        if total != trials:
            out.error = f"falsify counted {total} trials of {trials}"
        elif s.fails:
            out.error = f"falsify {s.theorem.value} n={s.n} reported {s.fails} fails"
        return out

    return verify


class FalsifyGrid:
    """falsify over the 7 theorems x n in {1, 2, 3}. Each round takes the
    next (alpha, beta) point of the acceptance-3 grid for every (theorem, n),
    walking each grid in its own seeded order, so runs cover the grid evenly.
    A round takes 8-10 s, so a 35-second run makes about four."""

    name = "falsify_grid"
    tail_percentile = 75.0

    def __init__(self, dc, seed: int):
        self.dc = dc
        self.rng = np.random.default_rng([POOL_SEED, 1, seed])
        self.walks = {(thm, n): self._walk(thm) for thm in THEOREMS for n in NS}

    def _walk(self, thm: str):
        alphas = ALPHAS[1:] if thm == "thm3" else ALPHAS
        points = [(a, b) for a in alphas for b in BETAS]
        while True:
            for i in self.rng.permutation(len(points)):
                yield points[i]

    def rounds(self):
        while True:
            items = []
            for (thm, n), walk in self.walks.items():
                alpha, beta = next(walk)
                seed = int(self.rng.integers(2**31))
                items.append(Item(
                    "falsify", FALSIFY_TRIALS,
                    lambda t=thm, n=n, a=alpha, b=beta, s=seed: falsify_call(self.dc, t, n, a, b, s, FALSIFY_TRIALS),
                    _verify_falsify(FALSIFY_TRIALS),
                ))
            self.rng.shuffle(items)
            yield items

    @staticmethod
    def setup_item(dc, seed: int) -> Item:
        return Item("falsify", SETUP_TRIALS,
                    lambda: falsify_call(dc, "thm1", 2, 0.25, 0j, seed, SETUP_TRIALS), _verify_falsify(SETUP_TRIALS))


# ---------------------------------------------------------------- highdeg_scan

HD_KS = (64, 512, 2048)
HD_SCALES = (0.5, 0.97, 1.05)
HD_POOL = 16
HD_M = 4096
HD_PARAMS = ((0.5, 0j), (0.25, 0.5 + 0j), (0.75, -1 + 0j), (0.25, 2j))
#: Five K=64 tails put the median call inside the cluster of K=64 checks
#: with a rational conclusion, not on the gap between two clusters.
HD_TAILS_PER_ROUND = {64: 5, 512: 1, 2048: 1}
#: membership runs once per class on the tail rescaled for this theorem and scale
HD_MEMBERSHIP = {"star": ("thm1", 0.5), "c": ("thm2", 0.97), "k": ("cor1", 1.05)}
JACK_R = 0.95
JACK_TOL = 1e-6


@dataclass(frozen=True)
class PoolTail:
    """Pool entry: a tail with 1/k^3 decay, its class index and parameters."""

    K: int
    idx: int
    n: int
    tail: np.ndarray
    alpha: float
    beta: complex

    def scaled(self, thm: str, scale: float):
        """The tail rescaled so the hypothesis grid sup is scale x threshold,
        with that grid sup and the rescaled coefficient sum."""
        p = params_for(thm, self.alpha, self.beta)
        thr = hyp_threshold(thm, self.n, p)
        coeffs = hyp_coeffs(HYPOTHESIS[thm], self.n, self.tail, self.beta)
        factor = scale * thr / grid_sup(coeffs, R_MAX, HD_M)
        coeffs = coeffs * factor
        return self.tail * factor, p, grid_sup(coeffs, R_MAX, HD_M), coeff_sum(coeffs, R_MAX)


def pool_tail(K: int, idx: int) -> PoolTail:
    rng = np.random.default_rng([POOL_SEED, K, idx])
    n = NS[idx % len(NS)]
    k = np.arange(n + 1, n + 1 + K, dtype=np.float64)
    tail = (rng.uniform(-1.0, 1.0, K) + 1j * rng.uniform(-1.0, 1.0, K)) / k**3
    alpha, beta = HD_PARAMS[idx % len(HD_PARAMS)]
    return PoolTail(K, idx, n, tail, alpha, beta)


def hd_check_key(K, idx, thm, scale):
    return f"highdeg/{K}/{idx}/check/{thm}/{scale}"


def hd_membership_key(K, idx, cls):
    return f"highdeg/{K}/{idx}/membership/{cls}"


def hd_check_call(dc, pt: PoolTail, thm: str, scale: float):
    tail, p, gsup, csum = pt.scaled(thm, scale)
    f = dc.SeriesA.from_tail(pt.n, tail)
    spec = dc.GridSpec(m=HD_M)
    params = dc.Params(**p)
    return (lambda: dc.check(dc.Theorem(thm), f, params, spec, R_MAX)), gsup, csum


def hd_membership_call(dc, pt: PoolTail, cls: str):
    thm, scale = HD_MEMBERSHIP[cls]
    tail, _, _, _ = pt.scaled(thm, scale)
    f = dc.SeriesA.from_tail(pt.n, tail)
    spec = dc.GridSpec(m=HD_M)
    return lambda: dc.membership(dc.FunctionClass(cls), f, pt.alpha, spec, R_MAX)


def jack_poly(pt: PoolTail) -> np.ndarray:
    tail, _, _, _ = pt.scaled("thm2", 0.5)
    return np.concatenate([np.zeros(pt.n + 1, dtype=np.complex128), tail])


def _verify_check(ref: dict, key: str, gsup: float, csum: float):
    def verify(rep) -> Outcome:
        state = _state(rep.verdict)
        out = Outcome(bearing=1, decided=_decided(state))
        want = ref.get(key)
        tol = 1e-9
        if want is None:
            out.error = f"{key}: no reference verdict"
        elif _flip(want, state):
            out.error = f"{key}: verdict {state}, reference {want}"
        elif not (rep.hyp.lower <= rep.hyp.upper):
            out.error = f"{key}: hypothesis bracket inverted"
        elif rep.hyp.upper < gsup * (1.0 - tol):
            out.error = f"{key}: certified upper {rep.hyp.upper} below grid sample {gsup}"
        elif rep.hyp.lower > csum * (1.0 + tol):
            out.error = f"{key}: lower bound {rep.hyp.lower} above coefficient sum {csum}"
        return out

    return verify


def _verify_membership(ref: dict, key: str):
    def verify(verdict) -> Outcome:
        state = _state(verdict)
        out = Outcome(bearing=1, decided=_decided(state))
        want = ref.get(key)
        if want is None:
            out.error = f"{key}: no reference verdict"
        elif _flip(want, state):
            out.error = f"{key}: verdict {state}, reference {want}"
        return out

    return verify


def _verify_jack(key: str, coeffs: np.ndarray, lead: int):
    gmax = float(np.abs(grid_values(coeffs, JACK_R, HD_M)).max())

    def verify(rep) -> Outcome:
        out = Outcome()
        ratio = complex(rep.ratio)
        z0 = complex(rep.z0)
        w0 = abs(np.polynomial.polynomial.polyval(z0, coeffs))
        if abs(ratio.imag) > JACK_TOL * (1.0 + abs(ratio)):
            out.error = f"{key}: Im ratio {ratio.imag}"
        elif ratio.real < lead - JACK_TOL:
            out.error = f"{key}: Re ratio {ratio.real} below leading index {lead}"
        elif rep.curvature_check < ratio.real - JACK_TOL:
            out.error = f"{key}: curvature {rep.curvature_check} below ratio {ratio.real}"
        elif abs(abs(z0) - JACK_R) > 1e-12:
            out.error = f"{key}: argmax {z0} off the circle"
        elif w0 < gmax * (1.0 - 1e-12):
            out.error = f"{key}: |w(z0)| = {w0} below the grid maximum {gmax}"
        return out

    return verify


class HighdegScan:
    """check, membership and jack_probe on pool tails at K in {64, 512, 2048}."""

    name = "highdeg_scan"
    tail_percentile = 95.0

    def __init__(self, dc, seed: int, ref: dict):
        self.dc = dc
        self.ref = ref
        self.rng = np.random.default_rng([POOL_SEED, 2, seed])
        self.order = {K: list(self.rng.permutation(HD_POOL)) for K in HD_KS}

    def _next_tail(self, K: int) -> PoolTail:
        if not self.order[K]:
            self.order[K] = list(self.rng.permutation(HD_POOL))
        return pool_tail(K, int(self.order[K].pop()))

    def tail_items(self, pt: PoolTail) -> list[Item]:
        dc, ref = self.dc, self.ref
        items = []
        for thm in THEOREMS:
            for scale in HD_SCALES:
                key = hd_check_key(pt.K, pt.idx, thm, scale)
                call, gsup, csum = hd_check_call(dc, pt, thm, scale)
                items.append(Item("check", 1, call, _verify_check(ref, key, gsup, csum)))
        for cls in CLASSES:
            key = hd_membership_key(pt.K, pt.idx, cls)
            items.append(Item("membership", 1, hd_membership_call(dc, pt, cls), _verify_membership(ref, key)))
        coeffs = jack_poly(pt)
        w = dc.PolySeries(coeffs)
        spec = dc.GridSpec(m=HD_M)
        items.append(Item(
            "jack_probe", 1,
            lambda: dc.jack_probe(w, pt.n + 1, JACK_R, spec),
            _verify_jack(f"highdeg/{pt.K}/{pt.idx}/jack", coeffs, pt.n + 1),
        ))
        return items

    def rounds(self):
        while True:
            items = []
            for K in HD_KS:
                for _ in range(HD_TAILS_PER_ROUND[K]):
                    items.extend(self.tail_items(self._next_tail(K)))
            self.rng.shuffle(items)
            yield items

    @staticmethod
    def setup_item(dc, seed: int, ref: dict) -> Item:
        pt = pool_tail(512, seed % HD_POOL)
        call, gsup, csum = hd_check_call(dc, pt, "thm1", 0.5)
        return Item("check", 1, call, _verify_check(ref, hd_check_key(512, pt.idx, "thm1", 0.5), gsup, csum))


# ---------------------------------------------------------------- cli_corpus

#: (alpha, beta literal) pairs the check and radius commands draw from
CLI_PARAMS = ((0.5, "0"), (0.25, "0.5"))
CLI_MEMBERSHIP_ALPHAS = (0.0, 0.5)
CLI_FALSIFY_TRIALS = 20
WITNESS_IDS = ("ex1", "ex2", "ex3")


def corpus_files() -> list[str]:
    files = sorted(p.name for p in CORPUS.glob("*.json"))
    if not files:
        raise BenchSetupError(f"empty corpus directory {CORPUS}")
    return files


def corpus_input(name: str) -> str:
    return str((CORPUS / name).relative_to(ROOT))


def check_argv(name: str, thm: str, ps: int) -> list[str]:
    alpha, beta = CLI_PARAMS[ps]
    argv = ["check", "--theorem", thm, "--beta", beta, "--input", corpus_input(name)]
    if thm in RHO_THEOREMS:
        return argv + ["--rho", repr(1.0 - alpha)]
    return argv + ["--alpha", repr(alpha)]


def membership_argv(name: str, cls: str, alpha: float) -> list[str]:
    return ["membership", "--class", cls, "--alpha", repr(alpha), "--input", corpus_input(name)]


def radius_argv(name: str, thm: str, ps: int) -> list[str]:
    argv = check_argv(name, thm, ps)
    argv[0] = "radius"
    return argv


def example_argv(wid: str, n: int, alpha: float) -> list[str]:
    return ["example", "--id", wid, "--n", str(n), "--alpha", repr(alpha)]


def falsify_argv(thm: str, n: int, ps: int, seed: int) -> list[str]:
    alpha, beta = CLI_PARAMS[ps]
    argv = ["falsify", "--theorem", thm, "--n", str(n), "--beta", beta,
            "--trials", str(CLI_FALSIFY_TRIALS), "--seed", str(seed)]
    if thm in RHO_THEOREMS:
        return argv + ["--rho", repr(1.0 - alpha)]
    return argv + ["--alpha", repr(alpha)]


def check_key(name, thm, ps):
    return f"cli/check/{name}/{thm}/{ps}"


def membership_key(name, cls, alpha):
    return f"cli/membership/{name}/{cls}/{alpha}"


def radius_key(name, thm, ps):
    return f"cli/radius/{name}/{thm}/{ps}"


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_child(argv: list[str]) -> CliResult:
    """One `python -m diskcheck` process, run to completion from the root."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "diskcheck", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def witness_coefficient(wid: str, n: int, alpha: float) -> float:
    if wid == "ex1":
        return (1.0 - alpha) / (n + 1 - alpha)
    if wid == "ex2":
        return (1.0 - alpha) / (n + 1)
    return alpha / (n + 1)


def monomial_closed_forms(thm: str, n: int, c: complex, beta: complex, r: float) -> dict:
    """Exact circle sups for f = z + c z^(n+1) (a monomial tail, as the
    corpus witnesses are): the hypothesis and any polynomial conclusion."""
    k = n + 1
    rn = abs(c) * r**n
    hyp = {
        "star": (k - 1) * abs(k - beta),
        "turn": k * abs(k - 1 - beta),
        "convex": k * (k - 1) * abs(k - beta),
    }[HYPOTHESIS[thm]] * rn
    concl = {"lem11": (k - 1) * rn, "lem12": rn, "thm2": k * rn, "lem3": k * rn}.get(thm)
    return {"hypothesis": hyp, "conclusion": concl}


#: Relative slack of a closed-form bracket check, for rounding in the bounds.
BRACKET_REL = 1e-12


def _bracket_contains(b: dict, value: float) -> bool:
    slack = BRACKET_REL * max(1.0, abs(value))
    if b["lower"] > value + slack:
        return False
    return b["upper"] is None or b["upper"] >= value - slack


class CliChecker:
    """Checks one CLI result: exit code, schema, reference verdicts, and
    closed-form containment for monomial inputs."""

    def __init__(self, ref: dict):
        import jsonschema

        if not SCHEMA.is_file():
            raise BenchSetupError(f"missing report schema {SCHEMA}")
        self.validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
        self.ref = ref
        self.invalid = set(ref["cli/invalid_inputs"])

    def _parse(self, res: CliResult, label: str):
        try:
            doc = json.loads(res.stdout)
        except json.JSONDecodeError:
            return None, f"{label}: stdout is not JSON"
        errors = sorted(self.validator.iter_errors(doc), key=lambda e: list(e.path))
        if errors:
            return None, f"{label}: schema: {errors[0].message[:200]}"
        return doc, None

    def verify_input_error(self, label: str):
        def verify(res: CliResult) -> Outcome:
            if res.code != EXIT_ERROR:
                return Outcome(error=f"{label}: exit {res.code}, want {EXIT_ERROR}")
            if res.stdout.strip():
                return Outcome(error=f"{label}: printed a report for invalid input")
            return Outcome()

        return verify

    def verify_verdict(self, label: str, key: str, monomial=None):
        """check and membership: exit code matches the printed verdict, which
        must not flip against the reference; monomials meet closed forms."""

        def verify(res: CliResult) -> Outcome:
            doc, err = self._parse(res, label)
            if err:
                return Outcome(error=err)
            result = doc["result"]
            state = result["verdict"]["state"]
            out = Outcome(bearing=1, decided=_decided(state))
            want = self.ref.get(key)
            if res.code != STATE_EXIT[state]:
                out.error = f"{label}: exit {res.code} for verdict {state}"
            elif want is None:
                out.error = f"{label}: no reference verdict"
            elif _flip(want, state):
                out.error = f"{label}: verdict {state}, reference {want}"
            elif monomial is not None:
                forms = monomial_closed_forms(result["theorem"], result["n"], monomial,
                                              complex(*result["beta"]), result["r_max"])
                if not _bracket_contains(result["hypothesis"], forms["hypothesis"]):
                    out.error = f"{label}: hypothesis bracket misses closed form {forms['hypothesis']}"
                elif forms["conclusion"] is not None and result["conclusion"] is not None and \
                        not _bracket_contains(result["conclusion"], forms["conclusion"]):
                    out.error = f"{label}: conclusion bracket misses closed form {forms['conclusion']}"
            return out

        return verify

    def verify_radius(self, label: str, key: str):
        def verify(res: CliResult) -> Outcome:
            doc, err = self._parse(res, label)
            if err:
                return Outcome(error=err)
            result = doc["result"]
            want = self.ref.get(key)
            if res.code != 0:
                return Outcome(error=f"{label}: exit {res.code}")
            if want is None:
                return Outcome(error=f"{label}: no reference")
            if result["status"] != want["status"] or abs(result["r_star"] - want["r_star"]) > 1e-5:
                return Outcome(error=f"{label}: {result['status']} r*={result['r_star']}, reference {want}")
            return Outcome()

        return verify

    def verify_example(self, label: str, wid: str, n: int, alpha: float):
        want = witness_coefficient(wid, n, alpha)

        def verify(res: CliResult) -> Outcome:
            doc, err = self._parse(res, label)
            if err:
                return Outcome(error=err)
            if res.code != 0:
                return Outcome(error=f"{label}: exit {res.code}")
            if doc.get("n") != n or len(doc.get("coeffs", ())) != 1:
                return Outcome(error=f"{label}: not a monomial witness of class {n}")
            re, im = doc["coeffs"][0]
            if abs(re - want) > 1e-15 * abs(want) or im != 0.0:
                return Outcome(error=f"{label}: coefficient {re}+{im}i, closed form {want}")
            return Outcome()

        return verify

    def verify_falsify(self, label: str):
        def verify(res: CliResult) -> Outcome:
            doc, err = self._parse(res, label)
            if err:
                return Outcome(error=err)
            result = doc["result"]
            if res.code != 0 or result["fails"]:
                return Outcome(error=f"{label}: exit {res.code}, {result['fails']} fails")
            if result["holds"] + result["inconclusive"] != CLI_FALSIFY_TRIALS:
                return Outcome(error=f"{label}: trial counts do not add up")
            return Outcome()

        return verify


def monomial_coefficient(name: str):
    """The single tail coefficient of a valid one-term corpus file, else None."""
    doc = json.loads((CORPUS / name).read_text())
    coeffs = doc["coeffs"]
    if len(coeffs) != 1:
        return None
    return complex(*coeffs[0])


class CliCorpus:
    """One `python -m diskcheck` child at a time: every corpus file through
    check, membership and radius, plus one example and one small falsify."""

    name = "cli_corpus"
    tail_percentile = 90.0

    def __init__(self, seed: int, ref: dict, runner: Callable[[list[str]], CliResult]):
        self.seed = seed
        self.rng = np.random.default_rng([POOL_SEED, 3, seed])
        self.checker = CliChecker(ref)
        self.runner = runner
        self.files = corpus_files()

    def _item(self, op: str, argv: list[str], verify) -> Item:
        return Item(op, 1, lambda: self.runner(argv), verify)

    def file_items(self, i: int, name: str, offset: int) -> list[Item]:
        """Items for corpus file number i. The seed rotates which theorem,
        class and parameters each file gets, so every pass draws each
        choice about equally often."""
        chk = self.checker
        j = i + offset
        thm = THEOREMS[j % len(THEOREMS)]
        rthm = THEOREMS[(j + 3) % len(THEOREMS)]
        ps = (i + offset // len(THEOREMS)) % len(CLI_PARAMS)
        cls = CLASSES[j % len(CLASSES)]
        alpha = CLI_MEMBERSHIP_ALPHAS[(i + offset // len(CLASSES)) % len(CLI_MEMBERSHIP_ALPHAS)]
        argvs = [("check", check_argv(name, thm, ps)),
                 ("membership", membership_argv(name, cls, alpha)),
                 ("radius", radius_argv(name, rthm, ps))]
        if name in chk.invalid:
            return [self._item(op, argv, chk.verify_input_error(f"{op} {name}")) for op, argv in argvs]
        mono = monomial_coefficient(name)
        return [
            self._item("check", argvs[0][1], chk.verify_verdict(f"check {name} {thm}", check_key(name, thm, ps), mono)),
            self._item("membership", argvs[1][1],
                       chk.verify_verdict(f"membership {name} {cls}", membership_key(name, cls, alpha))),
            self._item("radius", argvs[2][1], chk.verify_radius(f"radius {name} {rthm}", radius_key(name, rthm, ps))),
        ]

    def extra_items(self) -> list[Item]:
        rng, chk = self.rng, self.checker
        wid = WITNESS_IDS[int(rng.integers(len(WITNESS_IDS)))]
        n = int(rng.integers(1, 4))
        alpha = 0.25 if wid == "ex3" else float(rng.choice(ALPHAS[:3]))
        thm = THEOREMS[int(rng.integers(len(THEOREMS)))]
        seed = int(rng.integers(2**31))
        ps = int(rng.integers(len(CLI_PARAMS)))
        return [
            self._item("example", example_argv(wid, n, alpha), chk.verify_example(f"example {wid}", wid, n, alpha)),
            self._item("falsify", falsify_argv(thm, n, ps, seed), chk.verify_falsify(f"falsify {thm}")),
        ]

    def rounds(self):
        """One round is a whole pass over the corpus, in seeded order."""
        offset = self.seed
        while True:
            items = []
            for i, name in enumerate(self.files):
                items.extend(self.file_items(i, name, offset))
            items.extend(self.extra_items())
            self.rng.shuffle(items)
            yield items
            offset += 1

    @staticmethod
    def setup_argv(seed: int) -> list[str]:
        wid = WITNESS_IDS[seed % 2]
        name = {"ex1": "ex1_n1_a50.json", "ex2": "ex2_n1_a25.json"}[wid]
        return check_argv(name, "thm1" if wid == "ex1" else "thm2", 0)


WORKLOADS = ("falsify_grid", "highdeg_scan", "cli_corpus")
