"""diskcheck benchmark.

    python3 bench/run.py --workload falsify_grid|highdeg_scan|cli_corpus \
        --seed N --seconds S --trace 0|1

With --trace 0 it measures the workload for S seconds, and for at least
one whole round, checks every output, and prints the end-to-end metrics.
With --trace 1 it runs the workload untraced and then traced, times each
layer on its own, writes the spans to bench/out/, and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Exit code 2 means the
checkout lacks something the benchmark needs; no result is printed then.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import workloads as wl

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
SETUP_REPEATS = 9
#: Calls run before timing starts, from a workload instance with its own seed.
WARMUP_ITEMS = {"falsify_grid": 3, "highdeg_scan": 20, "cli_corpus": 0}
OUT_DIR = wl.BENCH / "out"
CLI_SUBCOMMANDS = ("check", "membership", "radius", "example", "falsify")


@dataclass
class Tally:
    """Counts and call latencies of one measured pass."""

    latencies: list = field(default_factory=list)
    busy: float = 0.0
    units: int = 0
    bearing: int = 0
    decided: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def run(self, item: wl.Item, tracer=None) -> None:
        self.attempted += 1
        if tracer is not None:
            tracer.item = self.attempted
        t0 = time.perf_counter()
        try:
            result = item.call()
        except Exception as exc:  # an unexpected exception fails the operation
            self.fail(f"{item.op}: {type(exc).__name__}: {exc}")
            return
        dt = time.perf_counter() - t0
        try:
            outcome = item.verify(result)
        except Exception as exc:  # malformed output fails the operation
            self.fail(f"{item.op}: output check raised {type(exc).__name__}: {exc}")
            return
        if outcome.error:
            self.fail(outcome.error)
            return
        self.latencies.append(dt)
        self.busy += dt
        self.units += item.units
        self.bearing += outcome.bearing
        self.decided += outcome.decided

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: 5 - len(self.errors)])


def make_workload(name: str, dc, seed: int, ref: dict, runner=None):
    if name == "falsify_grid":
        return wl.FalsifyGrid(dc, seed)
    if name == "highdeg_scan":
        return wl.HighdegScan(dc, seed, ref)
    return wl.CliCorpus(seed, ref, runner or wl.run_child)


def in_process_runner(dc):
    """Runs `diskcheck.cli.main(argv)` in this process, output captured."""

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dc.cli.main(argv)
        return wl.CliResult(code, out.getvalue(), err.getvalue())

    return run


def run_rounds(workload, tally: Tally, seconds: float, tracer=None) -> float:
    """Runs one whole round, then further calls until `seconds` have passed;
    returns the wall time taken. A round is shuffled, so the calls of a cut
    round are a random share of its mix."""
    start = time.perf_counter()
    rounds = workload.rounds()
    for item in next(rounds):
        tally.run(item, tracer)
    for items in rounds:
        for item in items:
            if time.perf_counter() - start >= seconds:
                return time.perf_counter() - start
            tally.run(item, tracer)


def warm_up(name: str, dc, seed: int, ref: dict, tally: Tally, runner=None) -> None:
    left = WARMUP_ITEMS[name]
    if not left:
        return
    workload = make_workload(name, dc, seed + 1_000_003, ref, runner)
    for items in workload.rounds():
        for item in items[:left]:
            tally.run(item)
        left -= min(left, len(items))
        if not left:
            return


# ---------------------------------------------------------------- end to end


def tail_percentile(latencies: list, ceiling: float):
    """Highest ladder percentile up to `ceiling` with at least ten samples
    beyond it, or the ladder's lowest: (percentile, value, samples beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    ladder = [p for p in TAIL_LADDER if p <= ceiling]
    for p in ladder:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10 or p == ladder[-1]:
            return p, xs[rank - 1], n - rank


def setup_seconds(name: str, seed: int, ref: dict, tally: Tally) -> float:
    """Median over fresh interpreters of the time from process start to the
    first completed call of the workload's entry point."""
    samples = []
    checker = wl.CliChecker(ref) if name == "cli_corpus" else None
    for i in range(SETUP_REPEATS):
        tally.attempted += 1
        if name == "cli_corpus":
            argv = wl.CliCorpus.setup_argv(seed + i)
            t0 = time.perf_counter()
            res = wl.run_child(argv)
            samples.append(time.perf_counter() - t0)
            name_file = argv[argv.index("--input") + 1].rsplit("/", 1)[-1]
            key = wl.check_key(name_file, argv[argv.index("--theorem") + 1], 0)
            error = checker.verify_verdict(f"setup {name_file}", key,
                                           wl.monomial_coefficient(name_file))(res).error
        else:
            env = dict(os.environ, PYTHONPATH=str(wl.SRC))
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(wl.BENCH / "first_call.py"), name, str(seed + i)],
                cwd=wl.ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
            if proc.returncode != 0:
                error = f"setup child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
            else:
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
                samples.append(doc["done"] - t0)
                error = doc["error"]
        if error:
            tally.fail(error)
    return statistics.median(samples) if samples else 0.0


def end_to_end(name: str, dc, seed: int, seconds: float, ref: dict) -> dict:
    checks = Tally()
    setup = setup_seconds(name, seed, ref, checks)
    warm_up(name, dc, seed, ref, checks)
    workload = make_workload(name, dc, seed, ref)
    tally = Tally()
    wall = run_rounds(workload, tally, seconds)
    tally.absorb(checks)
    lat = tally.latencies or [0.0]  # every call failed; correct is false then
    p, tail, beyond = tail_percentile(lat, workload.tail_percentile)
    who = resource.RUSAGE_CHILDREN if name == "cli_corpus" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    print(f"{name} seed {seed}: {len(tally.latencies)} calls, {tally.units} items in {wall:.1f} s wall, "
          f"{tally.busy:.1f} s in calls; call_ms_tail is p{p:g} with {beyond} samples beyond it")
    metrics = {
        "items_per_s": (tally.units / tally.busy if tally.busy else 0.0, "1/s"),
        "call_ms_p50": (1e3 * statistics.median(lat), "ms"),
        "call_ms_tail": (1e3 * tail, "ms"),
        "decided_share": (tally.decided / tally.bearing if tally.bearing else 0.0, "ratio"),
        "ok_share": (1.0 - tally.failed / tally.attempted, "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return finish(tally, metrics)


def finish(tally: Tally, metrics: dict) -> dict:
    for msg in tally.errors:
        print(f"FAILED: {msg}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------- traced


@dataclass
class Observations:
    """What the observer sees at the entry-point boundaries."""

    durations: dict = field(default_factory=dict)
    inconclusive: dict = field(default_factory=lambda: {"hyp_uncertified": 0, "guard": 0, "singular": 0})
    trials: int = 0
    radius_iterations: list = field(default_factory=list)

    def add(self, key: str, ns: int) -> None:
        self.durations.setdefault(key, []).append(ns)

    def __call__(self, b, args, kwargs, result, ns: int) -> None:
        name = b.attr
        if name == "check":
            family = "poly_concl" if result.theorem.value in wl.POLY_CONCL else "rational_concl"
            self.add(f"check.{family}", ns)
            self._classify(result)
        elif name == "falsify":
            self.add("falsify", ns)
            self.trials += result.holds + result.inconclusive + result.fails
        elif name == "radius_of_validity":
            self.add("radius", ns)
            self.radius_iterations.append(result.iterations)
        elif name == "main":
            argv = args[0] if args else kwargs.get("argv")
            self.add(f"main.{argv[0]}", ns)
        else:
            self.add(name, ns)

    def _classify(self, rep) -> None:
        v = rep.verdict
        if v.state.value != "inconclusive":
            return
        if v.witness is not None:
            self.inconclusive["singular"] += 1
        elif v.hypothesis_margin is not None and v.hypothesis_margin <= 0:
            self.inconclusive["hyp_uncertified"] += 1
        elif rep.concl is None:
            self.inconclusive["guard"] += 1
        else:
            self.inconclusive["hyp_uncertified"] += 1

    def median(self, key: str, scale: float) -> float:
        xs = self.durations.get(key)
        return statistics.median(xs) * scale if xs else 0.0


def traced(name: str, dc, seed: int, seconds: float, ref: dict) -> dict:
    import probes
    from tracer import LAYERS, Tracer

    runner = in_process_runner(dc) if name == "cli_corpus" else None
    checks = Tally()
    warm_up(name, dc, seed, ref, checks, runner)

    plain = Tally()
    run_rounds(make_workload(name, dc, seed, ref, runner), plain, seconds / 2)

    obs = Observations()
    traced_tally = Tally()
    with Tracer(observer=obs) as tracer:
        run_rounds(make_workload(name, dc, seed, ref, runner), traced_tally, 0, tracer)

    metrics = dict(probes.layer_probes(dc, seed))
    us, ms = 1e-3, 1e-6  # nanoseconds to microseconds and milliseconds
    metrics["checks.check_ms.poly_concl"] = (obs.median("check.poly_concl", ms), "ms")
    metrics["checks.check_ms.rational_concl"] = (obs.median("check.rational_concl", ms), "ms")
    metrics["checks.membership_ms"] = (obs.median("membership", ms), "ms")
    metrics["checks.jack_probe_ms"] = (obs.median("jack_probe", ms), "ms")
    for reason, count in obs.inconclusive.items():
        metrics[f"checks.inconclusive.{reason}"] = (count, "count")

    stats = tracer.stats
    falsify_ns = sum(obs.durations.get("falsify", ()))
    sampler = stats["diskcheck.witnesses:sample_satisfying"]
    metrics["witnesses.falsify_trial_us"] = (falsify_ns * us / obs.trials if obs.trials else 0.0, "us")
    metrics["witnesses.sample_satisfying_us"] = (sampler.self_ns * us / sampler.calls if sampler.calls else 0.0, "us")
    checks_from_witnesses = stats["diskcheck.witnesses:check"].calls
    metrics["witnesses.checks_per_trial"] = (checks_from_witnesses / obs.trials if obs.trials else 0.0, "ratio")
    metrics["witnesses.radius_ms"] = (obs.median("radius", ms), "ms")
    iters = obs.radius_iterations
    metrics["witnesses.radius_iterations"] = (statistics.mean(iters) if iters else 0.0, "count")
    metrics["funcspec.load_function_us"] = (obs.median("load_function", us), "us")
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.main_ms.{sub}"] = (obs.median(f"main.{sub}", ms), "ms")

    totals = tracer.layer_totals()
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (totals[layer]["calls"], "count")
        metrics[f"{layer}.self_ms"] = (totals[layer]["self_ns"] * ms, "ms")
        metrics[f"{layer}.errors"] = (totals[layer]["errors"], "count")

    rate_plain = plain.units / plain.busy if plain.busy else 0.0
    rate_traced = traced_tally.units / traced_tally.busy if traced_tally.busy else 0.0
    metrics["trace.items_per_s_untraced"] = (rate_plain, "1/s")
    metrics["trace.items_per_s_traced"] = (rate_traced, "1/s")
    metrics["trace.overhead_ratio"] = (rate_plain / rate_traced if rate_traced else 0.0, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-{seed}.json"
    tracer.dump(path, {"workload": name, "seed": seed,
                       "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}})
    print(f"{name} seed {seed}: traced {traced_tally.attempted} calls, "
          f"{len(tracer.spans)} spans kept, {tracer.dropped} dropped; wrote {path.relative_to(wl.ROOT)}")

    for t in (plain, traced_tally):
        checks.absorb(t)
    return finish(checks, metrics)


# ---------------------------------------------------------------- main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        os.chdir(wl.ROOT)
        dc = wl.import_diskcheck()
        import diskcheck.cli  # noqa: F401  (the cli module is a layer)

        ref = wl.load_reference()
        if not wl.SCHEMA.is_file():
            raise wl.BenchSetupError(f"missing report schema {wl.SCHEMA}")
    except (wl.BenchSetupError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    run = traced if args.trace else end_to_end
    result = run(args.workload, dc, args.seed, args.seconds, ref)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
