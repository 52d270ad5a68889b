"""Per-layer probes: each layer's public entry points timed on their own,
untraced, on inputs built by the workload generators.

K-labelled probes use highdeg_scan pool tails truncated to K terms (K8
stands for the falsifier's short tails and runs on its m = 512 grid; the
others use m = 4096). Every timing is the median of repeated calls. The
inputs are built with the dataclass constructors and the benchmark's own
hypothesis formula, and each timed entry point is looked up by name, so a
probe whose entry point a later change removes reports 0.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads as wl

PROBE_KS = (8, 64, 512, 2048)
GRID_KS = (64, 512, 2048)
WIDTH_TAILS = 8
FALSIFY_M = 512
MIN_REPS = 3
MAX_REPS = 2000
INTERP_REPS = 5


def median_time(fn, budget_s: float = 0.15) -> float:
    """Median seconds per call over repeats filling about budget_s, or 0
    when fn is None because an entry point it needs is missing."""
    if fn is None:
        return 0.0
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < MAX_REPS and (len(times) < MIN_REPS or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def bind(fn, *args):
    """A thunk for fn(*args), or None when fn is missing."""
    return None if fn is None else (lambda: fn(*args))


def _tail(K: int, idx: int) -> wl.PoolTail:
    base = wl.pool_tail(max(K, 64), idx)
    scaled, _, _, _ = base.scaled("thm1", 0.5)
    return wl.PoolTail(K, idx, base.n, scaled[:K], base.alpha, base.beta)


def _series(dc, t: wl.PoolTail):
    coeffs = np.zeros(t.n + 1 + t.K, dtype=np.complex128)
    coeffs[1] = 1.0
    coeffs[t.n + 1:] = t.tail
    return dc.SeriesA(t.n, dc.PolySeries(coeffs))


def _hypothesis(dc, t: wl.PoolTail):
    """The star-test polynomial of the tail, which as_polynomial also returns."""
    return dc.PolySeries(wl.hyp_coeffs("star", t.n, t.tail, t.beta))


def _spec(dc, K: int):
    return dc.GridSpec(m=FALSIFY_M, refine_depth=2) if K == 8 else dc.GridSpec(m=wl.HD_M)


def layer_probes(dc, seed: int) -> dict:
    """Metric name -> (value, unit) for the series, functionals and bounds
    probes and the interpreter and import timings."""
    out = {}
    idx = seed % wl.HD_POOL
    grid = wl.R_MAX * np.exp(2j * np.pi * np.arange(wl.HD_M) / wl.HD_M)
    star, quotient = dc.Functional.STAR_TEST, dc.Functional.STAR_QUOTIENT
    tails = {K: _tail(K, idx) for K in PROBE_KS}
    fs = {K: _series(dc, t) for K, t in tails.items()}
    hyp = {K: _hypothesis(dc, t) for K, t in tails.items()}
    from_tail = getattr(dc.SeriesA, "from_tail", None)
    as_polynomial = getattr(dc, "as_polynomial", None)
    eval_functional = getattr(dc, "eval_functional", None)
    poly_sup = getattr(dc, "poly_sup", None)
    circle_argmax = getattr(dc, "circle_argmax", None)
    coeff_bound = getattr(dc, "coeff_bound", None)

    def poly_eval(K):
        return getattr(getattr(fs[K], "body", None), "eval", None)

    t8 = tails[8]
    out["series.from_tail_us"] = (1e6 * median_time(bind(from_tail, t8.n, t8.tail)), "us")
    for K in GRID_KS:
        out[f"series.eval_grid_us.K{K}"] = (1e6 * median_time(bind(poly_eval(K), grid)), "us")
    z = complex(grid[123])
    for K in (8, 512):
        out[f"series.eval_scalar_us.K{K}"] = (1e6 * median_time(bind(poly_eval(K), z)), "us")

    out["functionals.as_polynomial_us"] = (
        1e6 * median_time(bind(as_polynomial, star, fs[8], t8.beta)), "us")
    for K in GRID_KS:
        out[f"functionals.eval_quotient_grid_us.K{K}"] = (
            1e6 * median_time(bind(eval_functional, quotient, fs[K], 0j, grid)), "us")

    for K in PROBE_KS:
        spec = _spec(dc, K)
        sec = median_time(bind(poly_sup, hyp[K], wl.R_MAX, spec), budget_s=0.3)
        out[f"bounds.poly_sup_ms.K{K}"] = (1e3 * sec, "ms")
        out[f"bounds.poly_sup.coef_points_per_s.K{K}"] = (K * spec.m / sec if sec else 0.0, "1/s")
    for K in GRID_KS:
        g = None if eval_functional is None else (lambda zs, f=fs[K]: eval_functional(quotient, f, 0j, zs))
        fn = None if g is None else bind(circle_argmax, g, wl.R_MAX, _spec(dc, K))
        out[f"bounds.circle_argmax_ms.K{K}"] = (1e3 * median_time(fn, budget_s=0.3), "ms")
    out["bounds.coeff_bound_us"] = (1e6 * median_time(bind(coeff_bound, hyp[8], 1.0)), "us")

    for K in PROBE_KS:
        widths = [0.0] * WIDTH_TAILS
        if poly_sup is not None:
            spec = _spec(dc, K)
            for i in range(WIDTH_TAILS):
                b = poly_sup(_hypothesis(dc, _tail(K, i)), wl.R_MAX, spec)
                widths[i] = (b.upper - b.lower) / b.lower
        deciles = statistics.quantiles(widths, n=10)
        out[f"bounds.hyp_rel_width_p50.K{K}"] = (statistics.median(widths), "ratio")
        out[f"bounds.hyp_rel_width_p90.K{K}"] = (deciles[8], "ratio")

    out.update(interpreter_probes())
    return out


def _child_ms(code: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(wl.SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=wl.ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    wall = 1e3 * (time.perf_counter() - t0)
    if proc.returncode != 0:
        raise RuntimeError(f"probe child failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout) if proc.stdout.strip() else wall


def interpreter_probes() -> dict:
    """A bare interpreter start and the in-process `import diskcheck.cli`."""
    start = [_child_ms("pass") for _ in range(INTERP_REPS)]
    imp = [_child_ms("import time; t = time.perf_counter(); import diskcheck.cli; "
                     "print(1e3 * (time.perf_counter() - t))") for _ in range(INTERP_REPS)]
    return {
        "cli.interp_start_ms": (statistics.median(start), "ms"),
        "cli.import_ms": (statistics.median(imp), "ms"),
    }

