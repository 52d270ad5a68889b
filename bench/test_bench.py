"""Smoke tests for the benchmark itself; run from the repository root with

    python3 -m pytest bench/test_bench.py

Each workload runs once at its smallest size in both modes, and the
tracer is checked to restore what it wraps and to survive missing names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probes  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_declared_metrics(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        for name in ("items_per_s", "call_ms_p50", "setup_s", "ok_share"):
            assert result["metrics"][name]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "falsify_grid", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _present_state():
    import diskcheck.checks
    import diskcheck.series

    return (diskcheck.checks.__dict__.copy(), dict(diskcheck.series.PolySeries.__dict__),
            dict(diskcheck.series.SeriesA.__dict__))


def test_tracer_restores_every_attribute():
    dc = wl.import_diskcheck()
    before = _present_state()
    with Tracer() as tracer:
        f = dc.SeriesA.from_tail(1, [0.1, 0.05j])
        dc.check(dc.Theorem.THM1, f, dc.Params(alpha=0.5), dc.GridSpec(m=64))
    after = _present_state()
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(b[k] is a[k] for k in b)
    totals = tracer.layer_totals()
    assert totals["checks"]["calls"] >= 1 and totals["bounds"]["calls"] >= 1
    assert totals["series"]["calls"] >= 1


def test_missing_name_counts_zero_calls(monkeypatch):
    dc = wl.import_diskcheck()
    import diskcheck.checks

    monkeypatch.delattr(diskcheck.checks, "poly_sup")
    boundaries = (
        ("diskcheck.checks", "poly_sup", "bounds"),
        ("diskcheck.checks", "no_such_function", "bounds"),
        ("diskcheck.no_such_module", "check", "checks"),
        ("diskcheck", "check", "checks"),
    )
    with Tracer(boundaries=boundaries) as tracer:
        f = dc.SeriesA.from_tail(1, [0.1])
        rep = dc.check(dc.Theorem.THM2, f, dc.Params(alpha=0.5), dc.GridSpec(m=64))
    assert rep.verdict.state.value == "holds"
    stats = tracer.stats
    for key in ("diskcheck.checks:poly_sup", "diskcheck.checks:no_such_function",
                "diskcheck.no_such_module:check"):
        assert not stats[key].present and stats[key].calls == 0
    assert stats["diskcheck:check"].calls == 1
    assert not hasattr(diskcheck.checks, "poly_sup")

    monkeypatch.delattr(dc, "circle_argmax")
    monkeypatch.delattr(dc, "eval_functional")
    out = probes.layer_probes(dc, 0)
    for K in probes.GRID_KS:
        assert out[f"bounds.circle_argmax_ms.K{K}"][0] == 0.0
        assert out[f"functionals.eval_quotient_grid_us.K{K}"][0] == 0.0
        assert out[f"bounds.poly_sup_ms.K{K}"][0] > 0.0
