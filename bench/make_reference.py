"""Record the reference verdicts the benchmark checks outputs against.

Run from the repository root:

    python3 bench/make_reference.py

It evaluates every input the workloads can draw (the highdeg_scan tail
pool and every corpus file x command x parameter choice) and writes
bench/reference.json. Later runs fail an operation whose verdict flips
between holds and fails against this file; moving from inconclusive to a
decided verdict, or back, is allowed.
"""

from __future__ import annotations

import contextlib
import io
import json

import workloads as wl


def highdeg_reference(dc) -> dict:
    ref = {}
    for K in wl.HD_KS:
        for idx in range(wl.HD_POOL):
            pt = wl.pool_tail(K, idx)
            for thm in wl.THEOREMS:
                for scale in wl.HD_SCALES:
                    call, _, _ = wl.hd_check_call(dc, pt, thm, scale)
                    ref[wl.hd_check_key(K, idx, thm, scale)] = call().verdict.state.value
            for cls in wl.CLASSES:
                ref[wl.hd_membership_key(K, idx, cls)] = wl.hd_membership_call(dc, pt, cls)().state.value
        print(f"highdeg K={K} done", flush=True)
    return ref


def run_main(dc, argv: list[str]) -> tuple[int, dict | None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dc.cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def cli_reference(dc) -> dict:
    ref = {}
    invalid = []
    for name in wl.corpus_files():
        code, _ = run_main(dc, wl.check_argv(name, "thm1", 0))
        if code == wl.EXIT_ERROR:
            invalid.append(name)
            continue
        for ps in range(len(wl.CLI_PARAMS)):
            for thm in wl.THEOREMS:
                _, doc = run_main(dc, wl.check_argv(name, thm, ps))
                ref[wl.check_key(name, thm, ps)] = doc["result"]["verdict"]["state"]
                _, doc = run_main(dc, wl.radius_argv(name, thm, ps))
                ref[wl.radius_key(name, thm, ps)] = {
                    "status": doc["result"]["status"],
                    "r_star": doc["result"]["r_star"],
                }
        for cls in wl.CLASSES:
            for alpha in wl.CLI_MEMBERSHIP_ALPHAS:
                _, doc = run_main(dc, wl.membership_argv(name, cls, alpha))
                ref[wl.membership_key(name, cls, alpha)] = doc["result"]["verdict"]["state"]
    ref["cli/invalid_inputs"] = invalid
    return ref


def main() -> None:
    dc = wl.import_diskcheck()
    import diskcheck.cli  # noqa: F401  (run_main calls dc.cli.main)

    ref = {"diskcheck_version": dc.__version__}
    ref.update(cli_reference(dc))
    ref.update(highdeg_reference(dc))
    wl.REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(ref)} entries to {wl.REFERENCE}")


if __name__ == "__main__":
    main()
