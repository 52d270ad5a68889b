"""Child process behind setup_s: import diskcheck, complete the workload's
first call, and print the monotonic clock at that moment as JSON.

    python3 bench/first_call.py falsify_grid|highdeg_scan <seed>
"""

from __future__ import annotations

import json
import sys
import time

import workloads as wl


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    dc = wl.import_diskcheck()
    ref: dict = {}
    if name == "falsify_grid":
        item = wl.FalsifyGrid.setup_item(dc, seed)
    else:
        item = wl.HighdegScan.setup_item(dc, seed, ref)
    result = item.call()
    done = time.monotonic()
    if name != "falsify_grid":
        ref.update(wl.load_reference())
    print(json.dumps({"done": done, "error": item.verify(result).error}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
