"""Work the benchmark runs in a fresh process.

    python3 perfbench/child.py setup <workload>   # prints {"setup_s": ...}
    python3 perfbench/child.py inputs <seed>      # writes verify-j284 inputs

Run from the root of a crcodes checkout.  `setup` times what a CLI user
pays before the first operation: import, plus the workload's set-up.
"""

from __future__ import annotations

import json
import sys
import time

import checkout


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("setup", "inputs"):
        print(__doc__, file=sys.stderr)
        return 64
    import_s = checkout.import_crcodes()
    import workloads
    if argv[0] == "inputs":
        checkout.WORK.mkdir(exist_ok=True)
        workloads.write_verify_inputs(checkout.WORK, int(argv[1]))
        return 0
    wl = workloads.WORKLOADS[argv[1]](checkout.WORK, 0)
    t0 = time.perf_counter()
    wl.setup()
    print(json.dumps({"setup_s": import_s + time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
