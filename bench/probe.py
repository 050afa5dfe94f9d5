"""Times one benchmark set-up in a fresh interpreter and prints it in seconds.

Set-up is what a user pays before the first result: importing emsched,
loading the workload's config and one warm-up call of its command.

Usage: python3 bench/probe.py <workload> <seed>
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

wl = workloads.WORKLOADS[sys.argv[1]]()
rc, _, output = workloads.call_cli(wl.argv(int(sys.argv[2])))
elapsed = time.perf_counter() - t0
if rc != 0:
    sys.exit(f"warm-up call exited {rc}: {output.strip()}")
print(elapsed)
