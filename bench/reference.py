"""A fixed reference loop that measures how fast the host runs right now.

The loop does a constant amount of interpreter and small-array numpy work,
the two kinds of work emsched does, and uses no emsched code, so no change to
the program can change its time. Timed next to each measured call, it tells
how much the host slowed that call (see README.md, "Host noise").
"""

from __future__ import annotations

import time

import numpy as np

# Seconds the loop takes on the reference host when it is quiet; metrics are
# scaled to this speed.
REFERENCE_S = 2.0e-3


def loop_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    table: dict[int, tuple[float, int]] = {}
    for i in range(10000):
        x = (i % 97) * 0.5
        acc += x * x - acc * 1e-6
        table[i & 255] = (acc, i)
    a = np.arange(256.0)
    for _ in range(100):
        a = np.minimum(a[::-1] + 1.0, a * 0.5 + 3.0)
    return time.perf_counter() - t0
