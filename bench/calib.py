"""Machine-speed probe: a fixed computation that does not touch besselops.

    python3 bench/calib.py

Prints the seconds one fixed piece of work takes in this process: a
numpy power-series loop over an array (the shape of the Bessel series that
dominates the campaigns) and a pure-Python loop (the shape of interpreter
start-up and imports).  The benchmark runs it between campaign processes
and scales its times by its median; see README.md, "Machine speed".
"""

from __future__ import annotations

import time

import numpy as np


def reference_work() -> float:
    z = np.linspace(0.1, 30.0, 100_000)
    q = z * z / 4.0
    acc = 0.0
    for _ in range(6):
        term = np.ones_like(z)
        total = term.copy()
        for k in range(1, 40):
            term *= q / (k * (k + 0.7))
            total += term
        acc += float(np.sum(np.exp(-z) * total * np.sqrt(z)))
    count = 0
    for i in range(400_000):
        count += i % 7
    return acc + count


if __name__ == "__main__":
    t0 = time.perf_counter()
    reference_work()
    print(repr(time.perf_counter() - t0))
