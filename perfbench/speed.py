"""The machine's speed during a run, from a fixed computation.

The reference machine shares its host: a fixed loop's 30-second median
wanders by +-10 % and whole runs came out 30 % apart, which no choice of
workload or statistic can steady. So the benchmark times this small,
library-independent computation (a Python loop and a few small least-squares
solves, the same mix of interpreter and BLAS work as kolmo's calls) between
the calls it measures, and divides every time it reports by
``median(samples) / REFERENCE_S``: times are given as they would read on the
reference machine at its usual speed. A change to kolmo does not touch this
computation, so the factor cancels the host's drift and nothing else.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# sample() on the reference machine (2 CPUs, Python 3.11.7, numpy 2.4.6,
# OpenBLAS 0.3.31, one BLAS thread): run medians ranged 3.4 to 4.7 ms.
REFERENCE_S = 4.0e-3

_A = np.random.default_rng(0).random((400, 6))
_B = np.ones(400)


def sample() -> float:
    """Seconds one fixed computation takes now."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(40_000):
        total += (i % 7) * 0.5
    for _ in range(5):
        np.linalg.lstsq(_A, _B, rcond=None)
    return time.perf_counter() - t0


def factor(samples) -> float:
    """How much slower than usual the machine ran: divide times by this."""
    return statistics.median(samples) / REFERENCE_S
