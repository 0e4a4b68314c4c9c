#!/usr/bin/env python3
"""Fixed reference work whose wall time measures how fast the machine is now.

``run.py`` runs this file as a child, interleaved with the program's
children, and scales the program's times by how much slower or faster
this child ran than ``run.CALIBRATION_REF_S``.  It never imports lelab,
so no change to the program moves it.  Its mix follows the program's:
interpreter start and ``import numpy``, a Python loop over small numpy
operations, dense linear algebra with the default BLAS threads, and
plain Python arithmetic.  Exits nonzero if its result is not finite.

    python3 perfbench/calibrate.py
"""

import sys

import numpy as np


def work() -> float:
    rng = np.random.default_rng(12345)
    grid = rng.random((256, 256))
    for _ in range(8):
        for j in range(grid.shape[1]):
            grid[:, j] = 0.5 * (np.roll(grid[:, j], 1) + np.roll(grid[:, j], -1))
    a = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    w = np.linalg.eigvalsh(a + a.conj().T)
    total = 0
    for i in range(600_000):
        total += i * i % 7
    return float(grid.sum()) + float(w.sum()) + total


if __name__ == "__main__":
    value = work()
    sys.exit(0 if np.isfinite(value) else 1)
