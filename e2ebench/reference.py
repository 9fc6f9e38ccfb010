"""A fixed reference computation that measures how fast the host runs.

The benchmark's host has a few cores of a shared machine, and other
tenants slow it down by up to 2x, in spells from under a second to
minutes.  CPU time slows with wall time, so neither clock removes
that.  The benchmark therefore takes readings of this computation,
which never changes and does not use the program under test, between
the pieces of work it measures, and scales its host times by how much
slower the reference ran than :data:`NOMINAL_S`.

The computation is a small mix of the host work the solver does per
PDIP iteration: a dense ``numpy.linalg.solve``, a matrix-vector
product and reductions, and a short pure-Python loop of dict updates.
Every round does the same work, so a sample's time depends only on
the machine.  Set-up, which is mostly process start and imports, is
scaled by :func:`import_reading` instead.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: Rounds in one sample (about 2 ms on an unloaded 2-core Xeon VM).
ROUNDS = 50

#: Samples per reading; a reading is the fastest of them, so a burst
#: that slows one sample does not move it.
SAMPLES = 2

#: A reading on an unloaded 2-core Xeon VM (the fastest seen).
NOMINAL_S = 0.0017

#: The third-party imports of the benchmark's set-up, which
#: :func:`import_reading` times in a fresh process.  The program under
#: test is not imported, so a change to it does not move the reading.
IMPORTS = "import numpy, scipy.optimize, scipy.sparse, scipy.linalg"

#: An import reading on an unloaded 2-core Xeon VM (the fastest seen).
NOMINAL_IMPORT_S = 0.5

_RNG = np.random.default_rng(20240101)
_N = 48
_MATRIX = _RNG.standard_normal((_N, _N)) + _N * np.eye(_N)
_SCALES = 1.0 + _RNG.random((8, _N))
_RHS = _RNG.standard_normal(_N)


def _compute(rounds: int) -> float:
    counts: dict[int, int] = {}
    total = 0.0
    for k in range(rounds):
        y = np.linalg.solve(_MATRIX * _SCALES[k % 8], _RHS)
        z = _MATRIX @ y
        total += float(np.abs(z).max()) + float(np.dot(z, y))
        for value in y[:12].tolist():
            key = int(value * 64) & 31
            counts[key] = counts.get(key, 0) + 1
    return total + len(counts)


def reading() -> float:
    """Seconds the reference computation takes right now, at best."""
    best = float("inf")
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _compute(ROUNDS)
        best = min(best, time.perf_counter() - start)
    return best


def import_reading() -> float:
    """Seconds a fresh interpreter takes to start and run :data:`IMPORTS`.

    Set-up is mostly process start and imports, which a loaded machine
    slows differently from the computation :func:`reading` times.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], check=True)
    return time.perf_counter() - start
