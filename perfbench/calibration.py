"""How fast the machine is running right now, to put timings on one scale.

On a shared 2-core VM (Python 3.11, numpy 2.4, one BLAS thread) a fixed loop
like the one below took anywhere from 7 to 12 ms within a few minutes, and
the workloads' median op times swung with it: their quartile spread over
six to eight 20-second runs was 18-25 %.  Dividing each op time by the loop
time measured next to it brought that spread to 3-6 %.  End-to-end times are
therefore reported in reference seconds: measured seconds times REFERENCE_S
over the loop time measured alongside.

The loop mixes the program's two kinds of work in about equal parts: rational
arithmetic, and the tracker's step on a 6-variable quadratic system
(evaluate, Jacobian, 6x6 complex solve, norm).  It calls nothing in the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

REFERENCE_S = 0.010  # the loop's time on the reference machine

_rng = np.random.default_rng(0)
_QUAD = _rng.normal(size=(6, 6, 6)) + 1j * _rng.normal(size=(6, 6, 6))
_LIN = _rng.normal(size=(6, 6)) + 1j * _rng.normal(size=(6, 6))
_X = _rng.normal(size=6) + 1j * _rng.normal(size=6)
_SOLVE = np.linalg.solve  # bound once, so tracing never wraps or counts it


def calibrate() -> float:
    """Wall time of one run of the fixed calibration loop (about 10 ms)."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 900):
        total += Fraction(1, i % 97 + 1) * 3
    for _ in range(180):
        f = (_QUAD @ _X) @ _X + _LIN @ _X
        dx = _SOLVE(2 * (_QUAD @ _X) + _LIN, -f)
        np.linalg.norm(dx)
    return perf_counter() - start
