"""Host-speed calibration: a fixed reference kernel timed next to every sample.

On a shared x86-64 VM with 2 vCPUs the same code ran up to 1.7x slower in
phases lasting from seconds to minutes, and process CPU time slowed with
wall time (the time is lost inside the process, not to steal or waiting),
so the timed work alone cannot tell a slow program from a slow host. The
kernel below does not touch
`dpgfem`; it mixes what the workloads spend their time on: a pure-Python
loop with dict lookups (the per-element loops and `expr` tree walks),
small dense numpy solves (the element kernels) and CSR mat-vecs (PCG).
Each child times it right after its set-up and again after its CLI calls.

    speed = REF_S / (mean of the two measure() results)

is the host's speed during the sample relative to the reference, and a time
t measured next to it reads t * speed in reference seconds: the time the
same work takes when the kernel runs in REF_S. A change to `dpgfem`
moves t and not the kernel, so it moves the scaled time by the same
share.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# one pass of the kernel on an unloaded vCPU of the host the benchmark was
# defined on (x86-64 2-vCPU VM, Python 3.11, numpy 2.4, scipy 1.17, one
# BLAS thread)
REF_S = 0.035
PASSES = 6

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((9, 9)) + 9.0 * np.eye(9)
_b = _rng.standard_normal(9)


def _stencil():
    """5-point stencil on a 200 x 200 grid. Built per call and dropped after,
    so it adds nothing to the peak RSS of the CLI calls."""
    n = 200
    a = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-n, -1, 0, 1, n],
                 shape=(n * n, n * n), format="csr")
    return a, np.ones(n * n)


def _one_pass(a, x) -> float:
    coords = {"x": 0.3, "y": 0.7}
    s = 0.0
    for i in range(60000):
        s += (coords["x"] * i + coords["y"]) % 3.0
    for _ in range(2000):
        s += np.linalg.solve(_M, _b)[0] + (_M @ _b).sum()
    for _ in range(60):
        s += (a @ x)[0]
    return s


def measure() -> float:
    """Mean seconds of one kernel pass over PASSES passes."""
    a, x = _stencil()
    t0 = time.perf_counter()
    for _ in range(PASSES):
        _one_pass(a, x)
    return (time.perf_counter() - t0) / PASSES
