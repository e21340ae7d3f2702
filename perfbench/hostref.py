"""A fixed reference kernel that measures the host's current speed.

The shared host this benchmark runs on switches between speed states up to
about 1.7x apart, each lasting seconds to minutes.  The benchmark runs
``sample()`` between ops (outside every timed interval) and scales each
stretch of op time by REFERENCE_S / (the kernel's time around that stretch).
Times so scaled read as seconds on a host where the kernel takes
REFERENCE_S; they follow changes to cmvpencil but not the host's state.

Two kernels, each about as sensitive to the host's state as the workloads
that use it: ``interpreted`` (integer loops, exact ``Fraction`` arithmetic,
many small numpy calls, a small matrix product) for battery and
weights-exact, whose time is mostly interpreter overhead; ``array`` (dense
and tridiagonal LAPACK eigen-solves, array sweeps larger than the L2 cache,
number formatting) for pencil-scale.  On the recording host the slow state
slowed the first about 1.65x and LAPACK eigen-solves only 1.1-1.16x, so one
kernel for all would over-correct pencil-scale.  Neither touches anything of
cmvpencil, so a change to the package cannot change them.
"""

import statistics
import time
from fractions import Fraction

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

REFERENCE_S = 0.010  # either kernel's time on the nominal host

_A = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)
_SYM = np.linspace(-1.0, 1.0, 160 * 160).reshape(160, 160)
_SYM = _SYM + _SYM.T
_DIAG, _OFF = np.linspace(-2.0, 2.0, 400), np.full(399, 0.7)
_SWEEP = np.linspace(0.0, 1.0, 250_000)


def _interpreted() -> float:
    total = 0
    for i in range(30_000):
        total += i * i % 7
    frac = Fraction(0)
    for _ in range(2):
        for i in range(1, 120):
            frac += Fraction(1, i)
    vec = np.arange(64.0)
    for _ in range(800):
        vec = vec * 0.5 + 1.0
    mat = _A
    for _ in range(24):
        mat = mat @ _A * 0.01
    return total + float(frac) + float(vec[0]) + float(mat[0, 0])


def _array() -> float:
    dense = np.linalg.eigvalsh(_SYM)
    tri = eigvalsh_tridiagonal(_DIAG, _OFF)
    text = "\n".join(repr(float(x)) for x in tri)
    arr = _SWEEP
    for _ in range(4):
        arr = arr * 1.0001 + 0.5
    return float(dense[0]) + len(text) + float(arr[-1])


KERNELS = {"interpreted": _interpreted, "array": _array}


def sample(kernel: str, repeats: int = 1) -> float:
    """Median wall time of ``repeats`` runs of the named kernel."""
    run = KERNELS[kernel]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
