"""Machine-speed calibration: a fixed kernel timed between the ops of a run.

On a shared VM the same op runs up to 1.9 times slower in some spells than
in others.  A spell lasts from under a second to minutes, so the share of
slow time differs from run to run and does not average out within one.  The benchmark therefore times a fixed kernel of its own
between ops, at most EVERY_S apart and always right after a long op, and
scales each op's wall time by the kernel's reference time over its local
time.  The scaled times read as wall times on a machine where the kernel
takes its reference time.  The local time is the mean of the last sample
before the op, the first one after it and any that ran within half the op's
duration (at least NEAR_S) of it, since a long op runs through several
spells.  A sample is the faster of
REPEATS kernel runs in a row, because the first run after a long op or a
child process finds the caches emptied and reads up to three times slower.

A slow spell does not slow every kind of work alike: in one, an L-BFGS-B fit
slowed by 1.68 times, a pure-Python loop by 1.37 and a dense eigensolver by
1.28.  So each workload has its own kernel, made of the library calls that
dominate its ops, and a kernel never calls the package under test, so a
change to the package cannot move it.
"""

from __future__ import annotations

import json
import time
from array import array
from bisect import bisect_left, bisect_right
from typing import Callable

import numpy as np
import scipy.optimize
import scipy.sparse as sp

EVERY_S = 0.1  # longest op time between two kernel samples
NEAR_S = 0.2  # samples this close to a short op count towards its local time
REPEATS = 2  # kernel runs per sample

_RNG = np.random.default_rng(20061)
_SQUARE = _RNG.standard_normal((288, 288))  # the order of verify's eigensolves
_SYMMETRIC = _SQUARE + _SQUARE.T
_DENSE = _RNG.standard_normal((128, 128))
_PAULI_X = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
_ID = sp.identity(2, format="csr")
_GRID = 2.0 * np.pi * np.arange(48) / 48
_COUPLINGS = np.array([1.0, 0.7, -0.5])


def _amplitude_sq(p):
    """|J_1 + J_2 e^{i p_1} + J_3 e^{i p_2}|^2 and its gradient, like the
    gap oracle's objective at d = 2."""
    z = _COUPLINGS[0] + _COUPLINGS[1] * np.exp(1j * p[0]) + _COUPLINGS[2] * np.exp(1j * p[1])
    dz = 1j * _COUPLINGS[1:] * np.exp(1j * p)
    return float(abs(z) ** 2), 2.0 * np.real(np.conj(z) * dz)


def oracle_kernel() -> float:
    """A 48 x 48 grid scan and three L-BFGS-B polishes, as in the gap oracle."""
    phases = np.exp(1j * _GRID)
    grid = np.abs(_COUPLINGS[0] + _COUPLINGS[1] * phases[:, None]
                  + _COUPLINGS[2] * phases[None, :])
    total = float(grid.min())
    for k in range(3):
        total += scipy.optimize.minimize(_amplitude_sq, (0.3 * k, 1.0), jac=True,
                                         method="L-BFGS-B").fun
    return total


def algebra_kernel() -> float:
    """A sparse Kronecker chain, as in the spin operators, and a dense SVD,
    as in the plus-sector dimension."""
    m = _PAULI_X
    for k in range(7):
        m = sp.kron(m, _ID if k % 2 else _PAULI_X, format="csr")
    return (m @ m).nnz + float(np.linalg.svd(_DENSE, compute_uv=False)[0])


def cli_kernel() -> float:
    """A dense eigensolve of verify's order 288, and rows of floats written
    as CSV and JSON, as in the bands and gapmap commands."""
    eigs = np.linalg.eigvalsh(_SYMMETRIC)
    rows = np.concatenate([eigs, -eigs, 0.5 * eigs]).reshape(-1, 4)
    text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows)
    return len(text) + len(json.dumps(rows.tolist()))


# kernel of each workload, and its reference time: about its median sample
# on a 2-core Xeon VM with Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread
KERNELS: dict[str, tuple[Callable[[], float], float]] = {
    "oracle": (oracle_kernel, 2.8e-3),
    "algebra": (algebra_kernel, 6.0e-3),
    "cli": (cli_kernel, 8.0e-3),
}


class Speed:
    """Kernel samples of one run: when each ran and how long it took."""

    def __init__(self, work: Callable[[], float], reference_s: float, clock=time.perf_counter):
        self._work = work
        self.reference_s = reference_s
        self._clock = clock
        self.starts = array("d")
        self.ends = array("d")
        self.kernel_s = array("d")

    def sample(self) -> None:
        """Time REPEATS kernel runs and keep the fastest."""
        start = self._clock()
        fastest, t0 = float("inf"), start
        for _ in range(REPEATS):
            self._work()
            t1 = self._clock()
            fastest, t0 = min(fastest, t1 - t0), t1
        self.starts.append(start)
        self.ends.append(t0)
        self.kernel_s.append(fastest)

    def maybe_sample(self) -> None:
        """Sample unless the last sample ended less than EVERY_S ago."""
        if not self.ends or self._clock() - self.ends[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """`reference_s` over the mean kernel time of the last sample that
        ended by `start`, the first that began at or after `end`, and those
        within `max(NEAR_S, (end - start) / 2)` of the interval."""
        reach = max(NEAR_S, (end - start) / 2)
        first = min(bisect_left(self.ends, start - reach),
                    bisect_right(self.ends, start) - 1)
        last = max(bisect_right(self.starts, end + reach),
                   bisect_left(self.starts, end) + 1)
        near = self.kernel_s[max(first, 0):last]
        if not near:
            raise ValueError("no calibration sample next to the interval")
        return self.reference_s / (sum(near) / len(near))

    def mean_s(self, first: int = 0) -> float:
        """Mean kernel time of the samples from index `first` on."""
        samples = self.kernel_s[first:]
        return sum(samples) / len(samples)
