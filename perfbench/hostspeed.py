"""Host-speed probe: a fixed CPU kernel that does not touch ``repro``.

The shared VMs this benchmark runs on change CPU speed by 20-30% over
seconds to minutes (CPU time tracks wall time and no steal time shows, so
the processor itself runs slower).  A drift that slow survives any run
length, so every timing is scaled to a reference host speed by a probe
measured next to it::

    scaled = raw * REFERENCE_S / probe

The kernel uses only numpy, scipy and the interpreter -- a sparse LU
factorization and solve, a dense product and a bytecode loop, the kinds of
work ``repro`` does -- so a change to ``repro`` moves the scaled times and
leaves the probe alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

#: Probe time (s) at the reference host speed: about the median probe on
#: the 2-vCPU development VM, so scaled times read close to raw ones there.
REFERENCE_S = 0.010


class HostProbe:
    """Times a fixed kernel of about 10 ms."""

    def __init__(self) -> None:
        n = 48
        line = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sparse.identity(n)
        self._matrix = (
            sparse.kron(line, eye) + sparse.kron(eye, line) + sparse.identity(n * n)
        ).tocsc()
        self._rhs = np.linspace(0.0, 1.0, n * n)
        self._dense = np.linspace(0.0, 1.0, 100 * 100).reshape(100, 100)

    def _once(self) -> float:
        start = time.perf_counter()
        splu(self._matrix).solve(self._rhs)
        self._dense @ self._dense
        total = 0
        for value in range(20000):
            total += value % 7
        return time.perf_counter() - start

    def measure(self, repeats: int = 5) -> float:
        """Median kernel time (s) over ``repeats`` runs."""
        return statistics.median(self._once() for _ in range(repeats))
