"""A fixed calibration kernel that cancels drift in the machine's speed.

On a shared host the same computation can run 30% slower for tens of
seconds at a time (measured on a 2-vCPU VM: 10-second medians of one fixed
scan ranged from 0.375 s to 0.66 s over four minutes), so raw wall times of
two runs a minute apart are not comparable.  The benchmark therefore runs
this kernel between its timed calls, in the same process, and reports each
call in reference seconds: its wall time times REFERENCE_SECONDS over the
kernel's median time just before and after that call.  The kernel mixes
what the package spends its time on: small-array numpy calls from Python
loops (the Jacobi sweeps and the scan loop), dense LAPACK on a few dozen
dimensions, and complex einsum contractions of the 63-dim SDP's size.  It never calls
the package, so no change to the package moves it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Kernel time that one reference second corresponds to; fixed, so that
# numbers from different commits stay comparable.
REFERENCE_SECONDS = 0.005
# Kernel time run per second of timed calls: enough samples to follow the
# drift within one pass, little enough to leave most of the run measured.
SHARE = 0.2
# Kernel runs taken on each side of a timed interval to scale it.
SIDE = 10


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self._h = (g + g.conj().T) / 2.0
        b = rng.standard_normal((48, 48))
        self._b = b @ b.T + 48.0 * np.eye(48)
        self._one = np.ones(48)
        # A 63-dim block the size of the largest SDP and certificate (2j = 62).
        ops = rng.standard_normal((9, 63, 63)) + 1j * rng.standard_normal((9, 63, 63))
        self._ops = ops + ops.conj().transpose(0, 2, 1)
        self._x = self._ops[0] @ self._ops[0]
        self._owed = 0.0
        self._mid: list[float] = []  # midpoint of each kernel run, ascending
        self._secs: list[float] = []  # its wall time

    def chunk(self) -> float:
        """Run the kernel once and record its wall time."""
        t0 = time.perf_counter()
        for _ in range(4):
            h = self._h.copy()
            for p in range(11):
                for q in range(p + 1, 12):
                    hp = h[:, p].copy()
                    h[:, p] = 0.8 * hp - 0.6 * h[:, q]
                    h[:, q] = 0.6 * hp + 0.8 * h[:, q]
            s = 0.0
            for i in range(3000):
                s += i * 0.5
            np.linalg.eigvalsh(self._b)
            np.linalg.solve(self._b, self._one)
            _ = self._b @ self._b
        x = self._x.copy()
        for p in range(0, 60, 2):
            xp = x[:, p].copy()
            x[:, p] = 0.8 * xp - 0.6 * x[:, p + 1]
            x[:, p + 1] = 0.6 * xp + 0.8 * x[:, p + 1]
        np.einsum("kac,cd->kad", np.einsum("ab,kbc->kac", x, self._ops[:1]), x)
        np.einsum("kij,ji->k", self._ops, x)
        np.linalg.eigvalsh(x)
        t1 = time.perf_counter()
        self._mid.append((t0 + t1) / 2.0)
        self._secs.append(t1 - t0)
        return t1 - t0

    def top_up(self, busy_seconds: float) -> None:
        """Run the kernel for SHARE of the given busy time."""
        self._owed += SHARE * busy_seconds
        while self._owed > 0.0:
            self._owed -= self.chunk()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end], from the
        kernel runs just before and just after it.  Bracketing the interval
        follows the drift much better than either side alone."""
        lo = bisect.bisect_left(self._mid, start)
        hi = bisect.bisect_right(self._mid, end)
        near = self._secs[max(0, lo - SIDE):lo] + self._secs[hi:hi + SIDE]
        if not near:
            near = [self.chunk()]
        return REFERENCE_SECONDS / statistics.median(near)
