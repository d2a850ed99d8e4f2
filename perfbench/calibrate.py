"""Machine-speed calibration for timings taken on a shared machine.

On a shared virtual machine the same code runs up to 1.5x slower for
seconds to minutes at a time, as other tenants load the same physical
cores. So that two commits measured at different moments compare
fairly, the benchmark times a fixed kernel of its own (numpy only; no
flycap code) before and after every op, and scales the op's wall time
by the kernel's reference time over the mean of those two kernel times:
timings are reported in seconds at a fixed reference speed. After a
long op the kernel runs repeatedly for 1% of the op's time and its
median counts, so that one kernel run's noise does not scale a whole
long op.

A slowdown hits kinds of code unequally, so there are two kernels, and
each workload's ops and set-up use the one whose slowdowns track theirs
(``KERNELS`` and ``SETUP_KERNEL`` in run.py):

- ``interp``: a Python integer loop and a small modular elimination in
  numpy, for interpreter- and small-array-bound ops;
- ``rng``: re-keying a Philox generator and drawing one short row, many
  times over, for ops made of many small counter-based random draws.

``REF_S["interp"]`` is that kernel's median time on the machine the
benchmark was tuned on (a 2.1 GHz Intel Xeon virtual machine), so there
the reported times stay close to wall times. ``REF_S["rng"]`` is it
times the two kernels' median time ratio, measured back to back there,
so both kernels define the same reference machine.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = {"interp": 2.8e-3, "rng": 3.9e-3}
_PRIME = 2147483647
_RNG_ROWS = 600


class Calibrator:
    def __init__(self, kernel: str = "interp"):
        self.kernel = kernel
        self._run = {"interp": self._interp, "rng": self._rng}[kernel]
        self._matrix = np.random.default_rng(0).integers(0, 3, (64, 64))
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        self._template = self._bitgen.state
        self._row = np.empty(50)

    def _interp(self) -> None:
        total = 0
        for i in range(20_000):
            total += i * i
        a = self._matrix.copy()
        for c in range(64):
            a[c:] = (a[c:] * 3 + a[c]) % _PRIME

    def _rng(self) -> None:
        for row in range(_RNG_ROWS):
            state = dict(self._template)
            state["state"] = {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([1, row], dtype=np.uint64),
            }
            state["buffer"] = np.zeros(4, dtype=np.uint64)
            state["buffer_pos"] = 4
            self._bitgen.state = state
            self._gen.random(out=self._row)

    def sample(self, budget_s: float = 0.0) -> float:
        """Median wall seconds of runs of the fixed kernel, run at least
        once and until ``budget_s`` has passed."""
        times = []
        started = time.perf_counter()
        while not times or time.perf_counter() - started < budget_s:
            t0 = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def scale(self, wall_s: float, before_s: float, after_s: float) -> float:
        """A wall time in seconds at the reference speed."""
        return wall_s * REF_S[self.kernel] / ((before_s + after_s) / 2)
