"""The box's weather, measured beside the program.

This benchmark runs on a few cores of a shared host, and how fast those
cores are is not the program's doing: over 20 minutes the same 64^3 box
step read 0.55 to 0.98 s, drifting over minutes, and every workload moved
with it. Ten runs of unchanged code then spread by 20-30% (quartile
distance over median), whatever their length: 20, 40 and 80 s windows
of one recording spread alike, so longer runs buy nothing.

What does help is to time, beside the program and all through the run,
a fixed piece of work of the harness's own that no commit can change,
and to report the program's times relative to it. One pass of the probe
is a little of what the workloads are made of:

* ``dense``  - a D3Q19-like step on 48^3: 19 ``np.roll`` s, two ``dgemm`` s
  (50 MB of arrays: past the L2s, memory-bound like ``box3d``);
* ``sparse`` - three D2Q9-like steps on an 88k-node list: ``np.take``
  through index tables, two small ``dgemm`` s (cache-bound, ``porous2d``);
* ``loop``   - a pure interpreter loop (CLI and server glue).

The *weather* of a run is the median of its passes over ``NOMINAL_S``,
the pass time of this box on an average day; the end-to-end times are
reported divided by it, i.e. as seconds at nominal weather. Per-layer
metrics stay as measured, and ``host.weather`` is reported beside them.
The time of each part of each pass is kept in the result file, so that
a reading of the weather can be taken apart later.

The probe's inputs are constants, not functions of ``--seed``, and a
pass leaves them as it found them: it is the yardstick, not the load.
"""

from __future__ import annotations

import time

import numpy as np

from .harness import median

#: One probe pass on this box on an average day, in seconds (the median of
#: 80 runs' medians). Only a scale: it makes the adjusted times read like
#: seconds of this box; every comparison between two commits is a ratio
#: and does not see it.
NOMINAL_S = 0.033

_DENSE_N = 48
_SPARSE_NODES = 88_000
_LOOP_ITERATIONS = 60_000


class Probe:
    """The fixed work whose pace stands for the weather of a run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = _DENSE_N
        self._f = rng.random((19, n, n, n))
        self._g = np.empty_like(self._f)
        self._h = np.empty_like(self._f)
        self._shifts = [tuple(int(s) for s in rng.integers(-1, 2, size=3))
                        for _ in range(19)]
        self._m = rng.random((10, 19))
        self._m_inv = rng.random((19, 10))

        nodes = _SPARSE_NODES
        self._fs = rng.random((9, nodes))
        self._gs = np.empty_like(self._fs)
        self._hs = np.empty_like(self._fs)
        base = np.arange(nodes)
        self._tables = []
        for offset in (0, 1, -1, 300, -300, 301, -301, 299, -299):
            table = np.clip(base + offset, 0, nodes - 1)
            stray = rng.random(nodes) < 0.2       # a porous list is ragged
            self._tables.append(
                np.where(stray, rng.integers(0, nodes, nodes), table))
        self._m2 = rng.random((6, 9))
        self._m2_inv = rng.random((9, 6))

        self.passes: list[float] = []
        self.parts: dict[str, list[float]] = {
            "dense": [], "sparse": [], "loop": []}

    def _dense(self) -> None:
        for q, shift in enumerate(self._shifts):
            self._g[q] = np.roll(self._f[q], shift, axis=(0, 1, 2))
        moments = self._m @ self._g.reshape(19, -1)
        np.matmul(self._m_inv, moments, out=self._h.reshape(19, -1))

    def _sparse(self) -> None:
        for _ in range(3):
            for q, table in enumerate(self._tables):
                np.take(self._fs[q], table, out=self._gs[q])
            moments = self._m2 @ self._gs
            np.matmul(self._m2_inv, moments, out=self._hs)

    @staticmethod
    def _loop() -> int:
        total = 0
        for i in range(_LOOP_ITERATIONS):
            total += i * i
        return total

    def sample(self, passes: int = 2) -> None:
        """Time ``passes`` passes of the probe."""
        for _ in range(passes):
            start = time.perf_counter()
            for name, part in self.parts.items():
                t0 = time.perf_counter()
                getattr(self, "_" + name)()
                part.append(time.perf_counter() - t0)
            self.passes.append(time.perf_counter() - start)

    @property
    def weather(self) -> float:
        """Median pass of this run over the nominal pass (1 = an average day)."""
        return median(self.passes) / NOMINAL_S
