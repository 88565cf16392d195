"""Host-speed probe: a fixed pure-NumPy kernel sampled next to every operation.

The kernel has the shape of the transient integrator's hot loop -- a Python
loop of elementwise float64 operations on arrays of about 1,200 elements --
but runs none of the program's code, so a slower program still reads slower
after normalization while a slower host does not.  This module must never
import ``repro``.

The host's speed differs between vCPUs and flips between states within a
fraction of a second, so a probe timed before or after an operation misses
most of what the operation saw.  Instead, :class:`Sampler` runs the kernel in
a separate process on the measuring process's vCPU, about 1 ms every 50 ms,
and an operation is normalized by the harmonic mean of the samples taken
while it ran: ``raw * PROBE_NOMINAL_MS / harmonic_mean``.  The harmonic mean
averages over the states the operation saw while discounting a sample that
was preempted; on the reference host it tracked operation time better than
the median or the arithmetic mean (correlation 0.94 against 0.85 and 0.76
over 80 paper-flow operations).  The sampler costs the operation
about 2% of its vCPU, the same on every run.

Run as a script, this module is that sampler process: it prints one line
``<time.monotonic()> <kernel milliseconds>`` per sample until terminated.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: Typical kernel time on the reference host (2-vCPU Intel Xeon VM, Python
#: 3.11, NumPy 2.4); normalized timings read as seconds on that host.
PROBE_NOMINAL_MS = 1.0

_SIZE = 1200
_ITERATIONS = 20
_INTERVAL_S = 0.05
#: Fewer samples than this inside an operation widen its window around the
#: operation's midpoint.
_MIN_SAMPLES = 5


def _kernel(np, x, v):
    """One sample: an RK4-like loop of elementwise array operations."""
    dt = 1e-3
    for _ in range(_ITERATIONS):
        k1 = np.tanh(x * v) - 0.5 * v
        k2 = np.tanh(x * (v + 0.5 * dt * k1)) - 0.5 * (v + 0.5 * dt * k1)
        drive = np.power(np.abs(x - v) + 1e-3, 1.3)
        v = v + dt * (k1 + k2) * 0.5 + dt * 1e-3 * drive
        np.maximum(v, 0.0, out=v)
    return v


def _sample_forever() -> None:
    import numpy as np

    x = np.linspace(0.1, 1.0, _SIZE)
    while True:
        v = np.full(_SIZE, 0.3)
        start = time.perf_counter()
        _kernel(np, x, v)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        try:
            os.write(1, f"{time.monotonic():.6f} {elapsed_ms:.6f}\n".encode())
        except BrokenPipeError:
            return
        time.sleep(_INTERVAL_S)


class Sampler:
    """The sampler process and the samples it has reported so far.

    The process inherits this process's CPU affinity.  Its output is read
    without blocking, only when a caller asks for an average, so reading
    never runs inside a timed operation.
    """

    def __init__(self, startup_timeout_s: float = 60.0) -> None:
        self.samples = []
        self._tail = b""
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        os.set_blocking(self.process.stdout.fileno(), False)
        deadline = time.monotonic() + startup_timeout_s
        while not self.samples:
            if time.monotonic() > deadline or self.process.poll() is not None:
                self.close()
                raise RuntimeError("probe sampler did not start")
            time.sleep(0.01)
            self._drain()

    def _drain(self) -> None:
        fd = self.process.stdout.fileno()
        while True:
            try:
                chunk = os.read(fd, 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            self._tail += chunk
        *lines, self._tail = self._tail.split(b"\n")
        for line in lines:
            stamp, elapsed_ms = line.split()
            self.samples.append((float(stamp), float(elapsed_ms)))

    def mean_ms(self, start: float, end: float) -> float:
        """Harmonic mean kernel time over ``[start, end]`` (monotonic)."""
        self._drain()
        inside = [ms for stamp, ms in self.samples if start <= stamp <= end]
        if len(inside) < _MIN_SAMPLES:
            middle = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [ms for _, ms in nearest[:_MIN_SAMPLES]]
        return statistics.harmonic_mean(inside)

    def overall_mean_ms(self) -> float:
        self._drain()
        return statistics.harmonic_mean(ms for _, ms in self.samples)

    def close(self) -> None:
        """Stop the sampler process and wait until it has ended."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


if __name__ == "__main__":
    _sample_forever()
