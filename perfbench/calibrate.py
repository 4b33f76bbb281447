"""Host-speed calibration: a fixed reference kernel timed around and inside stages.

The machine the benchmark was tuned on is a 2-vCPU VM shared with other
tenants.  Its speed drifts by 10-30% for seconds to minutes at a time,
and the drift moves wall and CPU time alike, so medians within a run do
not remove it.  The benchmark therefore times this kernel, which belongs
to the benchmark and not to `openset_ssl`, right before and after every
stage and every `PROBE_INTERVAL_S` inside it, and reports each stretch
between two probes at the reference speed:

    reported = measured * REFERENCE_S / mean(kernel before, kernel after)

The kernel mixes small numpy products with pure-Python list work, the
same mix as the program's tape autodiff, so it slows down with the host
as the program does.  A change to `openset_ssl` cannot move the kernel,
so a change that makes the program slower reads slower.
"""

import contextlib
import gc
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0135  # typical kernel wall on the tuning machine
PROBE_INTERVAL_S = 0.2  # probe period inside a stage
_rng = np.random.default_rng(0)
_X = _rng.standard_normal((64, 64))
_WEIGHTS = [_rng.standard_normal((64, 64)) for _ in range(3)]


def kernel(rounds=80):
    """Run the reference kernel once; returns its wall in seconds.

    The collector is off while it runs, and everything it allocates is
    freed before it returns, so it does not move the program's garbage
    collections (and with them its peak memory)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(rounds):
            h = _X
            for w in _WEIGHTS:
                h = np.maximum(h @ w, 0.0)
                h = h / (1.0 + np.abs(h).sum(axis=1, keepdims=True))
            pairs = [(j * 0.5, str(j)) for j in range(200)]
            pairs.sort(key=lambda p: -p[0])
            del pairs, h
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Kernel probes of one iteration (or one set-up) and the scaling they
    give.  `measure` splits a stage into segments at the probes taken
    during it and scales each segment by the probes either side of it."""

    def __init__(self):
        self.probes = []
        self.spent_s = 0.0  # wall of the probes, kept out of the timings
        self.spent_cpu_s = 0.0
        self.measured_s = 0.0  # wall of the measured stages ...
        self.reference_s = 0.0  # ... and the same at the reference speed
        self._last = None
        self._active = False
        self._busy = False
        self._scaled = 0.0
        self._raw = 0.0
        self._segment_start = 0.0

    def probe(self):
        cpu0 = time.process_time()
        start = time.perf_counter()
        wall = kernel()
        self.spent_s += time.perf_counter() - start
        self.spent_cpu_s += time.process_time() - cpu0
        self.probes.append(wall)
        self._last = wall
        return wall

    def measure(self, fn, *args):
        """Call `fn(*args)`; returns its result, its wall at the reference
        speed and its measured wall, both without the probes."""
        if self._last is None:
            self.probe()
        self._scaled = 0.0
        self._raw = 0.0
        self._segment_start = time.perf_counter()
        self._active = True
        try:
            result = fn(*args)
        finally:
            self._active = False
        self._close_segment()
        return result, self._scaled, self._raw

    def _close_segment(self):
        self._busy = True  # a tick during the probe must not nest
        try:
            wall = time.perf_counter() - self._segment_start
            before = self._last
            after = self.probe()
            scaled = wall * REFERENCE_S / ((before + after) / 2.0)
            self._scaled += scaled
            self._raw += wall
            self.measured_s += wall
            self.reference_s += scaled
            self._segment_start = time.perf_counter()
        finally:
            self._busy = False

    def tick(self):
        """Close the current segment of a stage, if one is being measured."""
        if self._active and not self._busy:
            self._close_segment()

    def factor(self):
        """Measured over reference-speed time of the measured stages, or
        the median probe over the reference if nothing was measured:
        above 1 means a slow spell."""
        if self.reference_s > 0.0:
            return self.measured_s / self.reference_s
        return self.median_factor()

    def median_factor(self):
        return statistics.median(self.probes) / REFERENCE_S


@contextlib.contextmanager
def timed_probes(speed):
    """Let `speed` probe every `PROBE_INTERVAL_S` inside the stages it
    measures, from a SIGALRM handler: the handler runs between bytecodes,
    after any numpy call in progress, and the stretch it takes is cut out
    of the stage.  Not used in traced iterations, where the probes would
    land inside the traced spans."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: speed.tick())
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
