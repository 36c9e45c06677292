"""Host speed, sampled while the benchmark runs, to scale its times by.

On a shared VM (2 vCPUs of a 2.1 GHz Xeon) the speed of pure-Python code
swings by up to about 1.5x within seconds and drifts over minutes, with no
steal time to show for it.
A ``SpeedSampler`` runs a fixed pure-Python reference kernel from a SIGPROF
handler every ``EVERY_S`` of the process's CPU time, so the samples are
spread evenly over the run, inside long operations too. An operation's time
is measured without the handler's time in it and scaled by ``REF_S`` over
the mean kernel time within ``WINDOW_S`` of it: the time the operation
would take at the speed where the kernel takes ``REF_S``.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
from time import perf_counter

EVERY_S = 0.02
WINDOW_S = 0.5
REF_S = 1.5e-3  # the kernel's time on that VM: 1.1 to 2.4 ms
WARMUP = 20  # untimed kernel runs first: the first few run slower


def reference_kernel() -> int:
    """Fixed interpreter work that shares no code with pistr: a small
    backtracking search (recursion, sets, list pushes and pops, as in a
    labeling search), then text formatted and parsed back."""
    found = _label_cycle([], set())
    text = "\n".join(f"{i} {i * 7 % 13}" for i in range(120))
    parsed = [tuple(map(int, line.split())) for line in text.splitlines()]
    return found + sum(b for _, b in parsed)


CYCLE = 7
LABELS = range(1, 5)


def _label_cycle(labels: list[int], products: set[int]) -> int:
    """Labelings of a 7-cycle's vertices with 1..4 whose edge products are
    all distinct."""
    k = len(labels)
    if k == CYCLE:
        return int(labels[-1] * labels[0] not in products)
    count = 0
    for x in LABELS:
        if k and labels[-1] * x in products:
            continue
        if k:
            products.add(labels[-1] * x)
        labels.append(x)
        count += _label_cycle(labels, products)
        labels.pop()
        if k:
            products.discard(labels[-1] * x)
    return count


class SpeedSampler:
    """Reference kernel samples (mid time, duration) and the time spent in
    the handler, which callers subtract from what they time."""

    def __init__(self):
        self.stamps: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, times: int = 1):
        """Run the kernel now, ``times`` times."""
        for _ in range(times):
            self._sample(None, None)

    def _sample(self, signum, frame):
        if self._busy:  # the signal came while the handler ran
            return
        self._busy = True
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # the objects pistr left on the heap cannot slow it
        try:
            reference_kernel()
            t1 = perf_counter()
            self.stamps.append((t0 + t1) / 2)
            self.times.append(t1 - t0)
        except RecursionError:
            pass  # sampled at the bottom of a deep recursion: skip it
        finally:
            if enabled:
                gc.enable()
            self.spent += perf_counter() - t0
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        for _ in range(WARMUP):
            reference_kernel()
        self.sample()  # so that a short run has a sample too
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def scale(self, start: float, end: float) -> float:
        """Factor from a time measured over [start, end] to the reference
        speed; the whole run's samples if none fall near it. An operation's
        time adds up the host's speed over its span, so the samples are
        averaged, not their median taken; the tenth at either end, which
        the odd stall or lucky run puts there, is left out."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        window = sorted(self.times[lo:hi] or self.times)
        cut = len(window) // 10
        return REF_S / statistics.fmean(window[cut:len(window) - cut])
