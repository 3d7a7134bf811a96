"""Machine-speed reference for the benchmark's timings.

On a shared host the speed of a core drifts: the same pass of verify-random
took between 3.1 and 5.4 s within four minutes on a 2-core VM, in CPU time as
much as in wall time, and the drift lasts tens of seconds, so medians over a
30-s run do not remove it. The benchmark therefore measures the speed of the
core it runs on while it runs, and reports each timing at a fixed speed:

    reported time = measured time x (reference rate over that time / NOMINAL_RATE)

A reported second is a second at the speed the reference had on that VM when the
benchmark was written. A change to the program moves the measured time and not
the reference, so it shows in full.

How the rate is measured:
- `pin` puts the benchmark and the processes it starts (the solver) on one
  core, the core the reference measures.
- A `Sampler` thread runs the reference for SLICE_S of its own CPU time every
  PERIOD_S, about 2% of the core. It times itself in CPU time of its own
  thread, so time spent waiting for the core or for the GIL does not count,
  and the program cannot slow the reference down by leaving work running.
- The reference is a short loop of interpreter dispatch, small-int arithmetic,
  tuple hashing and small-dict updates. Of three kernels tried on the 2-core VM
  (this one, a BFS over a 4096-node graph, scattered lookups in a 20k-entry
  table), it followed the pipeline best: over 11 to 20 passes, log pass time
  against log rate had slope 0.91 and 0.96 and correlation 0.97 and 0.94 on
  verify-random and synth-search, and the scaled pass times spread 3.5% and
  2.4% (standard deviation) where the measured ones spread 14% and 7%.
"""

from __future__ import annotations

import os
import threading
import time

# Reference chunks per CPU second of the sampler on the 2-core VM the benchmark
# was written on, while the benchmark ran.
NOMINAL_RATE = 41000.0
PERIOD_S = 0.05
SLICE_S = 0.001
# A factor is read over at least this much time around the interval asked for,
# so that a short query gets as many samples as a long one.
MIN_WINDOW_S = 1.0


def reference_chunk() -> int:
    """Fixed interpreter work, about 25 us on the 2-core VM."""
    d = {}
    acc = 0
    for i in range(64):
        k = (i * 7919) & 31
        d[k] = d.get(k, 0) + i
        acc ^= hash((k, i))
    return acc + len(d)


def pin():
    """Run this process, its later threads and its children on one core."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


class Sampler:
    """Background thread that samples the reference rate; `factor` reads it."""

    def __init__(self):
        self.samples: list = []   # (perf_counter at the end of a slice, chunks per CPU second)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            c0 = time.thread_time()
            n = 0
            while True:
                reference_chunk()
                n += 1
                c = time.thread_time() - c0
                if c >= SLICE_S:
                    break
            self.samples.append((time.perf_counter(), n / c))

    def factor(self, t0: float, t1: float) -> float:
        """Mean reference rate from t0 to t1, widened to MIN_WINDOW_S, over NOMINAL_RATE."""
        mid, half = (t0 + t1) / 2, max(t1 - t0, MIN_WINDOW_S) / 2
        rates = [r for t, r in self.samples if mid - half <= t <= mid + half]
        if not rates:  # the sampler was held off; take the nearest sample
            rates = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return sum(rates) / len(rates) / NOMINAL_RATE
