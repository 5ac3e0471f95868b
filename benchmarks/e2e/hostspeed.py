"""How fast the host's CPUs are while the benchmark runs, and a clock that
takes it out of the numbers.

The machines this benchmark runs on are a few cores of a shared host, and
each core flips, every few seconds and independently of the others,
between a fast and a slow state some 25 % apart (the same pure-Python loop
takes 5.0 or 6.3 ms).  An 18-second window averages over a handful of such
periods, so whole runs of the same code differ by 10-15 %: that is the
host, not the program, and neither longer windows nor medians of slices
remove it.

So the benchmark measures the host alongside the program.  A sampler
thread runs a fixed pure-Python loop every 25 ms, pinned to each CPU in
turn, and times it on its own thread-CPU clock (waiting for the GIL or
for the core does not count).  ``speed = REFERENCE_LOOP_NS / loop time``
is 1.0 on a CPU that runs the loop in half a millisecond.  The
:class:`ReferenceClock` built from the samples maps ``time.monotonic_ns``
instants to *reference* nanoseconds: a wall-clock second during which the
CPUs ran at speed 0.9 counts as 0.9 reference seconds.  Every end-to-end
time is read on that clock; README.md ("Reference time") has what that
buys.  The loop is the interpreter's own, not this repository's code, so
no change to the program can move it.

The sampler holds the GIL of the benchmark process for ~2 % of the time.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time

#: Iterations of the calibration loop (~0.5 ms on the reference CPU).
LOOP_ITERATIONS = 7500

#: Thread-CPU time of the loop on a CPU of speed 1.0.
REFERENCE_LOOP_NS = 500_000

#: One sample this often; each CPU is sampled once per round over all CPUs.
SAMPLE_PERIOD_S = 0.025

#: The speed is taken as constant over buckets this long.
BUCKET_NS = 1_000_000_000


def calibration_loop() -> int:
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc = (acc + i * i) % 1000003
    return acc


class HostSpeedSampler:
    """Samples the speed of every CPU this process may run on until
    stopped; at least one sample is taken."""

    def __init__(self) -> None:
        self._cpus = sorted(os.sched_getaffinity(0))
        #: (monotonic_ns at the end of the loop, thread-CPU ns of the loop)
        self._samples: list[tuple[int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def start(self) -> "HostSpeedSampler":
        self._thread.start()
        return self

    def stop(self) -> "ReferenceClock":
        self._stop.set()
        self._thread.join()
        return ReferenceClock(self._samples)

    def _run(self) -> None:
        tid = threading.get_native_id()
        for cpu in itertools.cycle(self._cpus):
            os.sched_setaffinity(tid, {cpu})
            started = time.thread_time_ns()
            calibration_loop()
            took = time.thread_time_ns() - started
            self._samples.append((time.monotonic_ns(), took))
            if self._stop.wait(SAMPLE_PERIOD_S):
                break


class ReferenceClock:
    """Maps ``time.monotonic_ns`` instants to reference nanoseconds."""

    def __init__(self, samples: list[tuple[int, int]]):
        self._origin = samples[0][0]
        buckets: dict[int, list[int]] = {}
        for at_ns, took in samples:
            buckets.setdefault((at_ns - self._origin) // BUCKET_NS, []).append(took)
        #: Speed per bucket: reference over mean loop time, all CPUs pooled
        #: (each is sampled as often as the others).  The mean, not the
        #: median: a host that stalls one loop in ten slows the program by
        #: as much.  A bucket without a sample repeats the one before.
        self._speeds: list[float] = []
        for index in range(max(buckets) + 1):
            took = buckets.get(index)
            self._speeds.append(
                REFERENCE_LOOP_NS / statistics.mean(took) if took else self._speeds[-1]
            )
        #: Reference ns elapsed at the start of each bucket.
        self._elapsed = [0.0]
        for speed in self._speeds:
            self._elapsed.append(self._elapsed[-1] + speed * BUCKET_NS)

    def at(self, t_ns: int) -> float:
        """Reference ns at ``t_ns``; beyond the samples the edge speed holds."""
        offset = t_ns - self._origin
        index = min(max(offset // BUCKET_NS, 0), len(self._speeds) - 1)
        return self._elapsed[index] + (offset - index * BUCKET_NS) * self._speeds[index]

    def speed(self, a_ns: int, b_ns: int) -> float:
        """Mean speed of the host between two instants."""
        return (self.at(b_ns) - self.at(a_ns)) / (b_ns - a_ns)
