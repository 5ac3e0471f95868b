"""Closed-loop load generation and the end-to-end numbers it yields.

Applications ``map`` then ``gather`` — callers wait for replies — so the
loop is closed: one generator thread keeps a fixed window of requests
outstanding and submits the next only when a slot frees up (a done
callback on the consumer's reader thread releases it).  The generator
checks each reply against its oracle as it goes, as an application
consuming its results would, and keeps only the timestamps and verdict,
so the benchmark's own bookkeeping does not grow with the payload.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import resource
import statistics
import threading
import time

from repro.common.errors import TaskletError

from hostspeed import ReferenceClock
from workloads import Workload

#: A request unanswered this long after submission counts as failed.
REQUEST_TIMEOUT_S = 60.0

#: Peak memory of this process is read once this many tasklets (DAG nodes)
#: have been answered, not at the end of the window: the broker retains
#: completed results (up to 8,192), so memory at a fixed time grows with
#: throughput and a faster system would read as a hungrier one.
RSS_AFTER_UNITS = 1000


@dataclasses.dataclass
class Request:
    submit_ns: int
    #: ``None`` when no reply came within the timeout.
    done_ns: int | None
    correct: bool


class Requests(list):
    """Every request of one loop, oldest reply first, plus this process's
    peak resident set (KB) as of the ``RSS_AFTER_UNITS``-th tasklet."""

    def __init__(self, units: int):
        super().__init__()
        self._rss_after = math.ceil(RSS_AFTER_UNITS / units)
        self.peak_rss_kb: int | None = None

    def append(self, request: Request) -> None:
        super().append(request)
        if self.peak_rss_kb is None and len(self) >= self._rss_after:
            self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def submit(library, workload: Workload, what):
    """Submit one request; the returned future/handle has ``.result(timeout)``."""
    if workload.is_workflow:
        return library.submit_workflow(what)
    return library.submit(library.compile(workload.kernel), args=what)


def drive(library, workload: Workload, next_case, stop: threading.Event) -> Requests:
    """Run the closed loop until ``stop`` is set, then drain it."""
    run = run_workflows if workload.is_workflow else run_tasklets
    requests = Requests(workload.units)
    run(library, workload, next_case, stop, requests)
    if requests.peak_rss_kb is None:  # too slow to get that far: read it now
        requests.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return requests


def run_tasklets(library, workload, next_case, stop: threading.Event, requests: Requests) -> None:
    """Keep ``workload.window`` tasklets outstanding until ``stop``; drain."""
    slots = threading.Semaphore(workload.window)
    replies: collections.deque = collections.deque()

    def on_done(result) -> None:
        replies.append((time.monotonic_ns(), result))
        slots.release()

    pending: dict[str, tuple[int, object]] = {}

    def check_replies() -> None:
        # Only this thread fills ``pending``, so every reply it finds here
        # belongs to a submission it has already recorded.
        while replies:
            done_ns, result = replies.popleft()
            submit_ns, expected = pending.pop(result.tasklet_id)
            requests.append(
                Request(submit_ns, done_ns, bool(result.ok) and result.value == expected)
            )

    while not stop.is_set():
        if not slots.acquire(timeout=0.05):
            continue
        check_replies()
        args, expected = next_case()
        submit_ns = time.monotonic_ns()
        future = submit(library, workload, args)
        pending[future.tasklet_id] = (submit_ns, expected)
        future.add_done_callback(on_done)

    deadline = time.monotonic() + REQUEST_TIMEOUT_S
    while len(replies) < len(pending) and time.monotonic() < deadline:
        time.sleep(0.002)
    check_replies()
    requests.extend(Request(submit_ns, None, False) for submit_ns, _ in pending.values())


def run_workflows(library, workload, next_case, stop: threading.Event, requests: Requests) -> None:
    """Submit one workflow at a time until ``stop``."""
    while not stop.is_set():
        spec, expected = next_case()
        submit_ns = time.monotonic_ns()
        handle = submit(library, workload, spec)
        try:
            outputs = handle.result(timeout=REQUEST_TIMEOUT_S)
        except TaskletError:
            requests.append(Request(submit_ns, None, False))
            continue
        requests.append(Request(submit_ns, time.monotonic_ns(), outputs == expected))


def percentile(ordered: list[float], percent: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def window_numbers(
    requests: list[Request], units: int, t0: int, t1: int, clock: ReferenceClock
) -> dict:
    """Throughput and latency of the correct replies that landed in
    ``[t0, t1)``, both in reference time (see ``hostspeed.py``)."""
    latencies_ms = sorted(
        (clock.at(request.done_ns) - clock.at(request.submit_ns)) / 1e6
        for request in requests
        if request.correct and t0 <= request.done_ns < t1
    )
    numbers = {
        "completed_units": len(latencies_ms) * units,
        "tasklets_per_s": len(latencies_ms) * units / ((clock.at(t1) - clock.at(t0)) / 1e9),
        "latency_samples": len(latencies_ms),
    }
    if latencies_ms:
        numbers["latency_p50_ms"] = statistics.median(latencies_ms)
        numbers["latency_p95_ms"] = percentile(latencies_ms, 95)
        numbers["latency_p99_ms"] = percentile(latencies_ms, 99)
    return numbers
