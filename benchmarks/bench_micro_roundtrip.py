"""What one fine tasklet costs the benchmark process, stage by stage.

The end-to-end benchmark's consumer and broker share one process, and on
``fine_backlog`` that process is the wall: its throughput is the inverse
of the protocol work it does per tasklet.  This ruler runs that work
sans-IO — a :class:`~repro.consumer.core.ConsumerCore` behind a
``TaskletLibrary``, a :class:`~repro.broker.core.BrokerCore` on a
``VirtualClock`` with two providers, the real ``bin2`` codec between them
and no sockets — for one ``x + 1`` tasklet at a time, and records in
``BENCH_roundtrip.json`` at the repo root the mean µs of each stage:

* ``consumer_submit_us`` — ``TaskletLibrary.submit`` and the encoding of
  the ``submit_tasklet`` frame;
* ``broker_submit_us`` — decoding that frame, ``BrokerCore.handle`` and
  encoding the ``assign_execution``;
* ``broker_result_us`` — decoding the provider's ``execution_result``,
  ``handle`` and encoding the ``tasklet_complete``;
* ``consumer_complete_us`` — decoding the completion and
  ``ConsumerCore.handle``, which resolves the future.

The provider's half (decoding the assignment, answering it) runs
untimed.  Each stage is timed over a batch of ``BATCH`` tasklets, the
best of ``BATCHES`` batches counts, and every answer is checked.

The guard: ``total_us`` (the sum of the four) is at most
``TOTAL_CEILING_US``, 1.5x the median of five readings (154 µs) on a
shared 2-core x86-64 box when frames started decoding straight into
typed bodies and the consumer started packing a program's tasklet record
once (the commit before read 182 µs there, in alternating runs).  That
box's speed drifts by about 1.5x, which is the margin: the ceiling
catches a stage that doubles, not a few µs, so compare two commits only
in back-to-back alternating runs.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_micro_roundtrip.py``,
the CI ``roundtrip-perf`` job) or under pytest
(``pytest benchmarks/bench_micro_roundtrip.py``).
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

try:
    from repro.broker.core import BrokerCore
except ImportError:  # running as a plain script without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.broker.core import BrokerCore

from repro.common.clock import VirtualClock
from repro.common.ids import NodeId
from repro.common.serde import opened, packed
from repro.consumer.core import ConsumerCore
from repro.consumer.session import CoreSession
from repro.transport.codec import CODEC_BINARY, EnvelopeDecoder, encode_batch
from repro.transport.message import ExecutionResult, RegisterProvider, body_of
from repro.tvm.compiler import compile_source

PROGRAM = compile_source("func main(x: int) -> int { return x + 1; }")
PROVIDERS = ("p0", "p1")
#: Tasklets per timed batch (all in flight at once: every provider has a
#: slot for each, so nothing queues), and batches per stage.
BATCH = 500
BATCHES = 7
STAGES = ("consumer_submit_us", "broker_submit_us", "broker_result_us", "consumer_complete_us")
#: Ceiling on the sum of the four stages, in µs per tasklet.
TOTAL_CEILING_US = 230.0


class _Session(CoreSession):
    """A consumer whose sends are encoded, as a TCP consumer's are, and kept."""

    def __init__(self, core: ConsumerCore):
        super().__init__(core, base_seed=1)
        self.frames: list[bytes] = []

    def _send(self, envelopes) -> None:
        self.frames.append(encode_batch(envelopes, CODEC_BINARY))


class _Bench:
    """One consumer, one broker, two providers answered by hand."""

    def __init__(self):
        self.clock = VirtualClock()
        self.broker = BrokerCore(clock=self.clock)
        self.consumer = ConsumerCore(NodeId("c1"), self.clock)
        self.session = _Session(self.consumer)
        self.next_x = 0
        for provider in PROVIDERS:
            register = RegisterProvider(provider, "bench", BATCH, 1e8)
            self.broker.handle(register.envelope(NodeId(provider), self.broker.node_id))

    @staticmethod
    def _decoded(frames: bytes) -> list:
        return [envelope for envelope, _size in EnvelopeDecoder().feed(frames)]

    def _answer(self, frames: bytes) -> bytes:
        """A provider's result frame for the assignment ``frames`` holds."""
        (assignment,) = self._decoded(frames)
        request = body_of(assignment)
        (x,) = opened(request.args)
        now = self.clock.now()
        result = ExecutionResult(
            request.execution_id, request.tasklet_id, str(assignment.dst), "success",
            packed(x + 1, fold_nan=True), None, 4, now, now + 1e-4,
        )
        return encode_batch([result.envelope(assignment.dst, assignment.src)], CODEC_BINARY)

    def batch(self) -> dict[str, float]:
        """Run ``BATCH`` tasklets through the four stages; ns spent in each."""
        spent = dict.fromkeys(STAGES, 0)
        submit, library = self.session.frames, self.session.library
        submit.clear()
        xs = range(self.next_x, self.next_x + BATCH)
        self.next_x += BATCH
        start = time.perf_counter_ns()
        futures = [library.submit(PROGRAM, args=[x]) for x in xs]
        spent["consumer_submit_us"] = time.perf_counter_ns() - start

        assigned = []
        start = time.perf_counter_ns()
        for frames in submit:
            for envelope in self._decoded(frames):
                assigned.append(encode_batch(self.broker.handle(envelope), CODEC_BINARY))
        spent["broker_submit_us"] = time.perf_counter_ns() - start

        results = [self._answer(frames) for frames in assigned]
        completions = []
        start = time.perf_counter_ns()
        for frames in results:
            for envelope in self._decoded(frames):
                completions.append(encode_batch(self.broker.handle(envelope), CODEC_BINARY))
        spent["broker_result_us"] = time.perf_counter_ns() - start

        start = time.perf_counter_ns()
        for frames in completions:
            for envelope in self._decoded(frames):
                self.consumer.handle(envelope)
        spent["consumer_complete_us"] = time.perf_counter_ns() - start

        assert [future.result(0) for future in futures] == [x + 1 for x in xs]
        assert self.broker.pending_tasklets == 0 and self.consumer.pending == 0
        return spent


def measure() -> dict:
    bench = _Bench()
    bench.batch()  # (warm: the program is opened and the key caches fill once)
    best = dict.fromkeys(STAGES, float("inf"))
    for _ in range(BATCHES):
        gc.collect()
        for stage, ns in bench.batch().items():
            best[stage] = min(best[stage], ns / BATCH / 1e3)
    stages = {stage: round(us, 2) for stage, us in best.items()}
    return {
        "benchmark": "fine_tasklet_roundtrip",
        "tasklets_per_batch": BATCH,
        "batches": BATCHES,
        **stages,
        "total_us": round(sum(stages.values()), 2),
        "total_ceiling_us": TOTAL_CEILING_US,
    }


def write_report(payload: dict) -> Path:
    path = Path(__file__).resolve().parents[1] / "BENCH_roundtrip.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def check(payload: dict) -> None:
    assert all(payload[stage] > 0 for stage in STAGES), payload
    assert payload["total_us"] <= TOTAL_CEILING_US, (
        f"one fine tasklet costs the benchmark process {payload['total_us']} us "
        f"(ceiling {TOTAL_CEILING_US} us)"
    )


def test_a_fine_tasklet_round_trip_stays_under_its_ceiling():
    """Pytest entry point: measure, record, and enforce the guard."""
    payload = measure()
    write_report(payload)
    check(payload)


def main() -> int:
    payload = measure()
    path = write_report(payload)
    for stage in STAGES:
        print(f"{stage:>22} {payload[stage]:>8.2f} us")
    print(f"{'total_us':>22} {payload['total_us']:>8.2f} us (ceiling {TOTAL_CEILING_US}) -> {path}")
    try:
        check(payload)
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
