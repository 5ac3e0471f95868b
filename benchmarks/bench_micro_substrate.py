"""Microbenchmarks of the substrate hot paths.

Unlike the experiment wrappers (one macro run each), these are classic
pytest-benchmark microbenchmarks with statistical rounds: the VM's
dispatch loop, the compiler pipeline, the wire codec and boundary, the
scheduler's selection path, and the check of a packed result.  They catch
performance regressions in the pieces every experiment sits on.
"""

import random
import time

import pytest
from bench_micro_payload import broker_hop_us

from repro.broker.registry import ProviderRegistry
from repro.broker.scheduling import make_strategy
from repro.common.ids import NodeId
from repro.core import kernels
from repro.core.qoc import QoC
from repro.common.serde import check_packed, packed
from repro.core.tasklet import Tasklet
from repro.provider.executor import local_assignment
from repro.tvm.bytecode import ProgramTable
from repro.transport.codec import CODEC_BINARY, EnvelopeDecoder, encode_envelope
from repro.transport.message import BROKER_ADDRESS, ExecutionResult, SubmitTasklet, body_of
from repro.tvm.compiler import compile_source
from repro.tvm.vm import TVM, VMLimits


def test_vm_dispatch_throughput(benchmark):
    """Raw interpreter speed on the integer benchmark kernel."""
    program = compile_source(kernels.PRIME_COUNT)

    def run():
        machine = TVM(program, limits=VMLimits(), seed=0, verify=False)
        machine.run("main", [1500])
        return machine.stats.instructions

    instructions = benchmark(run)
    assert instructions > 10_000


def test_vm_float_kernel(benchmark):
    """Float-heavy dispatch (mandelbrot row)."""
    program = compile_source(kernels.MANDELBROT_ROW)
    result = benchmark(
        lambda: TVM(program, verify=False).run("main", [5, 64, 48, 24])
    )
    assert len(result) == 64


def test_compile_pipeline(benchmark):
    """Lex+parse+check+compile of a realistic kernel."""
    program = benchmark(lambda: compile_source(kernels.MANDELBROT_ROW))
    assert program.has_function("main")


def test_program_wire_roundtrip(benchmark):
    """Encode + frame + decode one assignment carrying a compiled program,
    through the codec and the incremental decoder the transport uses."""
    program = compile_source(kernels.MANDELBROT_ROW)
    envelope = local_assignment(program, [5, 64, 48, 24]).envelope(
        BROKER_ADDRESS, NodeId("p1")
    )

    def roundtrip():
        frame = encode_envelope(envelope, CODEC_BINARY)
        return EnvelopeDecoder().feed(frame)[0][0]

    decoded = benchmark(roundtrip)
    assert decoded.payload["program"] == program.packed()


def test_body_of_execution_result(benchmark):
    """Reading one ``execution_result`` at the wire boundary: every field
    against its declared type, then the body.  Informational — the guard
    is the tier-1 test that ``body_of`` calls no introspection."""
    envelope = ExecutionResult(
        execution_id="ex-1",
        tasklet_id="tl-1",
        provider_id="p1",
        status="success",
        value=packed([1, 2]),
        instructions=500,
        started_at=1.0,
        finished_at=2.0,
    ).envelope(NodeId("p1"), BROKER_ADDRESS)
    assert benchmark(lambda: body_of(envelope)).status == "success"


@pytest.mark.parametrize(
    "kernel, args",
    [("func main(x: int) -> int { return x + 1; }", [1]), (kernels.PRIME_COUNT, [1000])],
    ids=["fine", "prime_count"],
)
def test_open_tasklet(benchmark, kernel, args):
    """The broker's share of one ``submit_tasklet`` hop: the message at
    the boundary, then the ``tasklet`` record it carries — QoC, program,
    every instruction — opened by the record grammar with no table to
    remember the program by: what a broker pays for the *first* tasklet of
    a program.  Informational; the e2e benchmark's kernels (``fine_*`` and
    ``coarse_vm``)."""
    tasklet = Tasklet("tl-1", compile_source(kernel), "main", args, qoc=QoC.reliable())
    envelope = SubmitTasklet(tasklet=tasklet.to_dict()).envelope(NodeId("c1"), BROKER_ADDRESS)
    opened = benchmark(lambda: Tasklet.from_dict(body_of(envelope).tasklet))
    assert opened.to_dict() == tasklet.to_dict()


#: A program of ~650 instructions beside one of 6: the same entry, a
#: hundred times the code.
_PROGRAMS = {
    "6-instr": "func main(x: int) -> int { return x + 1; }",
    "650-instr": "func main(x: int) -> int { var acc: int = x;"
    + "".join(f" acc = acc * 3 + {i};" for i in range(107))
    + " return acc; }",
}


def _hop(source: str):
    """One tasklet's way through the middleware, every later tasklet of
    its program: the consumer writes and encodes a ``submit_tasklet``, the
    broker decodes it, reads it and looks the program up in its table
    (warm: the first tasklet opened it), writes and encodes the
    ``assign_execution``, and the provider decodes and reads that."""
    program = compile_source(source)
    tasklet = Tasklet("tl-1", program, "main", [1], qoc=QoC.reliable())
    assignment, table = local_assignment(program, [1]), ProgramTable()
    consumer, broker, provider = NodeId("c1"), BROKER_ADDRESS, NodeId("p1")

    def through(body, src, dst):
        frame = encode_envelope(body.envelope(src, dst), CODEC_BINARY)
        return body_of(EnvelopeDecoder().feed(frame)[0][0])

    def hop():
        submitted = through(SubmitTasklet(tasklet=tasklet.to_dict()), consumer, broker)
        opened = Tasklet.from_dict(submitted.tasklet, table)
        assignment.program = submitted.tasklet["program"]
        return opened, through(assignment, broker, provider)

    return program, hop


@pytest.mark.parametrize("size", _PROGRAMS)
def test_hop_cost(benchmark, size):
    program, hop = _hop(_PROGRAMS[size])
    opened, assigned = benchmark(hop)
    assert opened.program == program and assigned.program == program.packed()
    assert abs(sum(len(f.code) for f in program.functions) - int(size.split("-")[0])) < 10


def test_hop_cost_does_not_grow_with_the_program():
    """The floor: code crosses as bytes, so a hundred times the code is
    the same Python steps per hop and a few more microseconds of memcpy
    and SHA-256 — within 2x (1.1x measured; the dict form: 24x)."""
    best = {}
    for size, source in _PROGRAMS.items():
        _, hop = _hop(source)
        hop()
        timings = []
        for _ in range(7):
            started = time.perf_counter()
            for _ in range(200):
                hop()
            timings.append((time.perf_counter() - started) / 200)
        best[size] = min(timings)
    ratio = best["650-instr"] / best["6-instr"]
    print(f"\nhop_cost: 6-instr {best['6-instr'] * 1e6:.1f} us, 650-instr "
          f"{best['650-instr'] * 1e6:.1f} us, ratio {ratio:.2f}")
    assert ratio < 2.0, f"a hop costs {ratio:.1f}x more for 100x the code"


def test_hop_cost_does_not_grow_with_the_arguments():
    """Data crosses the broker as bytes: its share of submit → assign
    (decode, open the record, check, memo key, place, encode) and of
    result → complete (decode, check, vote, complete, encode) for a
    1,024-int argument and result is within 1.5x of a 2-int one — a few
    microseconds of memcpy and SHA-256 more (the list form: about 4x)."""
    small = broker_hop_us([1, 2], rounds=300, batches=7)
    large = broker_hop_us(list(range(70_000, 71_024)), rounds=300, batches=7)
    for leg, few, many in zip(("submit -> assign", "result -> complete"), small, large):
        print(f"\nbroker hop, {leg}: 2 ints {few:.1f} us, 1,024 ints {many:.1f} us, "
              f"ratio {many / few:.2f}")
        assert many / few < 1.5, f"{leg} costs {many / few:.1f}x more for 512x the data"


def test_scheduler_selection(benchmark):
    """One placement decision over a 100-provider registry."""
    registry = ProviderRegistry()
    rng = random.Random(7)
    for index in range(100):
        record = registry.register(
            provider_id=NodeId(f"p{index:03d}"),
            device_class=rng.choice(["server", "desktop", "sbc"]),
            capacity=rng.randint(1, 8),
            benchmark_score=rng.uniform(1e6, 2e8),
            price=rng.uniform(0.5, 8.0),
            now=0.0,
        )
        for _ in range(rng.randint(0, record.capacity)):
            registry.acquire(record)
    strategy = make_strategy("qoc", seed=1)
    qoc = QoC.reliable(redundancy=3)

    def select():
        return strategy.select(registry.views(require_free_slot=True), 3, qoc)

    chosen = benchmark(select)
    assert len(chosen) == 3


def test_vote_key_structured_result(benchmark):
    """The one walk the broker makes of a nested result: the check of its
    packed bytes, which are the vote key as they arrived (no key is built)."""
    blob = packed([[float(i), i, f"s{i}", i % 2 == 0] for i in range(50)], fold_nan=True)
    assert benchmark(lambda: check_packed(blob, whole_none=True)) == 50


def test_fingerprint_memoised(benchmark):
    """Fingerprint access after memoisation must be trivially cheap."""
    program = compile_source(kernels.MANDELBROT_ROW)
    program.fingerprint()  # warm
    assert benchmark(program.fingerprint) == program.fingerprint()
