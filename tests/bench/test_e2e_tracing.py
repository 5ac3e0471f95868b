"""The end-to-end benchmark's tracing shim still fits this build.

``benchmarks/e2e/tracing.py`` times every layer from outside by patching
public names of ``src/`` — ``BrokerCore.handle`` / ``tick``, the
instance's ``strategy.select``, ``ConsumerCore.handle``,
``TaskletLibrary.submit`` / ``submit_workflow``, ``DagScheduler.start`` /
``complete``, ``TaskletExecutor.execute``, ``encode_batch`` in ``tcp``
and ``aio`` and ``EnvelopeDecoder.feed`` — and reads request ids off the
``payload`` of the envelopes handed to the cores.  The shim is frozen with
the benchmark, so a rename here must fail here: this test installs it,
drives one tasklet and one workflow through the patched names over the
real codec, checks that every span names its request, and that
``uninstall()`` puts every original back.
"""

import dataclasses
import importlib.util
from pathlib import Path

from repro.broker.core import BrokerCore
from repro.common.clock import VirtualClock
from repro.common.ids import NodeId
from repro.common.serde import packed
from repro.consumer.core import ConsumerCore
from repro.consumer.library import TaskletLibrary
from repro.consumer.session import CoreSession
from repro.dag.patterns import stencil
from repro.dag.scheduler import DagScheduler
from repro.provider.executor import TaskletExecutor
from repro.transport import aio, tcp
from repro.transport.codec import CODEC_BINARY, EnvelopeDecoder
from repro.transport.message import ExecutionResult, Heartbeat, RegisterProvider, body_of

SHIM = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"


def _load_shim():
    spec = importlib.util.spec_from_file_location("e2e_tracing_shim", SHIM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Session(CoreSession):
    """A consumer whose sends leave through ``tcp.encode_batch``, looked up per call."""

    def __init__(self, core):
        super().__init__(core, base_seed=1)
        self.frames = []

    def _send(self, envelopes):
        self.frames.append(tcp.encode_batch(envelopes, CODEC_BINARY))


def _arrived(frames: bytes) -> list:
    return [envelope for envelope, _size in EnvelopeDecoder().feed(frames)]


def _run(broker: BrokerCore, session: _Session, executor: TaskletExecutor, provider: NodeId):
    """Carry what the consumer sent — and every answer — to where it goes."""
    queue, session.frames = session.frames, []
    while queue:
        for envelope in _arrived(queue.pop(0)):
            if str(envelope.dst) == str(broker.node_id):
                out = broker.handle(envelope)
                if out:
                    queue.append(aio.encode_batch(out, CODEC_BINARY))
            elif envelope.dst == provider:
                request = body_of(envelope)
                outcome = executor.execute(request)
                value = packed(outcome.value, fold_nan=True) if outcome.ok else None
                result = ExecutionResult(
                    request.execution_id, request.tasklet_id, str(provider),
                    outcome.status.value, value, outcome.error, outcome.instructions,
                )
                queue.append(tcp.encode_batch([result.envelope(provider, envelope.src)], CODEC_BINARY))
            else:
                session.core.handle(envelope)


def test_the_tracing_shim_patches_names_this_build_has_and_reads_its_envelopes():
    shim = _load_shim()
    clock = VirtualClock()
    broker = BrokerCore(clock)
    provider = NodeId("p1")
    watched = [
        (BrokerCore, "handle"), (BrokerCore, "tick"), (broker.strategy, "select"),
        (ConsumerCore, "handle"), (TaskletLibrary, "submit"), (TaskletLibrary, "submit_workflow"),
        (DagScheduler, "start"), (DagScheduler, "complete"), (TaskletExecutor, "execute"),
        (tcp, "encode_batch"), (aio, "encode_batch"), (EnvelopeDecoder, "feed"),
    ]
    before = {(id(owner), attr): vars(owner).get(attr) for owner, attr in watched}
    assert all(hasattr(owner, attr) for owner, attr in watched)

    tracer = shim.Tracer()
    tracer.install_bench(broker)
    tracer.install_provider()
    try:
        patched = {(id(owner), attr) for owner, attr, _original in tracer._patches}
        assert patched == set(before)
        assert all(vars(owner).get(attr) is not before[id(owner), attr] for owner, attr in watched)

        register = RegisterProvider(str(provider), "bench", 4, 1e8).envelope(provider, broker.node_id)
        broker.handle(register)
        broker.handle(Heartbeat(str(provider), 4).envelope(provider, broker.node_id))
        session = _Session(ConsumerCore(NodeId("c1"), clock))
        library = session.library
        future = library.submit("func main(x: int) -> int { return x + 1; }", args=[41])
        handle = library.submit_workflow(stencil(2, 2, work=3, salt=9))
        _run(broker, session, TaskletExecutor(), provider)
        broker.tick()
        assert future.result(0) == 42 and handle.result(0)
    finally:
        tracer.uninstall()

    assert {(id(owner), attr): vars(owner).get(attr) for owner, attr in watched} == before
    names = {span[0] for span in tracer.spans}
    assert names >= {
        "consumer.submit", "broker.handle.submit", "broker.handle.result",
        "broker.handle.heartbeat", "broker.handle.other", "broker.tick", "broker.assign",
        "provider.execute", "consumer.resolve", "dag.scheduler",
        "codec.encode.tcp", "codec.encode.aio", "codec.decode",
    }
    for name in ("consumer.submit", "broker.handle.submit", "broker.handle.result",
                 "broker.assign", "provider.execute", "consumer.resolve", "dag.scheduler"):
        requests = {span[3] for span in tracer.spans if span[0] == name}
        assert requests and None not in requests, (name, requests)
    assert future.tasklet_id in {span[3] for span in tracer.spans if span[0] == "broker.handle.submit"}
    assert tracer.select_calls > 0
    for stats in (broker.stats, session.core.stats):
        assert dataclasses.asdict(stats)
