"""Which thread runs an assignment on a ``TcpProvider`` (DESIGN.md,
"Provider internals").

A program whose latest run on this provider took less than the GIL switch
interval runs on the loop thread that read its assignment; anything else —
a program never run here, one whose latest run went over — is handed to
the pool.  Either thread makes the same calls in the same order, so a
cancel still stops queued pool work and a draining stop still waits for
an inline run's result.  All of it over real loopback sockets: a
``TcpBroker`` where the broker's own choices do not matter, a bare
listener playing the broker where the test must time each message.
"""

import sys
import threading

import pytest

from repro.bench.cluster import FAST_CONFIG, wait_until
from repro.common.ids import NodeId
from repro.common.serde import packed
from repro.provider.executor import TaskletExecutor
from repro.transport.codec import encode_envelope
from repro.transport.message import BROKER_ADDRESS, AssignExecution, CancelExecution
from repro.transport.tcp import TcpBroker, TcpConsumer, TcpProvider
from repro.tvm.compiler import compile_source

from .test_broker_link import Listener, read_envelopes

FAST = compile_source("func main(x: int) -> int { return x + 1; }")
LOOP = compile_source(
    "func main(n: int) -> int { var t: int = 0;"
    " for (var i: int = 0; i < n; i = i + 1) { t = t + i; } return t; }"
)
OTHER = compile_source("func main(x: int) -> int { return x + 2; }")
#: ~0.3 s of translated loop: far over the threshold below on any host.
SLOW_N = 2_000_000


class Executions:
    """``TaskletExecutor.execute``, patched: ``threads`` maps each tasklet id
    to the name of the thread it ran on, and an id that is ``hold``-ing
    waits at the top of ``execute`` (outside the timed run) until
    ``release``.

    The threshold is raised to 50 ms: a cheap run that the OS preempts on a
    contended core must still read as cheap here."""

    def __init__(self, monkeypatch):
        self.threads, self.entered, self._gates = {}, {}, {}
        original = TaskletExecutor.execute

        def execute(executor, request):
            self.threads[request.tasklet_id] = threading.current_thread().name
            gate = self._gates.get(request.tasklet_id)
            if gate is not None:
                self.entered[request.tasklet_id].set()
                assert gate.wait(10.0)
            return original(executor, request)

        monkeypatch.setattr(TaskletExecutor, "execute", execute)
        monkeypatch.setattr(sys, "getswitchinterval", lambda: 0.05)

    def hold(self, tasklet_id):
        self._gates[tasklet_id] = threading.Event()
        self.entered[tasklet_id] = threading.Event()

    def release(self, tasklet_id):
        if tasklet_id in self._gates:
            self._gates[tasklet_id].set()


@pytest.fixture
def runs(monkeypatch):
    return Executions(monkeypatch)


def _pool(name):
    return name.startswith("p1-exec")


def test_a_warm_cheap_program_runs_on_the_link_thread_and_an_unseen_one_on_the_pool(runs):
    with TcpBroker(config=FAST_CONFIG) as broker:
        host, port = broker.address
        with TcpProvider(host, port, node_id="p1", capacity=2, benchmark_score=1e7), \
                TcpConsumer(host, port) as consumer:
            wait_until(lambda: len(broker.core.registry) == 1, what="registration")
            library = consumer.library
            for index, (program, x, expected) in enumerate(
                [(FAST, 1, 2), (FAST, 2, 3), (FAST, 3, 4), (OTHER, 1, 3), (OTHER, 2, 4)]
            ):
                future = library.submit(program, args=[x], tasklet_id=f"t{index}")
                assert future.result(timeout=30) == expected
    threads = runs.threads
    assert _pool(threads["t0"]) and _pool(threads["t3"]), threads  # never run here
    assert threads["t1"] == threads["t2"] == threads["t4"] == "p1-link", threads


def test_a_cheap_program_whose_run_is_slow_is_demoted_at_once(runs):
    with TcpBroker(config=FAST_CONFIG) as broker:
        host, port = broker.address
        with TcpProvider(host, port, node_id="p1", capacity=2, benchmark_score=1e7), \
                TcpConsumer(host, port) as consumer:
            wait_until(lambda: len(broker.core.registry) == 1, what="registration")
            library = consumer.library
            for index, n in enumerate([3, 4, SLOW_N, 5, 6]):
                future = library.submit(LOOP, args=[n], tasklet_id=f"t{index}", fuel=10**9)
                assert future.result(timeout=60) == n * (n - 1) // 2
    # Unseen -> pool; cheap -> link; the slow run was still known cheap when
    # it arrived, and ran inline; its wall time demoted the program, so the
    # next run is the pool's, and that cheap run promotes it again.
    threads = runs.threads
    assert [_pool(threads[f"t{i}"]) for i in range(5)] == [True, False, False, True, False]
    assert threads["t1"] == threads["t2"] == threads["t4"] == "p1-link"


# -- a bare listener plays the broker: each message is timed by the test -------


def _assign(execution_id, program, x):
    return AssignExecution(
        execution_id=execution_id,
        tasklet_id=execution_id,
        consumer_id="c1",
        program=program.packed(),
        entry="main",
        args=packed([x]),
        seed=0,
        fuel=10**9,
        program_fingerprint=program.fingerprint(),
    ).envelope(BROKER_ADDRESS, NodeId("p1"))


class FakeBroker:
    """One accepted provider link: what it sent, and a way to write to it."""

    def __init__(self, provider):
        self.listener = Listener()
        host, port = self.listener.address
        self.provider = provider(host, port)
        self.provider.start()
        self.peer = self.listener.accept()
        (register,) = read_envelopes(self.peer, 1)
        assert register.type == "register_provider"

    def send(self, envelope):
        self.peer.sendall(encode_envelope(envelope))

    def results(self, count):
        """The next ``count`` envelopes that are not heartbeats."""
        out = []
        while len(out) < count:
            out.extend(e for e in read_envelopes(self.peer, 1) if e.type != "heartbeat")
        return out

    def close(self):
        self.provider.stop()
        self.peer.close()
        self.listener.close()


def _provider(capacity):
    return lambda host, port: TcpProvider(
        host, port, node_id="p1", capacity=capacity, benchmark_score=1e7,
        heartbeat_interval=30.0, reconnect=False,
    )


def test_a_cancel_for_queued_pool_work_still_drops_it(runs):
    broker = FakeBroker(_provider(capacity=1))  # one pool thread
    try:
        runs.hold("e1")
        broker.send(_assign("e1", LOOP, 10))  # unseen: the pool's one thread
        assert runs.entered["e1"].wait(5.0)
        broker.send(_assign("e2", OTHER, 1))  # unseen too: queued behind e1
        broker.send(CancelExecution(execution_id="e2").envelope(BROKER_ADDRESS, NodeId("p1")))
        core = broker.provider.core
        wait_until(lambda: core.inflight.get("e2") is True, what="the cancel")
        runs.release("e1")
        (result,) = broker.results(1)
        assert (result.type, result.payload["execution_id"]) == ("execution_result", "e1")
        wait_until(lambda: not core.inflight, what="e2 purged")
        assert "e2" not in runs.threads  # dropped before it began: never executed
        broker.send(_assign("e3", OTHER, 1))  # the link and the pool still serve
        (result,) = broker.results(1)
        assert result.payload["execution_id"] == "e3"
    finally:
        runs.release("e1")
        broker.close()


def test_a_draining_stop_loses_no_inline_result(runs):
    broker = FakeBroker(_provider(capacity=2))
    stopper = None
    try:
        broker.send(_assign("e1", FAST, 1))  # unseen: the pool; now known cheap
        (first,) = broker.results(1)
        assert first.payload["execution_id"] == "e1"
        runs.hold("e2")
        broker.send(_assign("e2", FAST, 2))
        assert runs.entered["e2"].wait(5.0)
        assert runs.threads["e2"] == "p1-link"  # in flight on the thread that read it
        stopper = threading.Thread(target=broker.provider.stop, kwargs={"drain": True})
        stopper.start()
        stopper.join(0.2)
        assert stopper.is_alive()  # the drain waits for the inline run
        runs.release("e2")
        stopper.join(10.0)
        assert not stopper.is_alive()
        result, goodbye = broker.results(2)
        assert (result.type, result.payload["execution_id"]) == ("execution_result", "e2")
        assert goodbye.type == "unregister"  # never ahead of the result
    finally:
        runs.release("e2")
        if stopper is not None:
            stopper.join(10.0)
        broker.close()
