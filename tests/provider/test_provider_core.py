"""The simulated provider — the slot-model driver over ``ProviderCore``:
virtual timing, faults, lifecycle messages.  (The protocol core on its
own is modelled in ``test_provider_model.py``.)"""

import random
import struct

import pytest

from repro.common.clock import VirtualClock
from repro.common.ids import NodeId
from repro.common.serde import opened, packed
from repro.provider.core import ProviderConfig, ProviderCore
from repro.provider.failure import ExecutionFailureModel
from repro.provider.simulated import SimProvider
from repro.transport.message import (
    REASON_UNKNOWN_PROVIDER,
    AssignExecution,
    ExecutionRejected,
    ExecutionResult,
    Heartbeat,
    RegisterAck,
    RegisterProvider,
    Unregister,
    body_of,
)
from repro.tvm.compiler import compile_source
from tests.transport.test_messages import HOSTILE_MENU

OTHER = compile_source("func main(n: int) -> int { return n; }")
PROGRAM = compile_source(
    """
    func main(n: int) -> int {
        var total: int = 0;
        for (var i: int = 0; i < n; i = i + 1) { total = total + i; }
        return total;
    }
    """
)


def make_provider(clock=None, failure_model=None, **config_overrides):
    defaults = dict(capacity=1, speed_ips=1e6, startup_overhead_s=0.01)
    defaults.update(config_overrides)
    core = ProviderCore(
        node_id=NodeId("p1"),
        clock=clock or VirtualClock(),
        config=ProviderConfig(**defaults),
    )
    core.start()  # admitting work, as after ``SimProvider.start``
    return SimProvider(core, failure_model)


def assign(n=100, execution_id="ex-1"):
    return AssignExecution(
        execution_id=execution_id,
        tasklet_id="tl-1",
        consumer_id="c1",
        program=PROGRAM.packed(),
        entry="main",
        args=packed([n]),
        seed=0,
        fuel=10_000_000,
        program_fingerprint=PROGRAM.fingerprint(),
    )


def handle(provider, body, src="broker"):
    envelope = body.envelope(NodeId(src), provider.core.node_id)
    return provider.handle(envelope)


class TestLifecycle:
    def test_start_produces_registration(self):
        provider = make_provider(capacity=3, price=2.0)
        outbound = provider.start()
        assert len(outbound) == 1
        delay, envelope = outbound[0]
        assert delay == 0.0
        body = body_of(envelope)
        assert isinstance(body, RegisterProvider)
        assert body.capacity == 3
        assert body.price == 2.0

    def test_ack_enables_heartbeats(self):
        provider = make_provider()
        assert provider.tick() == []  # not registered yet
        handle(provider, RegisterAck(accepted=True))
        beats = provider.tick()
        assert len(beats) == 1
        assert isinstance(body_of(beats[0][1]), Heartbeat)

    def test_rejected_ack_triggers_reregistration(self):
        provider = make_provider()
        outbound = handle(
            provider, RegisterAck(accepted=False, reason=REASON_UNKNOWN_PROVIDER)
        )
        assert isinstance(body_of(outbound[0][1]), RegisterProvider)

    def test_permanent_rejection_is_not_retried(self):
        provider = make_provider()
        handle(provider, RegisterAck(accepted=True))
        refusal = RegisterAck(accepted=False, reason="benchmark score must be > 0")
        assert handle(provider, refusal) == []
        assert provider.tick() == []  # refused: no longer registered

    def test_stop_produces_unregister(self):
        provider = make_provider()
        handle(provider, RegisterAck(accepted=True))
        outbound = provider.stop()
        assert isinstance(body_of(outbound[0][1]), Unregister)
        assert provider.tick() == []

    def test_heartbeat_reports_free_slots(self):
        provider = make_provider(capacity=2)
        handle(provider, RegisterAck(accepted=True))
        handle(provider, assign())
        beat = body_of(provider.tick()[0][1])
        assert beat.free_slots == 1


class TestExecutionTiming:
    def test_result_delay_is_overhead_plus_compute(self):
        provider = make_provider(speed_ips=1e6, startup_overhead_s=0.5)
        outbound = handle(provider, assign(n=1000))
        (delay, envelope), = outbound
        body = body_of(envelope)
        assert isinstance(body, ExecutionResult)
        assert body.status == "success"
        expected = 0.5 + body.instructions / 1e6
        assert delay == pytest.approx(expected)
        assert body.finished_at - body.started_at == pytest.approx(expected)

    def test_faster_device_finishes_sooner(self):
        slow = handle(make_provider(speed_ips=1e5), assign())[0][0]
        fast = handle(make_provider(speed_ips=1e7), assign())[0][0]
        assert fast < slow

    def test_busy_slot_queues_sequentially(self):
        provider = make_provider(capacity=1, speed_ips=1e6, startup_overhead_s=0.0)
        first_delay = handle(provider, assign(execution_id="a"))[0][0]
        second_delay = handle(provider, assign(execution_id="b"))[0][0]
        assert second_delay == pytest.approx(2 * first_delay)

    def test_parallel_slots_overlap(self):
        provider = make_provider(capacity=2, startup_overhead_s=0.0)
        first_delay = handle(provider, assign(execution_id="a"))[0][0]
        second_delay = handle(provider, assign(execution_id="b"))[0][0]
        assert second_delay == pytest.approx(first_delay)

    def test_slots_free_as_virtual_time_passes(self):
        clock = VirtualClock()
        provider = make_provider(clock=clock, capacity=1, startup_overhead_s=0.0)
        first_delay = handle(provider, assign(execution_id="a"))[0][0]
        clock.advance(first_delay + 1.0)
        second_delay = handle(provider, assign(execution_id="b"))[0][0]
        assert second_delay == pytest.approx(first_delay)

    def test_queue_overflow_rejects(self):
        provider = make_provider(capacity=1, max_queue=1)
        handle(provider, assign(execution_id="running"))
        handle(provider, assign(execution_id="queued"))
        outbound = handle(provider, assign(execution_id="overflow"))
        body = body_of(outbound[0][1])
        assert isinstance(body, ExecutionRejected)
        assert provider.stats.rejected == 1


class TestOutcomes:
    def test_vm_error_reported(self):
        bad = compile_source("func main(n: int) -> int { return n / 0; }")
        request = assign()
        request.program = bad.packed()
        request.program_fingerprint = bad.fingerprint()
        provider = make_provider()
        body = body_of(handle(provider, request)[0][1])
        assert body.status == "vm_error"
        assert provider.stats.vm_errors == 1

    @pytest.mark.parametrize(
        "value",
        HOSTILE_MENU + [b"", PROGRAM.packed()[:-1], PROGRAM.packed() + b"\0", OTHER.packed()],
        ids=lambda value: repr(value)[:24],
    )
    def test_a_program_that_is_not_what_it_should_be_fails_its_one_run(self, value):
        """The hostile step, aimed at ``assign_execution.program``: what is
        not bytes is an unreadable message (no answer, nothing in flight);
        bytes that pack no program, or another than the one stamped, are
        accepted like any assignment, open nothing into the cache, and are
        answered with the one ``vm_error`` — after which the provider
        still serves."""
        provider = make_provider()
        request = assign()
        request.program = value
        outbound = handle(provider, request)
        if type(value) is not bytes:
            assert outbound == [] and not provider.core.inflight
        else:
            ((_delay, envelope),) = outbound
            body = body_of(envelope)
            assert (body.status, body.value) == ("vm_error", None)
            assert body.error.startswith("VMInvalidProgram: program fingerprint mismatch: claimed ")
        assert not provider.core.executor._cache
        provider.core.clock.advance(10.0)
        assert opened(body_of(handle(provider, assign(10, "ex-2"))[0][1]).value) == 45

    def test_a_result_leaves_packed_with_every_nan_folded_into_one(self):
        """The result's bytes are its vote key: packed here, once, with
        ``fold_nan`` — whatever sign and payload this host's NaN has."""
        program = compile_source("func main(x: float) -> array { return [x - x, 1.5, 2.5, 3.5]; }")
        provider = make_provider()
        request = AssignExecution(
            "ex-1", "tl-1", "c1", program.packed(), "main", packed([float("inf")]), 0, 10_000,
            program.fingerprint(),
        )
        body = body_of(handle(provider, request)[0][1])
        assert body.status == "success"
        assert body.value == packed([float("nan"), 1.5, 2.5, 3.5], fold_nan=True)
        negative = struct.unpack(">d", bytes.fromhex("fff8000000000000"))[0]
        assert body.value == packed([negative, 1.5, 2.5, 3.5], fold_nan=True) != packed([negative, 1.5, 2.5, 3.5])

    def test_a_value_nested_past_what_any_node_opens_is_a_vm_error_not_a_crash(self):
        """A Tasklet can build a list 2,000 deep; packing it recurses per
        level.  It used to leave as a value and raise ``RecursionError`` in
        whichever thread encoded the frame; now the execution fails, typed."""
        program = compile_source(
            "func main(n: int) -> array { var a: array = [1]; var i: int = 0;"
            " while (i < n) { a = [a]; i = i + 1; } return a; }"
        )
        provider = make_provider()
        request = AssignExecution(
            "ex-1", "tl-1", "c1", program.packed(), "main", packed([2000]), 0, 1_000_000,
            program.fingerprint(),
        )
        body = body_of(handle(provider, request)[0][1])
        assert (body.status, body.value) == ("vm_error", None)
        assert body.error.startswith("result cannot be packed: RecursionError")
        assert provider.stats.vm_errors == 0 and not provider.core.inflight  # (the run itself was fine)

    def test_drop_fault_produces_no_message(self):
        provider = make_provider(
            failure_model=ExecutionFailureModel(
                drop_probability=1.0, rng=random.Random(0)
            )
        )
        assert handle(provider, assign()) == []
        assert provider.stats.dropped_by_fault == 1

    def test_corrupt_fault_changes_value(self):
        provider = make_provider(
            failure_model=ExecutionFailureModel(
                corrupt_probability=1.0, rng=random.Random(0)
            )
        )
        body = body_of(handle(provider, assign(n=10))[0][1])
        assert body.status == "success"
        assert opened(body.value) != 45
        assert provider.stats.corrupted_by_fault == 1

    def test_stats_track_busy_seconds(self):
        provider = make_provider()
        handle(provider, assign())
        assert provider.stats.busy_seconds > 0
        assert provider.stats.executed == 1
        assert provider.stats.succeeded == 1


class TestValidation:
    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_provider(capacity=0)

    def test_bad_speed_rejected(self):
        with pytest.raises(ValueError):
            make_provider(speed_ips=0)

    def test_reported_score_defaults_to_speed(self):
        config = ProviderConfig(speed_ips=5e6)
        assert config.reported_score() == 5e6
        lying = ProviderConfig(speed_ips=5e6, benchmark_score=9e9)
        assert lying.reported_score() == 9e9


class TestInSimulation:
    def test_refused_registration_does_not_ping_pong(self):
        from repro.core import kernels
        from repro.sim.runner import Simulation

        simulation = Simulation(seed=3)
        refused = simulation.add_provider(ProviderConfig(benchmark_score=0.0))
        simulation.add_provider(ProviderConfig())
        consumer = simulation.add_consumer()
        future = consumer.library.submit(kernels.PRIME_COUNT, args=[100])
        simulation.run_for(1.0)
        # One attempt, one refusal — not one per network round trip.
        assert simulation.message_type_counts["register_provider"] == 2
        assert simulation.message_type_counts["register_ack"] == 2
        assert refused not in simulation.broker.registry
        assert not simulation.providers[refused].driver.core.registered
        assert future.result(0) == kernels.python_prime_count(100)
