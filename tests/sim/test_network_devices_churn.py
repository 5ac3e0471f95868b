"""Network models, device profiles, churn processes, workload generators."""

import pytest

from repro.bench.experiments.exp_f2_breakdown import BandwidthLatency, wire_size
from repro.bench.experiments.exp_f4_heterogeneity import mixed
from repro.bench.simlib import mandelbrot
from repro.common.ids import NodeId
from repro.sim.churn import ExponentialChurn, NoChurn, TraceChurn
from repro.sim.devices import (
    DEVICE_CLASSES,
    make_config,
    make_pool,
    profile,
)
from repro.sim.network import ConstantLatency
from repro.sim.workloads import WORKLOADS, matmul_tiles, prime_count
from repro.transport.message import Heartbeat

A, B = NodeId("a"), NodeId("b")
HEARTBEAT = Heartbeat(provider_id="a", free_slots=1).envelope(A, B)


class TestNetworkModels:
    def test_constant(self):
        assert ConstantLatency(0.01).delay(A, B, HEARTBEAT) == 0.01

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_bandwidth_scales_with_message_size(self):
        model = BandwidthLatency(base_s=0.0, bandwidth_bps=8e6)  # 1 MB/s
        small = model.delay(A, B, HEARTBEAT)
        big_payload = Heartbeat(provider_id="a" * 5000, free_slots=1).envelope(A, B)
        big = model.delay(A, B, big_payload)
        assert big > small
        assert big - small == pytest.approx(
            (wire_size(big_payload) - wire_size(HEARTBEAT)) * 8 / 8e6
        )


class TestDevices:
    def test_five_classes_exist(self):
        assert set(DEVICE_CLASSES) == {
            "server", "desktop", "laptop", "smartphone", "sbc"
        }

    def test_classes_strictly_ordered_by_speed(self):
        speeds = [DEVICE_CLASSES[c].speed_ips
                  for c in ("server", "desktop", "laptop", "smartphone", "sbc")]
        assert all(a > b for a, b in zip(speeds, speeds[1:]))

    def test_profile_unknown_class(self):
        with pytest.raises(KeyError):
            profile("mainframe")

    def test_make_config_inherits_profile(self):
        config = make_config("laptop")
        assert config.device_class == "laptop"
        assert config.capacity == DEVICE_CLASSES["laptop"].capacity
        assert config.speed_ips == DEVICE_CLASSES["laptop"].speed_ips

    def test_pool_is_deterministic_per_seed(self):
        first = make_pool({"desktop": 3, "sbc": 2}, seed=5)
        second = make_pool({"desktop": 3, "sbc": 2}, seed=5)
        assert [c.speed_ips for c in first] == [c.speed_ips for c in second]
        third = make_pool({"desktop": 3, "sbc": 2}, seed=6)
        assert [c.speed_ips for c in first] != [c.speed_ips for c in third]

    def test_pool_jitter_bounded(self):
        pool = make_pool({"desktop": 20}, speed_jitter=0.1, seed=1)
        nominal = DEVICE_CLASSES["desktop"].speed_ips
        assert all(0.9 * nominal <= c.speed_ips <= 1.1 * nominal for c in pool)
        assert len({c.speed_ips for c in pool}) > 1  # actually jittered

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            make_pool({"desktop": -1})


class TestChurn:
    def test_no_churn_is_forever_up(self):
        sessions = NoChurn().sessions()
        is_up, duration = next(sessions)
        assert is_up and duration == float("inf")

    def test_exponential_starts_up_and_alternates(self):
        sessions = ExponentialChurn(mean_up_s=10, mean_down_s=5, seed=2).sessions()
        states = [next(sessions)[0] for _ in range(6)]
        assert states == [True, False, True, False, True, False]

    def test_exponential_is_seeded(self):
        iter_a = ExponentialChurn(mean_up_s=10, mean_down_s=5, seed=9).sessions()
        iter_b = ExponentialChurn(mean_up_s=10, mean_down_s=5, seed=9).sessions()
        assert [next(iter_a) for _ in range(10)] == [next(iter_b) for _ in range(10)]

    def test_duty_cycle_math(self):
        churn = ExponentialChurn(mean_up_s=60, mean_down_s=20)
        assert churn.duty_cycle == pytest.approx(0.75)

    def test_from_duty_cycle(self):
        churn = ExponentialChurn.from_duty_cycle(0.8, cycle_s=50)
        assert churn.duty_cycle == pytest.approx(0.8)
        assert churn.mean_up_s + churn.mean_down_s == pytest.approx(50)

    def test_from_duty_cycle_validation(self):
        with pytest.raises(ValueError):
            ExponentialChurn.from_duty_cycle(0.0)
        with pytest.raises(ValueError):
            ExponentialChurn.from_duty_cycle(1.5)

    def test_invalid_means_rejected(self):
        with pytest.raises(ValueError):
            ExponentialChurn(mean_up_s=0, mean_down_s=1)

    def test_empirical_duty_cycle(self):
        churn = ExponentialChurn.from_duty_cycle(0.7, cycle_s=10, seed=4)
        up = down = 0.0
        sessions = churn.sessions()
        for _ in range(2000):
            is_up, duration = next(sessions)
            if is_up:
                up += duration
            else:
                down += duration
        assert up / (up + down) == pytest.approx(0.7, abs=0.05)

    def test_trace_replays_then_holds(self):
        churn = TraceChurn([(True, 5.0), (False, 3.0)])
        sessions = churn.sessions()
        assert next(sessions) == (True, 5.0)
        assert next(sessions) == (False, 3.0)
        assert next(sessions) == (False, float("inf"))

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            TraceChurn([])
        with pytest.raises(ValueError):
            TraceChurn([(True, -1.0)])


class TestWorkloads:
    def test_registry_builds_every_workload(self):
        for name, generator in WORKLOADS.items():
            workload = generator()
            assert len(workload) > 0, name
            assert workload.program.has_function(workload.entry)

    def test_mandelbrot_one_task_per_row(self):
        workload = mandelbrot(width=10, height=7, max_iter=5)
        assert len(workload) == 7
        assert [args[0] for args in workload.args_list] == list(range(7))

    def test_matmul_has_oracle(self):
        workload = matmul_tiles(tiles=2, n=3, seed=1)
        assert workload.expected is not None
        assert len(workload.expected) == 2

    def test_matmul_deterministic_per_seed(self):
        a = matmul_tiles(tiles=2, n=3, seed=7)
        b = matmul_tiles(tiles=2, n=3, seed=7)
        assert a.args_list == b.args_list

    def test_prime_count_oracle(self):
        workload = prime_count(tasks=3, limit=100)
        assert workload.expected == [25] * 3

    def test_mixed_is_shuffled_but_deterministic(self):
        a = mixed(seed=1)
        b = mixed(seed=1)
        c = mixed(seed=2)
        assert a.args_list == b.args_list
        assert a.args_list != c.args_list
        sizes = {args[0] for args in a.args_list}
        assert len(sizes) == 3  # small, medium, large
