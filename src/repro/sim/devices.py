"""Heterogeneous device profiles.

This is the substitution for the paper's physical testbed (servers,
office PCs, laptops, smartphones): each class gets a calibrated *virtual*
TVM speed (instructions per virtual second), a slot count, and a price.
The absolute numbers are arbitrary; what the experiments rely on — and
what we calibrated — are the *ratios* between classes, which mirror the
single-core performance spread of 2016-era devices (a server core ~25x a
single-board computer, ~4x a phone).

``make_pool`` builds provider configurations with deterministic per-device
speed jitter, so a pool of 10 "desktops" is realistically non-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.rng import RngRegistry
from ..provider.core import ProviderConfig


@dataclass(frozen=True)
class DeviceProfile:
    """One device class of the simulated testbed."""

    name: str
    speed_ips: float  # TVM instructions per virtual second
    capacity: int  # concurrent TVM slots
    price: float  # cost units per 1e9 instructions
    startup_overhead_s: float  # per-execution fixed overhead


#: The five classes used throughout the evaluation (Table 1).
DEVICE_CLASSES: dict[str, DeviceProfile] = {
    "server": DeviceProfile(
        name="server", speed_ips=200e6, capacity=8, price=8.0, startup_overhead_s=0.001
    ),
    "desktop": DeviceProfile(
        name="desktop", speed_ips=80e6, capacity=4, price=3.0, startup_overhead_s=0.002
    ),
    "laptop": DeviceProfile(
        name="laptop", speed_ips=50e6, capacity=2, price=2.0, startup_overhead_s=0.003
    ),
    "smartphone": DeviceProfile(
        name="smartphone", speed_ips=15e6, capacity=1, price=1.0, startup_overhead_s=0.008
    ),
    "sbc": DeviceProfile(
        name="sbc", speed_ips=8e6, capacity=1, price=0.5, startup_overhead_s=0.010
    ),
}


def profile(name: str) -> DeviceProfile:
    """Look up a device class; raises ``KeyError`` with the known names."""
    if name not in DEVICE_CLASSES:
        raise KeyError(
            f"unknown device class {name!r}; known: {', '.join(sorted(DEVICE_CLASSES))}"
        )
    return DEVICE_CLASSES[name]


def make_config(
    class_name: str,
    speed_jitter: float = 0.0,
    rng_registry: RngRegistry | None = None,
    heartbeat_interval: float = 1.0,
) -> ProviderConfig:
    """Build one provider config from a device class.

    ``speed_jitter`` is the half-width of a uniform multiplicative jitter
    (0.1 = ±10%), drawn from the registry's ``devices`` stream.
    """
    device = profile(class_name)
    speed = device.speed_ips
    if speed_jitter:
        if rng_registry is None:
            raise ValueError("speed_jitter requires an RngRegistry")
        factor = 1.0 + rng_registry.stream("devices").uniform(
            -speed_jitter, speed_jitter
        )
        speed *= factor
    return ProviderConfig(
        device_class=device.name,
        capacity=device.capacity,
        speed_ips=speed,
        price=device.price,
        heartbeat_interval=heartbeat_interval,
        startup_overhead_s=device.startup_overhead_s,
    )


def make_pool(
    spec: dict[str, int],
    speed_jitter: float = 0.05,
    seed: int = 0,
    heartbeat_interval: float = 1.0,
) -> list[ProviderConfig]:
    """Build a heterogeneous pool, e.g. ``{"desktop": 4, "smartphone": 8}``.

    Configurations are returned grouped by class in sorted-name order, so
    a given ``(spec, seed)`` always produces the identical pool.
    """
    registry = RngRegistry(seed)
    configs: list[ProviderConfig] = []
    for class_name in sorted(spec):
        count = spec[class_name]
        if count < 0:
            raise ValueError(f"negative count for class {class_name!r}")
        for _ in range(count):
            configs.append(
                make_config(
                    class_name,
                    speed_jitter=speed_jitter,
                    rng_registry=registry,
                    heartbeat_interval=heartbeat_interval,
                )
            )
    return configs
