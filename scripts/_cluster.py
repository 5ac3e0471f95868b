"""What the smoke scripts share: port picking, polling, fetching, and a
journal-backed broker that can come back on the port it died on.

Scenario and assertions stay in each ``*_smoke.py``.  Imported as a
sibling module — ``python scripts/x_smoke.py`` (how CI runs them) puts
``scripts/`` first on ``sys.path``.
"""

import socket
import time
import urllib.request

from repro.broker.core import BrokerConfig
from repro.obs import Telemetry
from repro.transport.tcp import TcpBroker

#: Failure detection in fractions of a second, not the defaults' tens.
CONFIG = dict(heartbeat_interval=0.2, heartbeat_tolerance=3.0, execution_timeout=30.0)


def free_ports(count):
    """``count`` distinct ephemeral ports, for brokers that must know each
    other's addresses before any of them is up."""
    sockets = []
    for _ in range(count):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
    ports = [sock.getsockname()[1] for sock in sockets]
    for sock in sockets:
        sock.close()
    return ports


def wait_for(predicate, deadline_s: float, what: str):
    """Poll ``predicate`` until it is truthy and return that value."""
    deadline = time.perf_counter() + deadline_s
    while time.perf_counter() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise AssertionError(f"timed out after {deadline_s}s waiting for {what}")


def start_broker(journal_path: str, port: int = 0, **options) -> TcpBroker:
    """A journal-backed, telemetered broker.  On a fixed ``port`` (a second
    incarnation) the bind is retried while the first one's socket lingers."""
    deadline = time.perf_counter() + 10.0
    while True:
        try:
            return TcpBroker(
                port=port,
                config=BrokerConfig(**CONFIG),
                telemetry=Telemetry(),
                journal_path=journal_path,
                **options,
            ).start()
        except OSError:
            if port == 0 or time.perf_counter() > deadline:
                raise
            time.sleep(0.1)


def fetch(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.read().decode()


def peer_has_slots(broker, peer_id) -> bool:
    """Whether gossip has told ``broker`` that ``peer_id`` has free capacity."""
    peer = broker.core.federation.peers.get(peer_id)
    return peer is not None and peer.alive and peer.free_slots > 0
