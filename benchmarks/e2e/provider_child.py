"""Provider process of the end-to-end benchmark.

One public :class:`~repro.transport.tcp.TcpProvider` plus a line protocol
on stdin/stdout so the benchmark process can read this process's CPU and
memory use and switch the tracing shims on and off.  Each command is one
line in, one JSON line out.  End of input (the parent died or closed the
pipe) stops the provider, so a crashed benchmark leaves nothing behind.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from repro.transport.tcp import TcpProvider

from tracing import Tracer

#: Pinned so ``TcpProvider.start`` skips its self-benchmark: set-up time
#: then measures the middleware, not a one-second calibration loop.
BENCHMARK_SCORE = 5_000_000.0


def usage() -> dict:
    return {
        "cpu_s": time.process_time(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--capacity", type=int, required=True)
    parser.add_argument("--node-id", required=True)
    args = parser.parse_args()

    provider = TcpProvider(
        args.host,
        args.port,
        capacity=args.capacity,
        node_id=args.node_id,
        benchmark_score=BENCHMARK_SCORE,
    ).start()
    tracer: Tracer | None = None
    try:
        print(json.dumps({"ready": True}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if command == "usage":
                reply = usage()
            elif command == "trace_on":
                tracer = Tracer()
                tracer.install_provider()
                reply = {}
            elif command == "trace_off" and tracer is not None:
                tracer.uninstall()
                reply = tracer.dump()
                tracer = None
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        provider.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
