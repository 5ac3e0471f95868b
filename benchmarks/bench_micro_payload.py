"""Array payloads: what packing, opening, checking and carrying one cost per item.

A tasklet that carries an array has it packed once (by the consumer that
sends it, the provider that returns it) and opened once (by the provider
that runs it, the consumer that reads it); the broker in between checks
the packed bytes and carries them.  A list of plain ints takes the
*packed* form of ``repro.common.serde`` — one C-level pass, no Python step
per element — and any other list (here: the same ints with one ``True``
appended) the *per-item* form, which is the cost every array paid before
the packed form existed.  This script times both in the same build and
records them in ``BENCH_payload.json`` at the repo root:

* ``encode_us`` / ``decode_us`` — one envelope carrying the array as a
  value through ``encode_envelope`` and ``EnvelopeDecoder.feed`` under
  the binary codec (what packing and opening it cost, framing included);
* ``check_us`` — ``serde.check_packed`` of its packed bytes (the walk the
  broker makes: a header for a packed array, every item otherwise);
* ``validate_us`` — ``tvm.vm.is_tasklet_value`` of the array (the
  consumer's check when it builds the Tasklet);
* ``broker_hop_us`` — the broker's whole share of one echo tasklet that
  carries the array both ways (:func:`broker_hop_us`: submit → assign
  plus result → complete; decode, ``BrokerCore.handle``, encode);
* ``value_bytes_per_item`` — packed size of the array over its length.

The guard is three ratios, so it holds on any host: at 1,024 items encode
+ decode of the packed form is at least ``SPEEDUP_FLOOR`` times faster
than the per-item form, and the cost per item — of the four steps, and of
the broker's hop — at 65,536 items is at most ``PER_ITEM_CEILING`` times
that at 1,024 (nothing super-linear hides in the bulk path).

Runs standalone (``PYTHONPATH=src python benchmarks/bench_micro_payload.py``,
the CI ``payload-perf`` job) or under pytest
(``pytest benchmarks/bench_micro_payload.py``).
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time
from pathlib import Path

try:
    from repro.common.serde import check_packed, packed
except ImportError:  # running as a plain script without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.common.serde import check_packed, packed

from repro.broker.core import BrokerConfig, BrokerCore
from repro.common.clock import VirtualClock
from repro.common.ids import NodeId, TaskletId
from repro.core.tasklet import Tasklet
from repro.transport.codec import EnvelopeDecoder, encode_envelope
from repro.transport.message import ExecutionResult, RegisterProvider, SubmitTasklet
from repro.tvm.compiler import compile_source
from repro.tvm.vm import is_tasklet_value

SIZES = (16, 1_024, 65_536)
#: Packed encode + decode at 1,024 items must beat the per-item form by this.
SPEEDUP_FLOOR = 5.0
#: Cost per item at the largest size over cost per item at 1,024.
PER_ITEM_CEILING = 3.0
#: Items handled per timed batch (so every size runs about as long), and
#: batches per measurement; the best batch counts, which keeps a noisy
#: neighbour out of a ratio of microseconds.
ITEMS_PER_BATCH = 200_000
BATCHES = 5


def _best_mean_us(operation, rounds: int) -> float:
    best = float("inf")
    for _ in range(BATCHES):
        start = time.perf_counter_ns()
        for _ in range(rounds):
            operation()
        best = min(best, (time.perf_counter_ns() - start) / rounds)
    return round(best / 1e3, 2)


_ECHO = compile_source("func main(a: array) -> array { return a; }")


def broker_hop_us(array: list, rounds: int, batches: int = BATCHES) -> tuple[float, float]:
    """What the broker spends on one echo tasklet whose argument and result
    are ``array``: microseconds from the bytes of a ``submit_tasklet`` to
    the bytes of its ack and assignment, and from the bytes of the
    ``execution_result`` to the bytes of the ``tasklet_complete`` — frame
    decode, ``BrokerCore.handle``, encode; best batch mean of each.  Every
    tasklet differs in its first item, so none is memoized or in flight."""
    consumer, provider, best = NodeId("c1"), NodeId("p1"), [float("inf")] * 2
    for _ in range(batches):
        broker = BrokerCore(VirtualClock(), config=BrokerConfig(execution_timeout=None))
        broker.handle(
            RegisterProvider("p1", "desktop", rounds + 1, 1e6).envelope(provider, broker.node_id)
        )
        arrays = [[index, *array[1:]] for index in range(rounds)]
        submits = [
            encode_envelope(
                SubmitTasklet(
                    tasklet=Tasklet(TaskletId(f"tl-{index}"), _ECHO, "main", [array]).to_dict()
                ).envelope(consumer, broker.node_id)
            )
            for index, array in enumerate(arrays)
        ]
        spent = [0, 0]
        for frame, array in zip(submits, arrays):
            start = time.perf_counter_ns()
            out = broker.handle(EnvelopeDecoder().feed(frame)[0][0])
            sent = [encode_envelope(envelope) for envelope in out]
            spent[0] += time.perf_counter_ns() - start
            assign = EnvelopeDecoder().feed(sent[1])[0][0].payload  # (the provider's share)
            frame = encode_envelope(
                ExecutionResult(
                    assign["execution_id"], assign["tasklet_id"], "p1", "success",
                    packed(array, fold_nan=True), instructions=2,
                ).envelope(provider, broker.node_id)
            )
            start = time.perf_counter_ns()
            out = broker.handle(EnvelopeDecoder().feed(frame)[0][0])
            sent = [encode_envelope(envelope) for envelope in out]
            spent[1] += time.perf_counter_ns() - start
            assert out[-1].type == "tasklet_complete" and out[-1].payload["ok"]
        best = [min(b, ns / rounds) for b, ns in zip(best, spent)]
    return round(best[0] / 1e3, 2), round(best[1] / 1e3, 2)


def measure_array(array: list) -> dict:
    envelope = ExecutionResult(
        execution_id="ex-1", tasklet_id="tl-1", provider_id="p1",
        status="success", value=array, instructions=2,
    ).envelope(NodeId("p1"), NodeId("broker"))
    frame = encode_envelope(envelope)
    assert EnvelopeDecoder().feed(frame)[0][0].payload["value"] == array
    blob = packed(array)
    rounds = max(3, ITEMS_PER_BATCH // len(array))
    gc.collect()
    gc.disable()
    try:
        row = {
            "items": len(array),
            "form": "packed" if blob[0] == 0x09 else "per_item",
            "encode_us": _best_mean_us(lambda: encode_envelope(envelope), rounds),
            "decode_us": _best_mean_us(lambda: EnvelopeDecoder().feed(frame), rounds),
            "check_us": _best_mean_us(lambda: check_packed(blob), rounds),
            "validate_us": _best_mean_us(lambda: is_tasklet_value(array), rounds),
        }
        row["broker_submit_us"], row["broker_result_us"] = broker_hop_us(
            array, min(rounds, 2_000)
        )
    finally:
        gc.enable()
    row["broker_hop_us"] = round(row["broker_submit_us"] + row["broker_result_us"], 2)
    row["value_bytes_per_item"] = round(len(blob) / len(array), 3)
    return row


def _hop_us(row: dict) -> float:
    return row["encode_us"] + row["decode_us"]


def _per_item_ns(row: dict) -> float:
    steps = ("encode_us", "decode_us", "check_us", "validate_us")
    return 1e3 * sum(row[step] for step in steps) / row["items"]


def measure() -> dict:
    rng = random.Random(19)
    ints = [rng.randrange(-(2**31), 2**31) for _ in range(SIZES[-1])]
    arrays = {str(size): measure_array(ints[:size]) for size in SIZES}
    per_item_form = measure_array(ints[:1_024] + [True])
    return {
        "benchmark": "array_payload",
        "items_per_batch": ITEMS_PER_BATCH,
        "batches": BATCHES,
        "int_arrays": arrays,
        "per_item_form_1024_ints_and_a_bool": per_item_form,
        "packed_hop_speedup_at_1024": round(_hop_us(per_item_form) / _hop_us(arrays["1024"]), 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "per_item_cost_ratio_65536_over_1024": round(
            _per_item_ns(arrays["65536"]) / _per_item_ns(arrays["1024"]), 2
        ),
        "broker_hop_per_item_cost_ratio_65536_over_1024": round(
            (arrays["65536"]["broker_hop_us"] / 65_536) / (arrays["1024"]["broker_hop_us"] / 1_024), 2
        ),
        "per_item_ceiling": PER_ITEM_CEILING,
    }


def write_report(payload: dict) -> Path:
    path = Path(__file__).resolve().parents[1] / "BENCH_payload.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def check(payload: dict) -> None:
    """The perf guard: both ratios, and that each row took the form it names."""
    assert all(row["form"] == "packed" for row in payload["int_arrays"].values())
    assert payload["per_item_form_1024_ints_and_a_bool"]["form"] == "per_item"
    assert payload["packed_hop_speedup_at_1024"] >= SPEEDUP_FLOOR, (
        f"packed encode + decode is {payload['packed_hop_speedup_at_1024']}x the "
        f"per-item form at 1,024 items (floor {SPEEDUP_FLOOR}x)"
    )
    assert payload["per_item_cost_ratio_65536_over_1024"] <= PER_ITEM_CEILING, (
        f"an item costs {payload['per_item_cost_ratio_65536_over_1024']}x as much at "
        f"65,536 items as at 1,024 (ceiling {PER_ITEM_CEILING}x)"
    )
    hop_ratio = payload["broker_hop_per_item_cost_ratio_65536_over_1024"]
    assert hop_ratio <= PER_ITEM_CEILING, (
        f"an item costs the broker {hop_ratio}x as much at 65,536 items as at 1,024 "
        f"(ceiling {PER_ITEM_CEILING}x)"
    )


def test_array_payload_cost():
    """Pytest entry point: measure, record, and enforce the guard."""
    payload = measure()
    write_report(payload)
    check(payload)


def main() -> int:
    payload = measure()
    path = write_report(payload)
    print(
        f"{'items':>7} {'form':>9} {'encode':>10} {'decode':>10} {'check':>10} "
        f"{'validate':>10} {'ns/item':>9} {'B/item':>7} {'broker hop':>12}"
    )
    rows = [*payload["int_arrays"].values(), payload["per_item_form_1024_ints_and_a_bool"]]
    for row in rows:
        print(
            f"{row['items']:>7} {row['form']:>9} {row['encode_us']:>8.1f}us "
            f"{row['decode_us']:>8.1f}us {row['check_us']:>8.1f}us "
            f"{row['validate_us']:>8.1f}us {_per_item_ns(row):>9.1f} "
            f"{row['value_bytes_per_item']:>7.2f} {row['broker_hop_us']:>10.1f}us"
        )
    print(
        f"packed hop {payload['packed_hop_speedup_at_1024']}x the per-item form at 1,024 "
        f"(floor {SPEEDUP_FLOOR}x); per item, 65,536 costs "
        f"{payload['per_item_cost_ratio_65536_over_1024']}x 1,024 and the broker "
        f"{payload['broker_hop_per_item_cost_ratio_65536_over_1024']}x "
        f"(ceiling {PER_ITEM_CEILING}x) -> {path}"
    )
    try:
        check(payload)
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
