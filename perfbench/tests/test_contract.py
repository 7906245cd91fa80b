"""BENCHMARK.json, the metric tables and the client parser agree."""

import json
import subprocess
import sys
from pathlib import Path

from fanout import FrameCounter
from metrics import END_TO_END, PER_LAYER
from repro.pubsub.messages import Message
from repro.pubsub.wire import Hello, MessageBundle, encode_frame
from run import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_reported_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
        == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_client_parser_reads_what_the_wire_encodes():
    client = FrameCounter(2)
    message = Message.create(keys=("k1", "k22"), source=3, created_at=0.0,
                             ttl_s=60.0, size_bytes=140)
    data = (encode_frame(Hello(node_id=0, is_broker=True, degree=1,
                               time=0.0))
            + encode_frame(MessageBundle((message,), (bytes(140),))))
    # Split mid-frame: the parser must buffer the tail.
    client.feed(1, data[:30])
    client.feed(1, data[30:])
    assert client.hellos == 1
    assert client.delivered == [(1, message.id)]
    assert client.decode_errors == 0


def test_run_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "broker-fanout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
