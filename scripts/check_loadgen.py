#!/usr/bin/env python3
"""End-to-end validation of the epoll reactor under loadgen fan-in.

One icollect_node server faces ~200 synthetic peers multiplexed by
icollect_loadgen over a single reactor. Checks:

  1. The run reaches its goal: every synthetic segment ACKed back to
     the loadgen, all handshakes completed, loadgen exits 0.
  2. The loadgen's JSON report conforms to the icollect-node-bench/1
     schema and its counters are self-consistent (nonzero frames both
     ways, nonzero pull round-trips, no decode errors, no refusals).
  3. Transport counters prove the reactor actually did reactor things:
     epoll wakeups, batched writev bytes, pool reuse.
  4. CLI contract: malformed loadgen invocations, including numeric
     flags with trailing text or a sign, exit 2 with a diagnostic, not a
     hang, a crash or a run with a truncated value.

Usage: check_loadgen.py /path/to/icollect_node /path/to/icollect_loadgen
Exits nonzero with a message on the first failed check.
"""

import json
import os
import socket
import subprocess
import sys

SCHEMA = "icollect-node-bench/1"

REQUIRED_FIELDS = [
    "schema", "backend", "conns_target", "conns_established",
    "handshakes_ok", "frames_sent", "frames_received", "pulls_answered",
    "acks_received", "send_refusals", "decode_errors", "segments_total",
    "segments_acked", "goal_reached", "measure_window_s", "frames_per_s",
    "pull_round_trips_per_s", "duration_s", "transport",
]


def fail(msg):
    print(f"check_loadgen: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(cond, msg):
    if not cond:
        fail(msg)


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def run_loadgen(node_bin, loadgen_bin):
    port = free_port()
    peers = 200
    server = subprocess.Popen(
        [node_bin, "--role", "server",
         "--listen", f"127.0.0.1:{port}",
         "--pull-rate", "2000", "--segment-size", "4",
         "--duration", "120", "--seed", "3"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        proc = subprocess.run(
            [loadgen_bin, "--target", f"127.0.0.1:{port}",
             "--peers", str(peers), "--segments", "32",
             "--segment-size", "4", "--ramp", "1000",
             "--duration", "60", "--measure", "3", "--seed", "2"],
            capture_output=True, text=True, timeout=180)
    finally:
        server.kill()
        server.wait()
    check(proc.returncode == 0,
          f"loadgen exited {proc.returncode}: {proc.stderr}")
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"loadgen report is not JSON: {e}\n{proc.stdout}")
    return report, peers


def check_report(report, peers):
    for field in REQUIRED_FIELDS:
        check(field in report, f"report missing field {field!r}")
    check(report["schema"] == SCHEMA,
          f"schema {report['schema']!r}, expected {SCHEMA!r}")
    check(report["goal_reached"] is True, "collection goal not reached")
    check(report["conns_established"] == peers,
          f"established {report['conns_established']}/{peers}")
    check(report["handshakes_ok"] == peers,
          f"handshakes {report['handshakes_ok']}/{peers}")
    check(report["segments_acked"] == report["segments_total"],
          "not every segment ACKed")
    check(report["frames_sent"] > 0 and report["frames_received"] > 0,
          "no frame traffic recorded")
    check(report["pulls_answered"] > 0, "server never pulled")
    check(report["decode_errors"] == 0, "frame decode errors on the wire")
    check(report["send_refusals"] == 0, "loadgen hit its own send cap")
    check(report["pull_round_trips_per_s"] > 0,
          "measurement window recorded no pull round-trips")
    print(f"check_loadgen: goal reached with {peers} peers over "
          f"{report['backend']} "
          f"(rt/s={report['pull_round_trips_per_s']:.0f}, "
          f"frames/s={report['frames_per_s']:.0f})")


def check_transport_counters(report):
    check(report["backend"] == "epoll",
          f"backend {report['backend']!r}, expected 'epoll'")
    t = report["transport"]

    def counter(name):
        key = f"epoll.{name}"
        check(key in t, f"transport counters missing {key}")
        return t[key]

    check(counter("connects_ok") == report["conns_established"],
          "transport connects_ok disagrees with established count")
    check(counter("bytes_in") > 0 and counter("bytes_out") > 0,
          "transport byte counters are zero")
    check(counter("wakeups") > 0, "no epoll wakeups recorded")
    check(counter("writev_calls") > 0, "no vectored writes recorded")
    check(counter("batched_bytes") > 0, "no batched bytes recorded")
    check(counter("pool_hits") > 0, "buffer pool never recycled")
    live = report["conns_established"] - report["conns_down"]
    check(counter("conns") == live,
          f"transport reports {counter('conns')} open connections, "
          f"expected {live} (established - down)")
    print("check_loadgen: epoll transport counters OK")


def check_cli_errors(loadgen_bin):
    cases = [
        ([loadgen_bin], "missing --target"),
        ([loadgen_bin, "--target", "nonsense"], "unparseable target"),
        ([loadgen_bin, "--target", "127.0.0.1:1", "--peers", "0"],
         "zero peers"),
        ([loadgen_bin, "--target", "127.0.0.1:1", "--bogus"],
         "unknown flag"),
        ([loadgen_bin, "--target", "127.0.0.1:1", "--backend", "carrier"],
         "unknown backend"),
        ([loadgen_bin, "--target", "127.0.0.1:1", "--backend", "poll"],
         "removed poll backend"),
        ([loadgen_bin, "--target", "127.0.0.1:1", "--peers", "4x"],
         "trailing text on a count"),
        ([loadgen_bin, "--target", "127.0.0.1:1", "--seed", "-3"],
         "negative seed"),
        ([loadgen_bin, "--target", "127.0.0.1:1", "--ramp", "fast"],
         "non-numeric ramp"),
        ([loadgen_bin, "--target", "127.0.0.1:1x"], "trailing text on a port"),
        ([loadgen_bin, "--target", "127.0.0.1:1", "--shards", "0"],
         "zero shards"),
    ]
    for cmd, what in cases:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60)
        check(proc.returncode == 2, f"{what}: expected exit 2, "
              f"got {proc.returncode}")
        check(proc.stderr.strip() != "",
              f"{what}: expected a diagnostic on stderr")
    print(f"check_loadgen: CLI rejects {len(cases)} malformed invocations")


def main():
    if len(sys.argv) != 3:
        fail("usage: check_loadgen.py <icollect_node> <icollect_loadgen>")
    node_bin, loadgen_bin = sys.argv[1], sys.argv[2]
    check(os.path.exists(node_bin), f"no such binary: {node_bin}")
    check(os.path.exists(loadgen_bin), f"no such binary: {loadgen_bin}")
    report, peers = run_loadgen(node_bin, loadgen_bin)
    check_report(report, peers)
    check_transport_counters(report)
    check_cli_errors(loadgen_bin)
    print("check_loadgen: all checks passed")


if __name__ == "__main__":
    main()
