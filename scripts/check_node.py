#!/usr/bin/env python3
"""End-to-end validation of the live node runtime.

Three layers of checks:

  1. Loopback cluster (icollect_cluster): a 8-peer/2-server collection
     must complete with every injected segment decoded, twice with the
     same seed producing an identical summary (determinism), and the
     metrics JSONL must parse with sane, nondecreasing time.
  2. Real TCP (icollect_node): one server + two peer processes on
     127.0.0.1 must finish a collection — every peer exits 0 once all
     its segments are ACKed, the server exits 0 once it decoded them.
  3. CLI contract: malformed invocations (unknown flag, missing role,
     no endpoints, numeric flags with trailing text or a sign) must exit
     2 with a diagnostic, not start.

Usage: check_node.py /path/to/icollect_cluster /path/to/icollect_node
Exits nonzero with a message on the first failed check.
"""

import json
import os
import socket
import subprocess
import sys
import tempfile


def fail(msg):
    print(f"check_node: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(cond, msg):
    if not cond:
        fail(msg)


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def parse_jsonl(path, what):
    check(os.path.exists(path), f"missing {what} at {path}")
    rows = []
    with open(path) as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as e:
                fail(f"{what} line {i + 1} is not JSON: {e}")
    check(rows, f"{what} is empty")
    return rows


def check_cluster(cluster_bin, tmp):
    metrics = os.path.join(tmp, "cluster_metrics.jsonl")
    cmd = [
        cluster_bin,
        "--peers", "8", "--servers", "2", "--segments-per-peer", "3",
        "--lambda", "6", "--mu", "4", "--gamma", "1",
        "--server-rate", "24", "--max-time", "300", "--seed", "5",
        "--metrics-out", metrics, "--metrics-interval", "0.5",
    ]

    def run():
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=240)
        check(proc.returncode == 0,
              f"cluster run failed (exit {proc.returncode}): {proc.stderr}")
        try:
            return json.loads(proc.stdout)
        except json.JSONDecodeError as e:
            fail(f"cluster summary is not JSON: {e}\n{proc.stdout}")

    summary = run()
    check(summary["complete"] is True, "cluster did not complete")
    check(summary["segments_injected"] == 8 * 3,
          f"expected 24 injected, got {summary['segments_injected']}")
    check(summary["segments_decoded"] == summary["segments_injected"],
          "decoded != injected")
    check(summary["innovative_pulls"] >= summary["segments_injected"],
          "implausibly few innovative pulls")

    rows = parse_jsonl(metrics, "cluster metrics JSONL")
    times = [r["t"] for r in rows]
    check(times == sorted(times), "metrics time column not nondecreasing")
    check("cluster.segments_decoded" in rows[-1],
          "metrics rows missing cluster.* gauges")
    check(rows[-1]["cluster.segments_decoded"] == 24,
          "final metrics row disagrees with the summary")

    # Same seed, same run — the loopback cluster is deterministic.
    check(run() == summary, "identical seeds produced different summaries")
    print("check_node: loopback cluster OK "
          f"(t={summary['t']:.2f}, decoded={summary['segments_decoded']})")


def check_tcp(node_bin, tmp):
    server_port = free_port()
    peer_port = free_port()
    server_metrics = os.path.join(tmp, "server_metrics.jsonl")
    common = ["--segment-size", "4", "--payload-bytes", "32",
              "--gamma", "0.2", "--seed", "9", "--duration", "60"]
    server = subprocess.Popen(
        [node_bin, "--role", "server",
         "--listen", f"127.0.0.1:{server_port}",
         "--expect-segments", "4", "--pull-rate", "50",
         "--metrics-out", server_metrics] + common,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    peer1 = subprocess.Popen(
        [node_bin, "--role", "peer",
         "--listen", f"127.0.0.1:{peer_port}",
         "--connect", f"127.0.0.1:{server_port}",
         "--segments", "2", "--lambda", "8", "--mu", "6"] + common,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    peer2 = subprocess.Popen(
        [node_bin, "--role", "peer",
         "--connect", f"127.0.0.1:{server_port}",
         "--connect", f"127.0.0.1:{peer_port}",
         "--segments", "2", "--lambda", "8", "--mu", "6"] + common,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)

    procs = {"server": server, "peer1": peer1, "peer2": peer2}
    for name, proc in procs.items():
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            for p in procs.values():
                p.kill()
            fail(f"{name} did not finish within the wall-clock budget")
        check(proc.returncode == 0,
              f"{name} exited {proc.returncode}: {err}")

    rows = parse_jsonl(server_metrics, "server metrics JSONL")
    check(any(r.get("node.segments_decoded", 0) >= 4 for r in rows),
          "server metrics never reached 4 decoded segments")
    print("check_node: real-TCP collection OK (4 segments over "
          f"port {server_port})")


def check_cli_errors(cluster_bin, node_bin):
    cases = [
        ([cluster_bin, "--bogus-flag"], "unknown cluster flag"),
        ([cluster_bin, "--peers"], "missing cluster flag value"),
        ([cluster_bin, "--segments-per-peer", "0"], "zero budget"),
        ([node_bin], "missing role"),
        ([node_bin, "--role", "superserver"], "bad role"),
        ([node_bin, "--role", "peer"], "no endpoints"),
        ([node_bin, "--role", "peer", "--listen", "nonsense"],
         "unparseable listen address"),
        ([node_bin, "--role", "server", "--listen", "127.0.0.1:1",
          "--backend", "poll"], "removed poll backend"),
        ([cluster_bin, "--peers", "4x", "--servers", "1",
          "--segments-per-peer", "1", "--seed", "-3", "--max-time", "20"],
         "cluster count with trailing text"),
        ([cluster_bin, "--peers", "4", "--seed", "-3"],
         "cluster negative seed"),
        ([cluster_bin, "--drop", "0.1x"], "cluster real with trailing text"),
        ([node_bin, "--role", "server", "--listen", "127.0.0.1:1",
          "--seed", "-3"], "node negative seed"),
        ([node_bin, "--role", "server", "--listen", "127.0.0.1:1",
          "--pull-rate", "50/s"], "node real with trailing text"),
        ([node_bin, "--role", "server", "--listen", "127.0.0.1:1x"],
         "node port with trailing text"),
        ([node_bin, "--role", "server", "--listen", "127.0.0.1:1",
          "--shards", "0"], "node zero shards"),
    ]
    for cmd, what in cases:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60)
        check(proc.returncode == 2,
              f"{what}: expected exit 2, got {proc.returncode}")
        check(proc.stderr.strip() != "",
              f"{what}: expected a diagnostic on stderr")
    print(f"check_node: CLI rejects {len(cases)} malformed invocations")


def main():
    if len(sys.argv) != 3:
        fail("usage: check_node.py <icollect_cluster> <icollect_node>")
    cluster_bin, node_bin = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory(prefix="icollect_node_check_") as tmp:
        check_cluster(cluster_bin, tmp)
        check_tcp(node_bin, tmp)
        check_cli_errors(cluster_bin, node_bin)
    print("check_node: all checks passed")


if __name__ == "__main__":
    main()
