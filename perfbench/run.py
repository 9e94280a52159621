#!/usr/bin/env python3
"""End-to-end benchmark of the icollect collection pipeline.

    python3 perfbench/run.py --workload sim-coded --seed 1 --seconds 10 --trace 0

Builds the libraries, the two live binaries and the in-process driver
from source into .bench_build/ at the repository root (once; later runs
only re-check the build), runs one workload, checks its outputs, and
prints as its last stdout line one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
hooks attached; with --trace 1 they are the per-layer ledger, taken from
a traced twin of every episode plus a replay of each layer's public
functions at the run's own input shapes. Workloads, metric definitions
and baselines are described in README.md next to this file.

Exit status: 0 when every correctness check passed; 1 when a check
failed (the result line is still printed, with "correct": false); 2 when
the benchmark could not run at all (no sources, build failure, bad
arguments), in which case no result line is printed.
"""

import argparse
import fcntl
import json
import os
import queue
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

WORKLOADS = ("sim-coded", "sim-counter", "cluster-fanout", "tcp-pull")

END_TO_END = {
    "setup_s": "s",
    "blocks_per_s": "blocks/s",
    "peak_rss_mb": "MiB",
    "norm_throughput": "ratio",
    "decoded_fraction": "ratio",
    "completion_s": "s",
    "decode_latency_p50_s": "s",
    "decode_latency_p99_s": "s",
    "frames_per_segment": "frames",
    "wire_bytes_per_segment": "bytes",
    "pulls_per_segment": "pulls",
    "pull_rt_per_s": "1/s",
    "server_cpu_us_per_pull": "us",
}

P2P_SCOPES = ("inject", "gossip", "server_pull", "decode", "ttl_expire",
              "depart")
FRAME_TYPES = ("hello", "gossip", "pull_request", "pull_block", "ack",
               "summary")
PER_LAYER = dict(
    [("sim.events", "count"), ("sim.queue_ns_per_event", "ns")]
    + [(f"p2p.{s}.{k}", u) for s in P2P_SCOPES
       for k, u in (("count", "count"), ("ns", "ns"))]
    + [("proto.inject_ns", "ns"), ("proto.recode_ns", "ns"),
       ("common.crc32_ns_per_kib", "ns"), ("gf.add_scaled_ns_per_kib", "ns"),
       ("coding.decode_add_ns", "ns"), ("coding.innovative_ratio", "ratio"),
       ("sched.stale_ratio", "ratio"), ("sched.starved_pulls", "count")]
    + [(f"wire.frames.{t}", "count") for t in FRAME_TYPES]
    + [("wire.encode_ns_per_frame", "ns"), ("wire.decode_ns_per_frame", "ns"),
       ("wire.decode_errors", "count"),
       ("net.loopback.deliveries", "count"), ("net.loopback.bytes", "bytes"),
       ("net.loopback.in_flight_hwm", "bytes"),
       ("net.loopback.drops", "count"),
       ("net.epoll.frames_per_writev", "ratio"),
       ("net.epoll.events_per_wakeup", "ratio"),
       ("net.epoll.pool_hit_rate", "ratio"),
       ("net.epoll.send_refusals", "count"),
       ("node.handshakes", "count"), ("node.acks_per_segment", "frames"),
       ("node.pull_rate_ratio", "ratio"), ("node.pull_rtt_p50_ms", "ms"),
       ("node.pull_rtt_p99_ms", "ms"), ("obs.trace_overhead", "ratio")])


# Layers a workload never reaches; its traced run reports them as 0.
UNREACHED = {
    "sim-coded": ("wire.", "net.", "node."),
    "sim-counter": ("wire.", "net.", "node."),
    "cluster-fanout": ("sim.", "p2p.", "net.epoll."),
    "tcp-pull": ("sim.", "p2p.", "net.loopback."),
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build():
    """Configure once, then let the build tool bring targets up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no icollect sources next to {HERE}")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            _build_step(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release", *gen])
        jobs = str(min(4, os.cpu_count() or 1))
        _build_step(["cmake", "--build", BUILD, "-j", jobs])


def _build_step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def binary(name):
    return os.path.join(BUILD, name)


# --- in-process workloads ------------------------------------------------------

def run_driver(*args):
    try:
        proc = subprocess.run([binary("perfbench_driver"), *args],
                              stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver {' '.join(args)} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"driver {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


# --- tcp-pull: one icollect_node server, one icollect_loadgen ----------------

PULL_RATE = 8000.0     # demanded pulls per second, below CPU saturation
CONNS = 4              # load-generator connections (synthetic peers)
SEGMENT_SIZE = 4
PAYLOAD_BYTES = 64
SEGMENT_SPACE = 2048   # segments the server must collect per session
SESSION_NOMINAL_S = 2.0  # wall per session on the reference box
SETUP_REPEATS = 3


class Server:
    """An icollect_node server process with its stderr read in the
    background, so its "listening" line and SIGUSR1 dumps can be awaited."""

    def __init__(self, seed, extra=()):
        for _ in range(5):  # a free port can be taken between probe and bind
            self.lines = queue.Queue()
            self.port = _free_port()
            self.spawned = time.monotonic()
            self.proc = subprocess.Popen(
                [binary("icollect_node"), "--role", "server",
                 "--listen", f"127.0.0.1:{self.port}",
                 "--backend", "epoll", "--shards", "2",
                 "--pull-rate", str(PULL_RATE),
                 "--segment-size", str(SEGMENT_SIZE),
                 "--payload-bytes", str(PAYLOAD_BYTES),
                 "--duration", "120", "--seed", str(seed), *extra],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            threading.Thread(target=self._read, args=(self.proc, self.lines),
                             daemon=True).start()
            if self.await_line("listening on", 10.0) is not None:
                return
            self.stop()
        raise BenchError("icollect_node never started listening")

    @staticmethod
    def _read(proc, lines):
        for line in proc.stderr:
            lines.put(line)
        lines.put(None)

    def await_line(self, prefix, timeout):
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                return None
            try:
                line = self.lines.get(timeout=left)
            except queue.Empty:
                return None
            if line is None:
                return None
            if line.startswith(prefix):
                return line

    def dump(self):
        """The node's full metrics registry, via its SIGUSR1 stats dump."""
        self.proc.send_signal(signal.SIGUSR1)
        line = self.await_line("SIGUSR1 stats ", 10.0)
        if line is None:
            raise BenchError("icollect_node did not answer SIGUSR1")
        return json.loads(line[len("SIGUSR1 stats "):])

    def stop(self):
        """Terminate and reap; returns the child's rusage (µs resolution)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = status  # reaped here; Popen must not wait again
        return usage


def _free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _loadgen(port, seed, segments):
    cmd = [binary("icollect_loadgen"), "--target", f"127.0.0.1:{port}",
           "--peers", str(CONNS), "--backend", "epoll", "--shards", "1",
           "--segments", str(segments), "--segment-size", str(SEGMENT_SIZE),
           "--payload-bytes", str(PAYLOAD_BYTES), "--ramp", "100000",
           "--measure", "0.001", "--duration", "60", "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=90)
    except subprocess.TimeoutExpired:
        raise BenchError("icollect_loadgen timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"icollect_loadgen printed nothing: {proc.stderr}")
    report = json.loads(lines[-1])
    report["exit_code"] = proc.returncode
    return report


def tcp_setup(seed):
    """Server spawn until every load-generator session is handshaken (a
    generator with no segments leaves right after its handshakes); the
    median of SETUP_REPEATS."""
    setups, handshakes, ok = [], [], True
    for _ in range(SETUP_REPEATS):
        server = Server(seed)
        try:
            started = time.monotonic()
            lg = _loadgen(server.port, seed, 0)
        finally:
            server.stop()
        handshake = lg["duration_s"] - lg["measure_window_s"]
        setups.append(started - server.spawned + handshake)
        handshakes.append(handshake)
        ok = ok and lg["exit_code"] == 0 and lg["handshakes_ok"] == CONNS
    return statistics.median(setups), statistics.median(handshakes), ok


def tcp_session(seed, traced, trace_dir):
    """Collect SEGMENT_SPACE segments from the load generator over real
    sockets at the demanded pull rate; the generator leaves once the
    server has ACKed every segment."""
    setup_s, handshake, setup_ok = tcp_setup(seed)
    extra = ()
    if traced:
        extra = ("--metrics-out", os.path.join(trace_dir, "metrics.jsonl"),
                 "--metrics-interval", "0.1",
                 "--trace-out", os.path.join(trace_dir, "trace.jsonl"))
    server = Server(seed, extra)
    try:
        lg = _loadgen(server.port, seed, SEGMENT_SPACE)
        stats = server.dump()
    finally:
        usage = server.stop()
    cpu = usage.ru_utime + usage.ru_stime
    return {"setup_s": setup_s, "setup_ok": setup_ok,
            "collect_s": lg["duration_s"] - handshake, "lg": lg,
            "stats": stats, "cpu_s": cpu,
            "rss_mib": usage.ru_maxrss / 1024.0}


def run_tcp(seed, seconds, traced):
    trace_dir = os.path.join(BUILD, "tcp-pull")
    os.makedirs(trace_dir, exist_ok=True)
    sessions = max(2, round(seconds / SESSION_NOMINAL_S / (2 if traced else 1)))
    deadline = time.monotonic() + 150.0
    sides = (False, True) if traced else (False,)
    plain, twins = [], []
    for i in range(sessions):
        if time.monotonic() > deadline:
            raise BenchError("tcp-pull sessions overran the run's time limit")
        # As in the driver, traced twins alternate which side runs first.
        for twin in sides[::-1] if i % 2 else sides:
            (twins if twin else plain).append(
                tcp_session(seed * 1000 + i, twin, trace_dir))

    checks = {}

    def check(name, ok):
        checks[name] = checks.get(name, True) and bool(ok)

    attempted = failed = teardown_lost = 0
    for ses in plain + twins:
        lg, stats = ses["lg"], ses["stats"]
        check("setup_sessions_handshaken", ses["setup_ok"])
        check("loadgen_goal_reached", lg["goal_reached"] and lg["exit_code"] == 0)
        check("every_session_handshaken",
              lg["handshakes_ok"] == CONNS and lg["conns_established"] == CONNS)
        check("wire_decode_errors_zero",
              lg["decode_errors"] == 0 and stats["node.wire_decode_errors"] == 0)
        check("send_refusals_zero",
              lg["send_refusals"] == 0 and stats["node.send_refusals"] == 0)
        check("server_decoded_every_segment",
              stats["node.segments_decoded"] == SEGMENT_SPACE)
        # One operation per pull the generator received; it fails when the
        # generator cannot send its reply, when a frame fails to decode, or
        # when a connect fails. The generator leaves as soon as its last
        # ACK arrives: pulls still in flight then never reach it, and
        # replies it queued in that instant are dropped with its transport
        # (README.md, Findings), so those count as teardown, not failure.
        replies = stats["node.pull_replies"] + stats["node.pull_empty_replies"]
        parts = {"generator send refusals": lg["send_refusals"],
                 "server send refusals": stats["node.send_refusals"],
                 "generator decode errors": lg["decode_errors"],
                 "server decode errors": stats["node.wire_decode_errors"],
                 "server failed connects": stats["tcp.connects_failed"],
                 "generator failed connects":
                     lg["transport"]["epoll.connects_failed"]}
        for name, count in parts.items():
            if count:
                log(f"tcp-pull session: {int(count)} {name}")
        attempted += int(lg["pulls_answered"])
        failed += int(sum(parts.values()))
        teardown_lost += int(max(0, lg["pulls_answered"] - replies))

    def med(key):
        return statistics.median(key(s) for s in plain)

    def per_pull_cpu(ses):
        return ses["cpu_s"] * 1e6 / ses["lg"]["pulls_answered"]

    metrics = {}
    if not traced:
        def rt_rate(s):
            return s["lg"]["pulls_answered"] / s["collect_s"]
        metrics = {
            "setup_s": med(lambda s: s["setup_s"]),
            "blocks_per_s": med(
                lambda s: SEGMENT_SPACE * SEGMENT_SIZE / s["collect_s"]),
            "peak_rss_mb": max(s["rss_mib"] for s in plain),
            "norm_throughput": med(rt_rate) / PULL_RATE,
            "decoded_fraction": med(
                lambda s: s["lg"]["segments_acked"] / SEGMENT_SPACE),
            "completion_s": med(lambda s: s["collect_s"]),
            # Means, not medians: each session's quantile is a histogram
            # bucket (~1% wide), and a median would repeat bucket values.
            "decode_latency_p50_s": statistics.fmean(
                s["stats"]["node.decode_latency.p50"] for s in plain),
            "decode_latency_p99_s": statistics.fmean(
                s["stats"]["node.decode_latency.p99"] for s in plain),
            "frames_per_segment": med(
                lambda s: (s["lg"]["frames_sent"] + s["lg"]["frames_received"])
                / SEGMENT_SPACE),
            "wire_bytes_per_segment": med(
                lambda s: (s["lg"]["transport"]["epoll.bytes_in"]
                           + s["lg"]["transport"]["epoll.bytes_out"])
                / SEGMENT_SPACE),
            "pulls_per_segment": med(
                lambda s: s["lg"]["pulls_answered"] / SEGMENT_SPACE),
            "pull_rt_per_s": med(rt_rate),
            "server_cpu_us_per_pull": med(per_pull_cpu),
        }
        return _result(attempted, failed, checks, metrics,
                       {"teardown_lost_replies": teardown_lost})

    # Per-layer ledger from the traced twins' server registries.
    def tmed(key):
        return statistics.median(key(s) for s in twins)

    def st(name):
        return lambda s: s["stats"][name]

    frames = {
        "hello": tmed(lambda s: 2 * s["stats"]["node.handshakes_ok"]),
        "gossip": tmed(st("node.forwarded_out")),
        "pull_request": tmed(st("node.pulls_sent")),
        "pull_block": tmed(lambda s: s["stats"]["node.pull_replies"]
                           + s["stats"]["node.pull_empty_replies"]),
        "ack": tmed(lambda s: s["stats"]["node.acks_sent"] * CONNS),
        # The node registers no summary counter: a uniform server asks for
        # none, so BUFFER_SUMMARY frames can only be counted as zero here.
        "summary": 0,
    }
    metrics.update({f"wire.frames.{k}": v for k, v in frames.items()})
    replay = run_driver("--workload", "replay", "--s", str(SEGMENT_SIZE),
                        "--payload", str(PAYLOAD_BYTES), "--frames",
                        ",".join(str(round(frames[t])) for t in FRAME_TYPES))
    metrics.update(replay["metrics"])
    for name, ok in replay["checks"].items():
        check(name, ok)
    pulls = tmed(st("node.pulls_sent"))
    metrics.update({
        "wire.decode_errors": tmed(lambda s: s["stats"]["node.wire_decode_errors"]
                                   + s["lg"]["decode_errors"]),
        "net.epoll.frames_per_writev": tmed(
            lambda s: s["stats"]["tcp.sends"] / max(1, s["stats"]["tcp.writev_calls"])),
        "net.epoll.events_per_wakeup": tmed(st("tcp.events_per_wakeup")),
        "net.epoll.pool_hit_rate": tmed(st("tcp.pool_hit_rate")),
        "net.epoll.send_refusals": tmed(
            lambda s: s["stats"]["node.send_refusals"]
            + s["stats"]["tcp.queue_drops"] + s["lg"]["send_refusals"]),
        "node.handshakes": tmed(lambda s: s["stats"]["node.handshakes_ok"]
                                + s["lg"]["handshakes_ok"]),
        "node.acks_per_segment": frames["ack"] / SEGMENT_SPACE,
        "node.pull_rate_ratio": tmed(
            lambda s: s["stats"]["node.pulls_sent"] / (PULL_RATE * s["collect_s"])),
        "node.pull_rtt_p50_ms": tmed(st("node.pull_rtt.p50")) * 1e3,
        "node.pull_rtt_p99_ms": tmed(st("node.pull_rtt.p99")) * 1e3,
        "coding.innovative_ratio": tmed(st("node.innovative_pulls")) / pulls,
        "sched.stale_ratio": tmed(st("node.stale_pulls")) / pulls,
        "sched.starved_pulls": tmed(st("node.pulls_starved")),
        # The run is rate-limited, not CPU-bound, so tracing shows as
        # server CPU per pull rather than as wall time.
        "obs.trace_overhead": tmed(per_pull_cpu) / med(per_pull_cpu) - 1.0,
    })
    notes = {**replay["notes"], "teardown_lost_replies": teardown_lost}
    return _result(attempted, failed, checks, metrics, notes)


def _result(attempted, failed, checks, metrics, notes):
    return {"attempted": attempted, "failed": failed, "checks": checks,
            "metrics": metrics, "notes": notes}


# --- main ----------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        if args.workload == "tcp-pull":
            raw = run_tcp(args.seed, args.seconds, args.trace == 1)
        else:
            raw = run_driver("--workload", args.workload,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"cannot run {args.workload}: {e}")
        return 2

    wanted = PER_LAYER if args.trace == 1 else END_TO_END
    values = raw["metrics"]
    if args.trace == 1:
        for name in wanted:
            if name.startswith(UNREACHED[args.workload]):
                values.setdefault(name, 0.0)
    missing = [name for name in wanted if name not in values]
    if missing:
        log(f"{args.workload} produced no value for {', '.join(missing)}")
        return 2
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted.items()}
    failed_checks = sorted(k for k, ok in raw["checks"].items() if not ok)
    correct = not failed_checks and raw["failed"] == 0
    for name in failed_checks:
        log(f"check failed: {name}")
    if raw["failed"]:
        log(f"{raw['failed']} of {raw['attempted']} operations failed")
    for name, value in sorted(raw["notes"].items()):
        print(f"note {name}: {value}")
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
