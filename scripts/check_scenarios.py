#!/usr/bin/env python3
"""End-to-end smoke for the hostile-scenario pack (docs/SCENARIOS.md).

Runs one instance of each scenario class — byzantine, faults, trace —
through BOTH drivers (the event simulator `icollect_sim` and the live
loopback cluster `icollect_cluster`) with a fixed seed, parses the
machine-readable scenario summary each tool emits only under
--scenario, and validates its schema and the class-specific invariants:

  byzantine  corruption happened, the integrity layer quarantined it,
             and the honest population still completed / decoded;
  faults     the partition blackholed traffic (fault drops > 0) and the
             run recovered without a single send-queue refusal;
  trace      the shaped arrival profile drove a normal, complete run.

Also re-runs the cluster byzantine scenario to assert byte-identical
output under the same seed, checks that the bench generator
`icollect_scenarios` rejects malformed numeric flags with exit 2 (see
table_cli.py), and (with --validate) schema-checks the committed
BENCH_scenarios.json table.

Usage:
  check_scenarios.py <icollect_sim> <icollect_cluster> <icollect_scenarios>
  check_scenarios.py --validate <BENCH_scenarios.json>
"""

import json
import subprocess
import sys

from table_cli import check_table_cli

SIM_BASE = [
    "peers=24", "lambda=8", "s=4", "mu=8", "gamma=1", "buffer=32",
    "servers=2", "server_rate=24", "payload=16", "seed=7", "warm=1",
    "measure=6", "ode=0", "direct=0", "--gf-kernel=scalar",
]

CLUSTER_BASE = [
    "--peers", "8", "--servers", "2", "--segment-size", "3",
    "--buffer-cap", "24", "--payload-bytes", "16",
    "--segments-per-peer", "2", "--seed", "9", "--max-time", "300",
]

SIM_SCENARIO_KEYS = {
    "spec", "dishonest_peers", "blocks_corrupted", "blocks_quarantined",
    "polluted_pulls", "gossip_blocked_isolated", "pulls_blocked_isolated",
    "segments_injected", "segments_decoded", "normalized_throughput",
}

CLUSTER_SCENARIO_KEYS = {
    "spec", "dishonest_peers", "honest_complete",
    "honest_segments_injected", "blocks_corrupted", "blocks_quarantined",
    "polluted_pulls", "fault_drops", "queue_refusals",
}


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd: list[str], expect_exit: int = 0) -> str:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)
    if proc.returncode != expect_exit:
        sys.stderr.buffer.write(proc.stdout + proc.stderr)
        fail(f"exit {proc.returncode} (expected {expect_exit}): "
             f"{' '.join(cmd)}")
    return proc.stdout.decode()


def check(cond: bool, what: str) -> None:
    if not cond:
        fail(what)
    print(f"  ok: {what}")


def sim_scenario(out: str) -> dict:
    """The JSON object printed after the '-- scenario --' banner."""
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line.strip() == "-- scenario --":
            return json.loads(lines[i + 1])
    fail("sim output has no '-- scenario --' section")
    raise AssertionError  # unreachable


def cluster_json(out: str) -> dict:
    """The cluster's final JSON report (last non-empty stdout line)."""
    for line in reversed(out.splitlines()):
        if line.strip().startswith("{"):
            return json.loads(line)
    fail("cluster output has no JSON report line")
    raise AssertionError  # unreachable


def check_sim(sim: str) -> None:
    print("== simulator ==")

    print("byzantine:")
    s = sim_scenario(run(
        [sim, *SIM_BASE, "--scenario=byzantine:fraction=0.25,checks=2"]))
    check(set(s) == SIM_SCENARIO_KEYS, "scenario summary schema")
    check(s["spec"]["scenario"] == "byzantine", "spec names the class")
    check(s["dishonest_peers"] == 6, "floor(24 * 0.25) dishonest peers")
    check(s["blocks_corrupted"] > 0, "corruption happened")
    check(s["blocks_quarantined"] + s["polluted_pulls"] > 0,
          "integrity layer quarantined polluted blocks")
    check(s["segments_decoded"] > 0, "honest data still decoded")

    print("faults:")
    s = sim_scenario(run(
        [sim, *SIM_BASE, "--scenario=faults:fraction=0.25,at=2,heal=4"]))
    check(set(s) == SIM_SCENARIO_KEYS, "scenario summary schema")
    check(s["spec"]["scenario"] == "faults", "spec names the class")
    check(s["gossip_blocked_isolated"] > 0,
          "partition blackholed gossip")
    check(s["segments_decoded"] > 0, "collection recovered after heal")

    print("trace:")
    s = sim_scenario(run(
        [sim, *SIM_BASE,
         "--scenario=trace:amplitude=0.8,period=10,burst=3,"
         "burst-at=2,burst-len=3"]))
    check(set(s) == SIM_SCENARIO_KEYS, "scenario summary schema")
    check(s["spec"]["scenario"] == "trace", "spec names the class")
    check(s["dishonest_peers"] == 0, "trace replay is all-honest")
    check(s["segments_injected"] > 0, "shaped profile injected data")
    check(s["segments_decoded"] > 0, "collection proceeded")


def check_cluster(cluster: str) -> None:
    print("== cluster ==")

    print("byzantine:")
    byz_cmd = [cluster, *CLUSTER_BASE,
               "--scenario", "byzantine:fraction=0.25,checks=2"]
    out = run(byz_cmd)
    r = cluster_json(out)
    s = r["scenario"]
    check(set(s) == CLUSTER_SCENARIO_KEYS, "scenario summary schema")
    check(s["spec"]["scenario"] == "byzantine", "spec names the class")
    check(s["dishonest_peers"] == 2, "floor(8 * 0.25) dishonest peers")
    check(s["honest_complete"] is True, "honest majority completed")
    check(s["blocks_corrupted"] > 0, "corruption happened")
    check(s["blocks_quarantined"] + s["polluted_pulls"] > 0,
          "integrity layer quarantined polluted blocks")

    print("byzantine determinism:")
    check(run(byz_cmd) == out, "same seed, byte-identical rerun")

    print("faults:")
    r = cluster_json(run(
        [cluster, *CLUSTER_BASE,
         "--scenario", "faults:fraction=0.25,at=1,heal=3"]))
    s = r["scenario"]
    check(set(s) == CLUSTER_SCENARIO_KEYS, "scenario summary schema")
    check(s["spec"]["scenario"] == "faults", "spec names the class")
    check(r["complete"] is True, "partition healed and run completed")
    check(s["fault_drops"] > 0, "partition blackholed traffic")
    check(s["queue_refusals"] == 0, "send-queue caps never violated")

    print("trace:")
    r = cluster_json(run(
        [cluster, *CLUSTER_BASE,
         "--scenario", "trace:amplitude=0.5,period=20,burst=2,"
         "burst-at=1,burst-len=2"]))
    s = r["scenario"]
    check(set(s) == CLUSTER_SCENARIO_KEYS, "scenario summary schema")
    check(s["spec"]["scenario"] == "trace", "spec names the class")
    check(r["complete"] is True, "shaped run completed")
    check(r["segments_injected"] == 16, "full injection budget spent")

    print("bad spec rejected:")
    run([cluster, *CLUSTER_BASE, "--scenario", "byzantine:fraction=2"],
        expect_exit=2)
    print("  ok: out-of-range fraction exits 2")


def validate_bench(path: str) -> None:
    """Schema gate for the committed BENCH_scenarios.json."""
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    check(d.get("schema") == "icollect-scenario-bench-v1",
          "schema tag present")
    check(d["replicas"] >= 2, "at least two replicas per point")

    def check_metrics(metrics: dict, names: set) -> None:
        check(set(metrics) >= names, f"metric names cover {sorted(names)}")
        for name, m in metrics.items():
            check(set(m) == {"mean", "stddev", "ci95", "min", "max"},
                  f"{name} has mean/stddev/ci95/min/max")

    tab = d["pollution_vs_honest_fraction"]
    check(len(tab["points"]) >= 4, "pollution table has >= 4 points")
    for p in tab["points"]:
        check(0.0 <= p["dishonest_fraction"] <= 1.0,
              "dishonest fraction in range")
        check(p["arm"] in ("defended", "undefended"), "arm is labelled")
        check_metrics(p["metrics"],
                      {"blocks_corrupted", "blocks_quarantined",
                       "polluted_pull_fraction", "payload_crc_failures",
                       "normalized_throughput"})
        if p["arm"] == "defended" and p["dishonest_fraction"] > 0:
            check(p["metrics"]["payload_crc_failures"]["max"] == 0,
                  "defended arm: no pollution reached the decoders")

    tab = d["collection_time_vs_fault_severity"]
    check(len(tab["points"]) >= 3, "fault table has >= 3 points")
    for p in tab["points"]:
        check_metrics(p["metrics"],
                      {"complete", "completion_time", "fault_drops",
                       "queue_refusals"})
        check(p["metrics"]["queue_refusals"]["max"] == 0,
              "send-queue caps held at every severity")
        check(p["metrics"]["complete"]["min"] == 1,
              "every replica completed")


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) == 2 and argv[0] == "--validate":
        validate_bench(argv[1])
        print("bench table OK")
        return 0
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    sim, cluster, generator = argv
    check_sim(sim)
    check_cluster(cluster)
    check_table_cli(generator)
    print("scenario smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
