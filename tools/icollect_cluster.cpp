/// \file icollect_cluster.cpp
/// Multi-node collection harness: N live peers + M live servers in one
/// process, wired over the deterministic loopback transport. Every node
/// runs the real wire protocol (HELLO handshake, framed gossip, pulls,
/// decode ACKs) — only the byte transport is virtual, so a 16-peer
/// cluster finishes in milliseconds and reproduces bit-for-bit per seed.
///
///   icollect_cluster --peers 16 --servers 2 --segments-per-peer 4
///   icollect_cluster --peers 8 --drop 0.05 --chunk-bytes 7 --progress
///
/// Exit status: 0 when every injected segment was decoded by every
/// server within --max-time, 1 otherwise, 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "node/cluster.h"
#include "proto/pull_policy.h"
#include "workload/trace_replay.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/snapshotter.h"
#include "obs/trace_pipeline.h"
#include "stats/latency_histogram.h"

#include "cli_args.h"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --peers N             live peers (default 16)\n"
      "  --servers M           live servers (default 2)\n"
      "  --segment-size s      blocks per segment (default 4)\n"
      "  --buffer-cap B        peer buffer capacity (default 32)\n"
      "  --payload-bytes n     payload bytes per block (default 64)\n"
      "  --lambda x            per-peer block injection rate (default 8)\n"
      "  --mu x                per-peer gossip rate (default 4)\n"
      "  --gamma x             per-block TTL rate (default 1)\n"
      "  --server-rate x       pulls/sec per server (default 16)\n"
      "  --capacity c          set server-rate from normalized c\n"
      "  --segments-per-peer K injection budget per peer (default 4)\n"
      "  --max-time T          virtual-time cap (default 300)\n"
      "  --latency L           loopback one-way latency (default 0.001)\n"
      "  --jitter J            extra uniform latency in [0,J) (default 0)\n"
      "  --drop p              per-send loss probability (default 0)\n"
      "  --chunk-bytes n       split deliveries into n-byte reads "
      "(default 0)\n"
      "  --drop-on-ack         peers drop blocks of decoded segments\n"
      "  --no-retain           disable source retention of own segments\n"
      "                        (on by default: a peer re-seeds its own\n"
      "                        unACKed segments after TTL losses)\n"
      "  --pull-policy P       server pull scheduling: uniform|rarest|\n"
      "                        deficit (default uniform)\n"
      "  --seed S              root seed (default 1)\n"
      "  --metrics-out FILE    snapshot JSONL of cluster, per-node, and\n"
      "                        transport metrics\n"
      "  --metrics-interval T  snapshot spacing, virtual time "
      "(default 0.5)\n"
      "  --trace-out FILE      protocol event trace JSONL "
      "(inject/gossip/\n"
      "                        ttl/pull/decode, virtual-time stamped)\n"
      "  --progress            progress lines on stderr\n"
      "  --scenario SPEC       hostile scenario, class:key=value,...\n"
      "                        (byzantine|faults|trace; see\n"
      "                        docs/SCENARIOS.md). Byzantine runs key\n"
      "                        completion on the honest population.\n",
      argv0);
}

/// Quantile summary of a latency histogram as a nested JSON object.
std::string latency_json(const icollect::stats::LatencyHistogram& h) {
  icollect::obs::JsonObject o;
  o.field("count", h.count())
      .field("p50", h.quantile_seconds(0.50))
      .field("p90", h.quantile_seconds(0.90))
      .field("p99", h.quantile_seconds(0.99))
      .field("max", h.max_seconds());
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icollect;

  node::ClusterConfig cfg;
  cfg.payload_bytes = 64;
  cfg.segments_per_peer = 4;
  cfg.retain_own_until_acked = true;  // harness wants 100% recovery
  double max_time = 300.0;
  double capacity = -1.0;
  std::string metrics_out;
  std::string trace_out;
  std::string scenario_arg;
  double metrics_interval = 0.5;
  bool progress = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto count = [&](const char* flag,
                           std::uint64_t max = UINT64_MAX) {
      return tools::parse_count(argv[0], flag, value(flag), max);
    };
    const auto real = [&](const char* flag) {
      return tools::parse_real(argv[0], flag, value(flag));
    };
    if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--peers") {
      cfg.num_peers = count("--peers");
    } else if (arg == "--servers") {
      cfg.num_servers = count("--servers");
    } else if (arg == "--segment-size") {
      cfg.segment_size = count("--segment-size");
    } else if (arg == "--buffer-cap") {
      cfg.buffer_cap = count("--buffer-cap");
    } else if (arg == "--payload-bytes") {
      cfg.payload_bytes = count("--payload-bytes");
    } else if (arg == "--lambda") {
      cfg.lambda = real("--lambda");
    } else if (arg == "--mu") {
      cfg.mu = real("--mu");
    } else if (arg == "--gamma") {
      cfg.gamma = real("--gamma");
    } else if (arg == "--server-rate") {
      cfg.server_rate = real("--server-rate");
    } else if (arg == "--capacity") {
      capacity = real("--capacity");
    } else if (arg == "--segments-per-peer") {
      cfg.segments_per_peer = count("--segments-per-peer");
    } else if (arg == "--max-time") {
      max_time = real("--max-time");
    } else if (arg == "--latency") {
      cfg.net.latency = real("--latency");
    } else if (arg == "--jitter") {
      cfg.net.latency_jitter = real("--jitter");
    } else if (arg == "--drop") {
      cfg.net.drop_probability = real("--drop");
    } else if (arg == "--chunk-bytes") {
      cfg.net.chunk_bytes = count("--chunk-bytes");
    } else if (arg == "--drop-on-ack") {
      cfg.drop_on_ack = true;
    } else if (arg == "--no-retain") {
      cfg.retain_own_until_acked = false;
    } else if (arg == "--pull-policy") {
      const char* name = value("--pull-policy");
      const auto kind = proto::parse_pull_policy_kind(name);
      if (!kind) {
        std::fprintf(stderr,
                     "%s: --pull-policy %s: unknown policy "
                     "(choices: uniform|rarest|deficit)\n",
                     argv[0], name);
        return 2;
      }
      cfg.pull_policy = *kind;
    } else if (arg == "--seed") {
      cfg.seed = count("--seed");
      cfg.net.seed = cfg.seed;
    } else if (arg == "--metrics-out") {
      metrics_out = value("--metrics-out");
    } else if (arg == "--metrics-interval") {
      metrics_interval = real("--metrics-interval");
    } else if (arg == "--trace-out") {
      trace_out = value("--trace-out");
    } else if (arg == "--scenario") {
      scenario_arg = value("--scenario");
    } else if (arg == "--progress") {
      progress = true;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                   std::string{arg}.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (cfg.segments_per_peer == 0) {
    std::fprintf(stderr, "%s: --segments-per-peer must be >= 1\n", argv[0]);
    return 2;
  }
  if (metrics_interval <= 0.0) {
    std::fprintf(stderr, "%s: --metrics-interval must be > 0\n", argv[0]);
    return 2;
  }
  if (capacity >= 0.0) {
    cfg.server_rate = capacity * static_cast<double>(cfg.num_peers) /
                      static_cast<double>(cfg.num_servers);
  }

  // A scenario adjusts the config before the cluster is built (nodes
  // start inside the constructor); fault windows attach right after.
  std::unique_ptr<workload::ScenarioSpec> scenario;
  std::unique_ptr<workload::ArrivalProfile> arrival;
  if (!scenario_arg.empty()) {
    try {
      scenario = std::make_unique<workload::ScenarioSpec>(
          workload::ScenarioSpec::parse(scenario_arg));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
    using Kind = workload::ScenarioSpec::Kind;
    switch (scenario->kind) {
      case Kind::kByzantine:
        cfg.dishonest_fraction = scenario->dishonest_fraction;
        cfg.corruption = scenario->strategy;
        cfg.integrity_checks = scenario->integrity_checks;
        if (cfg.payload_bytes == 0) cfg.payload_bytes = 32;
        break;
      case Kind::kFaults:
        break;  // attached to the loopback hub below
      case Kind::kTrace:
        // The cluster has no churn engine; only the load shape applies.
        arrival = scenario->make_arrival_profile(cfg.lambda);
        cfg.arrival = arrival.get();
        break;
    }
  }

  obs::MetricsRegistry registry;
  node::LoopbackCluster cluster{cfg, &registry};
  if (scenario && scenario->kind == workload::ScenarioSpec::Kind::kFaults) {
    std::vector<net::NodeId> ids;
    const auto count = static_cast<std::size_t>(
        static_cast<double>(cfg.num_peers) * scenario->partition_fraction);
    for (std::size_t i = 0; i < count; ++i) {
      ids.push_back(static_cast<net::NodeId>(i));
    }
    if (!ids.empty()) {
      cluster.net().schedule_partition(scenario->partition_at,
                                       scenario->heal_at, std::move(ids));
    }
    if (scenario->drain_bytes_per_sec > 0.0) {
      // The first peer becomes a slow reader: every sender's bytes to
      // it stay in flight until drained, exercising send-queue caps.
      cluster.net().set_drain_rate(0, scenario->drain_bytes_per_sec);
    }
  }
  obs::Snapshotter snaps{registry, metrics_interval};
  if (!metrics_out.empty()) {
    try {
      snaps.open_jsonl(metrics_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
    snaps.start(cluster.now());
  }
  obs::TraceBuffer trace_buf{0};  // pure pass-through to the JSONL stream
  if (!trace_out.empty()) {
    try {
      trace_buf.open_jsonl(trace_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
    cluster.set_trace_sink(trace_buf.sink());
  }

  // Byzantine runs can never finish the dishonest peers' own segments
  // (they corrupt everything they emit), so completion is keyed on the
  // honest population instead.
  const bool adversarial = cluster.dishonest_count() > 0;
  const auto done = [&] {
    return adversarial ? cluster.honest_complete() : cluster.complete();
  };
  const double step = 0.25;
  while (!done() && cluster.now() < max_time) {
    cluster.run_for(step);
    if (!metrics_out.empty()) snaps.sample_if_due(cluster.now());
    if (progress) {
      std::fprintf(stderr,
                   "t=%.2f injected=%llu decoded=%zu blocks=%llu "
                   "pulls=%llu\n",
                   cluster.now(),
                   static_cast<unsigned long long>(
                       cluster.segments_injected()),
                   cluster.segments_decoded(),
                   static_cast<unsigned long long>(
                       cluster.total_buffered_blocks()),
                   static_cast<unsigned long long>(cluster.pulls_sent()));
    }
  }
  if (!metrics_out.empty()) {
    snaps.sample(cluster.now());
    snaps.flush();
  }
  if (!trace_out.empty()) trace_buf.flush();

  // Cluster-wide wire/node/latency aggregates. Everything here is a
  // count of protocol events or a virtual-time latency, so the block is
  // a deterministic function of the seed — summaries stay comparable
  // across runs with and without telemetry files.
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t handshakes_ok = 0;
  std::uint64_t send_refusals = 0;
  std::uint64_t ttl_expirations = 0;
  stats::LatencyHistogram pull_rtt;
  stats::LatencyHistogram decode_latency;
  const auto add_node = [&](const node::NodeBase& n) {
    frames_sent += n.frames_sent();
    frames_received += n.frames_received();
    decode_errors += n.decode_errors();
    handshakes_ok += n.handshakes_ok();
    send_refusals += n.send_refusals();
  };
  for (std::size_t i = 0; i < cfg.num_peers; ++i) {
    add_node(cluster.peer(i));
    ttl_expirations += cluster.peer(i).ttl_expirations();
  }
  for (std::size_t i = 0; i < cfg.num_servers; ++i) {
    add_node(cluster.server(i));
    pull_rtt.merge(cluster.server(i).pull_rtt());
    decode_latency.merge(cluster.server(i).decode_latency());
  }
  obs::JsonObject stats;
  stats.field("frames_sent", frames_sent)
      .field("frames_received", frames_received)
      .field("wire_decode_errors", decode_errors)
      .field("handshakes_ok", handshakes_ok)
      .field("send_refusals", send_refusals)
      .field("ttl_expirations", ttl_expirations)
      .field("loopback_deliveries", cluster.net().deliveries())
      .field("loopback_chunks", cluster.net().chunks())
      .field("loopback_bytes_out", cluster.net().bytes_sent())
      .field("loopback_queue_drops", cluster.net().backpressure_refusals())
      .field("loopback_in_flight_hwm",
             cluster.net().in_flight_high_watermark())
      .field_raw("pull_rtt", latency_json(pull_rtt))
      .field_raw("decode_latency", latency_json(decode_latency));

  const bool complete = done();
  obs::JsonObject out;
  out.field("complete", complete)
      .field("t", cluster.now())
      .field("peers", cfg.num_peers)
      .field("servers", cfg.num_servers)
      .field("segment_size", cfg.segment_size)
      .field("normalized_capacity", cfg.normalized_capacity())
      .field("segments_injected", cluster.segments_injected())
      .field("segments_decoded", cluster.segments_decoded())
      .field("pulls_sent", cluster.pulls_sent())
      .field("innovative_pulls", cluster.innovative_pulls())
      .field("gossip_sent", cluster.gossip_sent())
      .field("normalized_throughput", cluster.normalized_throughput())
      .field("mean_blocks_per_peer", cluster.mean_blocks_per_peer())
      .field("loopback_sends", cluster.net().sends())
      .field("loopback_drops", cluster.net().drops())
      .field("loopback_bytes", cluster.net().bytes_delivered())
      .field_raw("stats", stats.str());
  if (cfg.pull_policy != proto::PullPolicyKind::kUniform) {
    // Only for the feedback-driven policies, so the default summary —
    // and its golden pins — stays byte-identical.
    std::uint64_t summaries = 0;
    std::uint64_t targeted = 0;
    for (std::size_t i = 0; i < cfg.num_servers; ++i) {
      summaries += cluster.server(i).summaries_received();
      targeted += cluster.server(i).targeted_pulls();
    }
    obs::JsonObject pj;
    pj.field_str("policy", proto::to_string(cfg.pull_policy))
        .field("summaries_received", summaries)
        .field("targeted_pulls", targeted);
    out.field_raw("pull_policy", pj.str());
  }
  if (scenario) {
    // Only with --scenario, so the default output — and its golden
    // pins — stays byte-identical.
    obs::JsonObject sj;
    sj.field_raw("spec", scenario->to_json())
        .field("dishonest_peers", cluster.dishonest_count())
        .field("honest_complete", cluster.honest_complete())
        .field("honest_segments_injected",
               cluster.honest_segments_injected())
        .field("blocks_corrupted", cluster.blocks_corrupted())
        .field("blocks_quarantined", cluster.blocks_quarantined())
        .field("polluted_pulls", cluster.polluted_pulls())
        .field("fault_drops", cluster.net().fault_drops())
        .field("queue_refusals", cluster.net().backpressure_refusals());
    out.field_raw("scenario", sj.str());
  }
  std::printf("%s\n", out.str().c_str());
  return complete ? 0 : 1;
}
