/// \file icollect_node.cpp
/// One live collection node over real TCP: run a peer that injects and
/// gossips coded blocks, or a server that pulls and decodes, against
/// other icollect_node processes.
///
///   # terminal 1 — server listening on 9100, expecting 8 segments
///   icollect_node --role server --listen 127.0.0.1:9100
///                 --expect-segments 8 --pull-rate 50
///   # terminal 2 — peer: listen for other peers, feed the server
///   icollect_node --role peer --listen 127.0.0.1:9101
///                 --connect 127.0.0.1:9100 --segments 4
///   # terminal 3 — second peer, meshing with both
///   icollect_node --role peer --connect 127.0.0.1:9100
///                 --connect 127.0.0.1:9101 --segments 4
///
/// A peer exits 0 once every segment it injected has been ACKed
/// decoded; a server exits 0 once --expect-segments segments decoded.
/// --duration caps the wall-clock wait (exit 1 on timeout).

#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "net/epoll_reactor.h"
#include "node/node_config.h"
#include "node/peer_node.h"
#include "proto/pull_policy.h"
#include "node/server_node.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/snapshotter.h"
#include "obs/trace_pipeline.h"

#include "cli_args.h"

namespace {

/// SIGUSR1 requests an on-demand stats dump; the event loop services it
/// (poll_once returns at least every 50 ms, so the dump is prompt).
volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigusr1(int) { g_dump_requested = 1; }

/// One flat JSON object of every registered metric, stamped `t`.
std::string stats_json(const icollect::obs::MetricsRegistry& registry,
                       double t) {
  icollect::obs::JsonObject out;
  out.field("t", t);
  registry.for_each_sample([&out](std::string_view name, double value) {
    out.field(name, value);
  });
  return out.str();
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s --role peer|server [options]\n"
      "  --listen HOST:PORT     accept connections (required for servers\n"
      "                         and any peer other peers dial)\n"
      "  --connect HOST:PORT    dial another node (repeatable)\n"
      "  --node-id N            stable identity (default: derived from "
      "port)\n"
      "  --segment-size s       blocks per segment (default 4)\n"
      "  --buffer-cap B         peer buffer capacity (default 32)\n"
      "  --payload-bytes n      payload bytes per block (default 64)\n"
      "  --lambda x             peer block injection rate (default 8)\n"
      "  --mu x                 peer gossip rate (default 4)\n"
      "  --gamma x              per-block TTL rate (default 0.05)\n"
      "  --pull-rate x          server pulls/sec (default 20)\n"
      "  --pull-policy P        server pull scheduling: uniform|rarest|\n"
      "                         deficit (default uniform)\n"
      "  --segments K           peer: inject K segments, exit when all "
      "ACKed\n"
      "  --expect-segments K    server: exit once K segments decoded\n"
      "  --duration T           wall-clock cap in seconds (default 60)\n"
      "  --seed S               RNG seed (default 1)\n"
      "  --metrics-out FILE     periodic JSONL of node + transport "
      "counters\n"
      "  --metrics-interval T   sample spacing in seconds (default 0.5)\n"
      "  --trace-out FILE       protocol event trace JSONL\n"
      "  --backend NAME         socket transport; only epoll (default)\n"
      "  --shards N             accepted for compatibility; no effect (the\n"
      "                         reactor runs on the calling thread)\n"
      "  --backlog N            listen(2) backlog (default SOMAXCONN)\n"
      "\n"
      "SIGUSR1 dumps a one-line stats snapshot to stderr.\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icollect;
  using tools::split_host_port;

  std::string role;
  std::string listen_at;
  std::vector<std::string> connect_to;
  node::NodeConfig cfg;
  cfg.node_id = 0;  // resolved below
  cfg.payload_bytes = 64;
  cfg.lambda = 8.0;
  cfg.mu = 4.0;
  cfg.gamma = 0.05;
  cfg.pull_rate = 20.0;
  cfg.retain_own_until_acked = true;  // a live peer guarantees delivery
  std::size_t expect_segments = 0;
  double duration = 60.0;
  std::string metrics_out;
  std::string trace_out;
  double metrics_interval = 0.5;

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
    } else if (arg == "--role") {
      role = value("--role");
    } else if (arg == "--listen") {
      listen_at = value("--listen");
    } else if (arg == "--connect") {
      connect_to.emplace_back(value("--connect"));
    } else if (arg == "--node-id") {
      cfg.node_id = static_cast<std::uint32_t>(count("--node-id", 0xFFFFFFFFU));
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
    } else if (arg == "--pull-rate") {
      cfg.pull_rate = real("--pull-rate");
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
    } else if (arg == "--segments") {
      cfg.max_segments = count("--segments");
    } else if (arg == "--expect-segments") {
      expect_segments = count("--expect-segments");
    } else if (arg == "--duration") {
      duration = real("--duration");
    } else if (arg == "--seed") {
      cfg.seed = count("--seed");
    } else if (arg == "--metrics-out") {
      metrics_out = value("--metrics-out");
    } else if (arg == "--metrics-interval") {
      metrics_interval = real("--metrics-interval");
    } else if (arg == "--trace-out") {
      trace_out = value("--trace-out");
    } else if (arg == "--backend") {
      const std::string_view backend{value("--backend")};
      if (backend != "epoll") {
        std::fprintf(stderr, "%s: unknown backend '%s' (expected epoll)\n",
                     argv[0], std::string{backend}.c_str());
        return 2;
      }
    } else if (arg == "--shards") {
      // Compatibility only: the reactor has no threads to size.
      if (count("--shards") == 0) {
        std::fprintf(stderr, "%s: --shards must be >= 1\n", argv[0]);
        return 2;
      }
    } else if (arg == "--backlog") {
      cfg.listen_backlog = static_cast<int>(count("--backlog", INT_MAX));
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                   std::string{arg}.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  const bool is_peer = role == "peer";
  const bool is_server = role == "server";
  if (!is_peer && !is_server) {
    std::fprintf(stderr, "%s: --role must be 'peer' or 'server'\n", argv[0]);
    usage(argv[0]);
    return 2;
  }
  if (listen_at.empty() && connect_to.empty()) {
    std::fprintf(stderr, "%s: need --listen and/or --connect\n", argv[0]);
    return 2;
  }
  if (metrics_interval <= 0.0) {
    std::fprintf(stderr, "%s: --metrics-interval must be > 0\n", argv[0]);
    return 2;
  }
  // node_id may still be 0 here (resolved from the bound port below);
  // validate the user-settable knobs now so bad values are a usage
  // error, not an unhandled exception from the node constructor.
  {
    node::NodeConfig check = cfg;
    if (check.node_id == 0) check.node_id = 1;
    try {
      check.validate();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
  }

  // Before listen(): once the port accepts, a SIGUSR1 may arrive, and
  // its default action would kill the node.
  std::signal(SIGUSR1, on_sigusr1);
  net::EpollReactor::Options topts;
  topts.connect_timeout = 5.0;
  topts.connect_retries = 20;  // peers may start before their server
  topts.retry_backoff = 0.25;
  topts.listen_backlog = cfg.listen_backlog;
  std::unique_ptr<net::EpollReactor> transport;
  try {
    transport = std::make_unique<net::EpollReactor>(topts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  net::EpollReactor& tcp = *transport;
  std::fprintf(stderr, "transport backend: epoll\n");

  std::uint16_t bound_port = 0;
  if (!listen_at.empty()) {
    std::string host;
    std::uint16_t port = 0;
    if (!split_host_port(listen_at, host, port)) {
      std::fprintf(stderr, "%s: bad --listen '%s' (want HOST:PORT)\n",
                   argv[0], listen_at.c_str());
      return 2;
    }
    try {
      bound_port = tcp.listen(host, port);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 1;
    }
    std::fprintf(stderr, "listening on %s (port %u)\n", listen_at.c_str(),
                 bound_port);
  }
  if (cfg.node_id == 0) {
    cfg.node_id = bound_port != 0 ? bound_port
                                  : static_cast<std::uint32_t>(
                                        0x40000000U + cfg.seed % 0xFFFF);
  }

  // The registry is always live (counters are pull-gauges over state
  // the node maintains anyway) so SIGUSR1 can dump stats even when no
  // --metrics-out file was requested.
  obs::MetricsRegistry registry;
  tcp.attach_metrics(registry, "tcp.");
  std::unique_ptr<node::PeerNode> peer;
  std::unique_ptr<node::ServerNode> server;
  if (is_peer) {
    peer = std::make_unique<node::PeerNode>(cfg, tcp, tcp.timers(),
                                            &registry, "node.");
  } else {
    server = std::make_unique<node::ServerNode>(cfg, tcp, tcp.timers(),
                                                &registry, "node.");
  }

  obs::TraceBuffer trace_buf{0};
  if (!trace_out.empty()) {
    try {
      trace_buf.open_jsonl(trace_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
    if (peer) peer->set_trace_sink(trace_buf.sink());
    if (server) server->set_trace_sink(trace_buf.sink());
  }

  for (const auto& target : connect_to) {
    std::string host;
    std::uint16_t port = 0;
    if (!split_host_port(target, host, port)) {
      std::fprintf(stderr, "%s: bad --connect '%s' (want HOST:PORT)\n",
                   argv[0], target.c_str());
      return 2;
    }
    tcp.connect(host, port);
  }
  if (peer) peer->start();
  if (server) server->start();

  // Snapshots stamp themselves from the transport's wall clock through
  // the obs clock seam — the same Snapshotter the virtual-time sim uses.
  obs::CallbackClock clock{[&tcp] { return tcp.now(); }};
  obs::Snapshotter snaps{registry, metrics_interval, &clock};
  const bool sampling = !metrics_out.empty();
  if (sampling) {
    try {
      snaps.open_jsonl(metrics_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return 2;
    }
    snaps.start();
  }

  const auto done = [&]() -> bool {
    if (peer && cfg.max_segments > 0) return peer->all_injected_acked();
    if (server && expect_segments > 0) {
      return server->bank().segments_decoded() >= expect_segments;
    }
    return false;  // run until the duration cap
  };
  bool completed = false;
  while (tcp.now() < duration) {
    tcp.poll_once();
    if (sampling) snaps.sample_if_due();
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      std::fprintf(stderr, "SIGUSR1 stats %s\n",
                   stats_json(registry, tcp.now()).c_str());
    }
    if (done()) {
      completed = true;
      break;
    }
  }
  if (sampling) {
    snaps.sample();
    snaps.flush();
  }
  if (!trace_out.empty()) trace_buf.flush();

  if (peer) {
    std::fprintf(stderr,
                 "peer %u: injected=%llu acked=%llu gossip_sent=%llu "
                 "pull_replies=%llu\n",
                 cfg.node_id,
                 static_cast<unsigned long long>(peer->segments_injected()),
                 static_cast<unsigned long long>(peer->own_segments_acked()),
                 static_cast<unsigned long long>(peer->gossip_sent()),
                 static_cast<unsigned long long>(peer->pull_replies()));
  } else {
    std::fprintf(
        stderr, "server %u: pulls=%llu innovative=%llu decoded=%llu\n",
        cfg.node_id,
        static_cast<unsigned long long>(server->pulls_sent()),
        static_cast<unsigned long long>(server->innovative_pulls()),
        static_cast<unsigned long long>(server->bank().segments_decoded()));
  }
  const bool has_goal =
      (peer && cfg.max_segments > 0) || (server && expect_segments > 0);
  return !has_goal || completed ? 0 : 1;
}
