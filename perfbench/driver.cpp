/// \file driver.cpp
/// In-process half of the end-to-end benchmark: runs the simulator
/// workloads (sim-coded, sim-counter) through CollectionSystem /
/// p2p::Network and the loopback-cluster workload (cluster-fanout)
/// through node::LoopbackCluster, checks their outputs, and prints one
/// JSON object of raw results for run.py.
///
///   perfbench_driver --workload sim-coded --seed 1 --seconds 10 --trace 0
///
/// Layers are measured from outside the program only: wall-clock spans
/// around the calls made here, the hooks the program already exposes
/// (Network::set_profiler, set_trace_sink, obs::MetricsRegistry), and a
/// replay pass that times each layer's public functions at the run's own
/// input shapes. Nothing under src/ is instrumented for the benchmark.
///
/// A run is a fixed number of episodes, each with its own seed derived
/// from --seed, so every virtual-time result is a pure function of
/// (--seed, --seconds). --trace 1 runs every episode twice, untraced and
/// traced, and fails if the two disagree on any virtual-time counter.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "coding/coded_block.h"
#include "coding/decoder.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "core/collection_system.h"
#include "gf/kernels.h"
#include "node/cluster.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "proto/peer_core.h"
#include "stats/latency_histogram.h"
#include "wire/frame.h"
#include "wire/message.h"

namespace {

using namespace icollect;

// --- clocks and process accounting ----------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double as_d(std::uint64_t v) { return static_cast<double>(v); }

/// Episode seeds, so episode e of seed n never coincides with episode 0
/// of seed n + e.
std::uint64_t episode_seed(std::uint64_t seed, std::size_t episode) {
  return common::splitmix64(common::splitmix64(seed) + episode);
}

/// CRC-32 (IEEE, reflected) written here rather than taken from
/// common/crc32.h, so the payload check does not trust the code under
/// test.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1U) ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ data[i]) & 0xFFU] ^ (c >> 8U);
  return c ^ 0xFFFFFFFFU;
}

// --- result collection ------------------------------------------------------

class Result {
 public:
  void metric(const std::string& name, double value) { metrics_[name] = value; }
  void check(const std::string& name, bool ok) {
    auto [it, fresh] = checks_.emplace(name, ok);
    if (!fresh) it->second = it->second && ok;
  }
  void note(const std::string& name, const std::string& value) {
    notes_[name] = value;
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] std::string json() const {
    obs::JsonObject checks;
    for (const auto& [name, ok] : checks_) checks.field(name, ok);
    obs::JsonObject metrics;
    for (const auto& [name, value] : metrics_) metrics.field(name, value);
    obs::JsonObject notes;
    for (const auto& [name, v] : notes_) notes.field_str(name, v);
    obs::JsonObject out;
    out.field("attempted", attempted)
        .field("failed", failed)
        .field_raw("checks", checks.str())
        .field_raw("metrics", metrics.str())
        .field_raw("notes", notes.str());
    return out.str();
  }

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, bool> checks_;
  std::map<std::string, std::string> notes_;
};

/// Virtual-time counters of one episode: equal for equal seeds, whatever
/// hooks are attached.
using Fingerprint = std::vector<std::uint64_t>;

// --- replay: each layer's public functions at the run's input shapes -------

/// Mean ns per call of `fn`, repeated in batches of `batch` for about
/// `budget_s` of wall time.
template <typename Fn>
double time_per_call(double budget_s, std::size_t batch, Fn&& fn) {
  std::size_t calls = 0;
  const double start = wall_now();
  double elapsed = 0.0;
  do {
    for (std::size_t i = 0; i < batch; ++i) fn();
    calls += batch;
    elapsed = wall_now() - start;
  } while (elapsed < budget_s);
  return elapsed * 1e9 / as_d(calls);
}

struct FrameMix {
  std::uint64_t hello = 0, gossip = 0, pull_request = 0, pull_block = 0,
                ack = 0, summary = 0;
};

wire::Message sample_block_message(bool gossip, std::size_t s,
                                   std::size_t payload) {
  coding::CodedBlock b;
  b.segment = coding::SegmentId{7, 3};
  b.coefficients.assign(s, 0x5A);
  b.payload.assign(payload, 0xC3);
  if (gossip) return wire::Message{wire::GossipBlock{std::move(b)}};
  wire::PullBlock pb;
  pb.token = 42;
  pb.occupancy = 16;
  pb.has_block = true;
  pb.block = std::move(b);
  return wire::Message{std::move(pb)};
}

struct ReplayShape {
  std::size_t s = 4;
  std::size_t payload = 0;
  std::size_t buffer_cap = 32;
  FrameMix frames;
};

void replay_layers(const ReplayShape& shape, Result& out) {
  constexpr double kBudget = 0.12;  // seconds of wall time per layer
  common::Rng rng{12345};

  // proto: PeerCore::inject (payload fill + CRC + systematic store) and
  // recode_into, at the workload's s and payload size.
  proto::PeerCore::Params params;
  params.segment_size = shape.s;
  params.buffer_cap = shape.buffer_cap;
  params.payload_bytes = shape.payload;
  proto::PeerCore core{params, 1, rng};
  core.set_arm_ttl([](coding::BlockHandle, double) {});
  {
    std::size_t calls = 0;
    double busy = 0.0;
    while (busy < kBudget) {
      const double t0 = wall_now();
      while (core.can_inject()) {
        (void)core.inject();
        ++calls;
      }
      busy += wall_now() - t0;
      (void)core.clear_all();
    }
    out.metric("proto.inject_ns", busy * 1e9 / as_d(calls));
  }
  const coding::SegmentId seg = core.inject().id;
  coding::CodedBlock scratch;
  out.metric("proto.recode_ns",
             time_per_call(kBudget, 64, [&] { core.recode_into(seg, scratch); }));

  // common: CRC-32 of 1 KiB.
  std::vector<std::uint8_t> kib(1024);
  for (auto& b : kib) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  volatile std::uint32_t sink = 0;
  out.metric("common.crc32_ns_per_kib",
             time_per_call(kBudget, 64,
                           [&] { sink = sink + common::crc32({kib.data(), kib.size()}); }));

  // gf: the active add_scaled kernel over 1 KiB.
  std::vector<std::uint8_t> dst(1024, 1);
  const auto& kernels = gf::Kernels::active();
  out.metric("gf.add_scaled_ns_per_kib",
             time_per_call(kBudget, 256,
                           [&] { kernels.add_scaled(dst.data(), kib.data(), 0x1D, 1024); }));
  out.note("gf_kernel", kernels.name);

  // coding: Decoder::add over recoded blocks of one segment until full
  // rank (construction included, as a server pays it per segment).
  {
    std::vector<coding::CodedBlock> blocks(shape.s * 2);
    for (auto& b : blocks) core.recode_into(seg, b);
    std::size_t adds = 0;
    double busy = 0.0;
    while (busy < kBudget) {
      const double t0 = wall_now();
      for (int rep = 0; rep < 32; ++rep) {
        coding::Decoder dec{seg, shape.s, shape.payload};
        for (const auto& b : blocks) {
          (void)dec.add(b);
          ++adds;
          if (dec.complete()) break;
        }
      }
      busy += wall_now() - t0;
    }
    out.metric("coding.decode_add_ns", busy * 1e9 / as_d(adds));
  }

  // wire: encode and decode of the workload's own frame mix.
  const FrameMix& f = shape.frames;
  const std::uint64_t total = f.hello + f.gossip + f.pull_request +
                              f.pull_block + f.ack + f.summary;
  if (total == 0) return;  // nothing of this workload crosses a wire
  std::vector<wire::Message> mix;
  const auto add = [&](std::uint64_t count, const wire::Message& m) {
    const auto n = static_cast<std::size_t>(
        std::llround(1000.0 * as_d(count) / as_d(total)));
    for (std::size_t i = 0; i < n; ++i) mix.push_back(m);
  };
  wire::Hello hello;
  hello.node_id = 9;
  hello.segment_size = static_cast<std::uint16_t>(shape.s);
  add(f.hello, wire::Message{hello});
  add(f.gossip, sample_block_message(true, shape.s, shape.payload));
  wire::PullRequest req;
  req.token = 42;
  add(f.pull_request, wire::Message{req});
  add(f.pull_block, sample_block_message(false, shape.s, shape.payload));
  add(f.ack, wire::Message{wire::SegmentDecodedAck{coding::SegmentId{7, 3}}});
  wire::BufferSummary summary;
  summary.segments.assign(8, coding::SegmentId{7, 3});
  add(f.summary, wire::Message{summary});
  std::shuffle(mix.begin(), mix.end(), std::mt19937_64{7});

  std::vector<std::uint8_t> stream;
  out.metric("wire.encode_ns_per_frame",
             time_per_call(kBudget, 1,
                           [&] {
                             stream.clear();
                             for (const auto& m : mix) wire::encode_frame(m, stream);
                           }) /
                 as_d(mix.size()));
  std::uint64_t decoded = 0;
  std::uint64_t errors = 0;
  out.metric("wire.decode_ns_per_frame",
             time_per_call(kBudget, 1,
                           [&] {
                             wire::FrameDecoder dec;
                             dec.feed({stream.data(), stream.size()});
                             for (;;) {
                               auto r = dec.next();
                               if (r.status == wire::DecodeStatus::kNeedMore) break;
                               if (wire::is_error(r.status)) {
                                 ++errors;
                                 break;
                               }
                               ++decoded;
                             }
                           }) /
                 as_d(mix.size()));
  out.check("replay_frames_roundtrip", errors == 0 && decoded % mix.size() == 0);
}

/// Episodes that fill about `seconds` at `nominal_s` each (traced runs
/// pair every episode with a twin); never fewer than two.
std::size_t episode_count(double seconds, double nominal_s, bool traced) {
  return static_cast<std::size_t>(
      std::max(2.0, std::round(seconds / nominal_s / (traced ? 2.0 : 1.0))));
}

/// Median over episodes of a per-episode rate. Wall-clock rates use it,
/// so one episode slowed by a busy host moves them less than a pooled
/// ratio would.
template <typename Episode, typename Rate>
double median_over(const std::vector<Episode>& eps, Rate&& rate) {
  std::vector<double> v;
  for (const auto& ep : eps) v.push_back(rate(ep));
  return median(v);
}

/// Every episode's timed-phase wall time, for calibrating episode counts.
template <typename Episode>
std::string episode_walls(const std::vector<Episode>& eps) {
  std::string walls;
  for (const auto& ep : eps) walls += (walls.empty() ? "" : " ") + std::to_string(ep.wall_s);
  return walls;
}

// --- simulator workloads ----------------------------------------------------

p2p::ProtocolConfig sim_config(bool coded, std::uint64_t seed) {
  p2p::ProtocolConfig cfg;
  cfg.num_peers = coded ? 500 : 2000;
  cfg.segment_size = 8;
  cfg.lambda = 2.0;
  cfg.mu = 10.0;
  cfg.gamma = 0.5;
  cfg.set_normalized_capacity(4.0);
  cfg.churn.enabled = true;
  cfg.churn.mean_lifetime = 50.0;
  cfg.fidelity = coded ? p2p::CollectionFidelity::kRealCoding
                       : p2p::CollectionFidelity::kStateCounter;
  cfg.payload_bytes = coded ? 1024 : 0;
  cfg.seed = seed;
  return cfg;
}

constexpr std::array<const char*, 6> kSimScopes = {
    "inject", "gossip", "server_pull", "decode", "ttl_expire", "depart"};

/// What an episode attaches to the network before it runs.
enum class Hooks {
  kNone,     ///< nothing: the end-to-end measurement
  kLatency,  ///< a trace sink recording collection delays (untimed)
  kFull,     ///< profiler + trace sink: the per-layer ledger
};

struct SimEpisode {
  double setup_s = 0, wall_s = 0, cpu_s = 0;
  std::uint64_t blocks = 0, segments = 0, decoded = 0, pulls = 0,
                innovative = 0, stale = 0, starved = 0, gossip = 0;
  double norm_throughput = 0;
  std::vector<double> decode_delays;  ///< injection → decode, per segment
  std::vector<double> block_delays;   ///< injection → innovative pull
  std::uint64_t payload_mismatches = 0, window_mismatches = 0,
                crc_failures = 0, payload_checked = 0;
  Fingerprint fingerprint;
  std::array<obs::Profiler::Stat, kSimScopes.size()> scopes{};
  std::uint64_t trace_events = 0;
};

SimEpisode run_sim_episode(const p2p::ProtocolConfig& cfg, double warm,
                           double window, Hooks hooks, int setup_reps) {
  SimEpisode ep;
  // Set-up is timed several times (construction only: the first event
  // can run as soon as the constructor returns) and the median kept.
  std::vector<double> setups;
  for (int r = 1; r < setup_reps; ++r) {
    const double t0 = wall_now();
    CollectionSystem probe{cfg};
    setups.push_back(wall_now() - t0);
  }
  const double t0 = wall_now();
  CollectionSystem system{cfg};
  setups.push_back(wall_now() - t0);
  ep.setup_s = median(setups);
  p2p::Network& net = system.network();

  obs::Profiler profiler;
  double window_start = std::numeric_limits<double>::infinity();
  if (hooks == Hooks::kFull) net.set_profiler(&profiler);
  if (hooks != Hooks::kNone) {
    net.set_trace_sink([&](const p2p::TraceEvent& ev) {
      ++ep.trace_events;
      if (hooks != Hooks::kLatency || ev.kind != p2p::TraceEventKind::kServerPull ||
          ev.aux != 1 || ev.at < window_start) {
        return;
      }
      const auto it = net.segment_registry().find(ev.segment);
      if (it != net.segment_registry().end()) {
        ep.block_delays.push_back(ev.at - it->second.injected_at);
      }
    });
  }
  system.warm_up(warm);

  const auto scope_stats = [&] {
    std::array<obs::Profiler::Stat, kSimScopes.size()> st{};
    if (hooks != Hooks::kFull) return st;
    for (std::size_t i = 0; i < kSimScopes.size(); ++i) {
      st[i] = profiler.timer(std::string{"net."} + kSimScopes[i]).stat();
    }
    return st;
  };
  const p2p::NetworkMetrics& m = net.metrics();
  const proto::ServerBank& bank = net.servers();
  const auto scopes0 = scope_stats();
  const std::uint64_t gossip0 = m.gossip_sent;
  const std::uint64_t bank_pulls0 = bank.pulls();
  const std::uint64_t bank_innov0 = bank.innovative_pulls();
  const std::uint64_t bank_redundant0 = bank.redundant_pulls();
  const std::uint64_t attempts0 = m.server_pull_attempts;
  const std::uint64_t trace0 = ep.trace_events;
  window_start = net.now();

  const double c0 = cpu_now();
  const double w0 = wall_now();
  system.run(window);
  ep.wall_s = wall_now() - w0;
  ep.cpu_s = cpu_now() - c0;

  const auto scopes1 = scope_stats();
  for (std::size_t i = 0; i < kSimScopes.size(); ++i) {
    ep.scopes[i].count = scopes1[i].count - scopes0[i].count;
    ep.scopes[i].total_ns = scopes1[i].total_ns - scopes0[i].total_ns;
  }
  ep.trace_events -= trace0;
  const std::size_t s = cfg.segment_size;
  ep.blocks = m.injected_blocks_window.count();
  ep.segments = ep.blocks / s;
  ep.decoded = m.decoded_original_blocks.count() / s;
  ep.pulls = bank.pulls() - bank_pulls0;
  ep.innovative = bank.innovative_pulls() - bank_innov0;
  ep.stale = ep.pulls - ep.innovative - (bank.redundant_pulls() - bank_redundant0);
  ep.starved = (m.server_pull_attempts - attempts0) - ep.pulls;
  ep.gossip = m.gossip_sent - gossip0;
  ep.norm_throughput = net.normalized_throughput();
  ep.crc_failures = m.payload_crc_failures;

  for (const auto& [id, info] : net.segment_registry()) {
    if (info.decoded && info.decoded_at >= window_start) {
      ep.decode_delays.push_back(info.decoded_at - info.injected_at);
    }
    if (!info.decoded || info.original_crcs.empty()) continue;
    const auto* originals = bank.originals(id);
    bool ok = originals != nullptr && originals->size() == info.original_crcs.size();
    for (std::size_t k = 0; ok && k < originals->size(); ++k) {
      const auto& blk = (*originals)[k];
      ok = blk.size() == cfg.payload_bytes &&
           reference_crc32(blk.data(), blk.size()) == info.original_crcs[k];
    }
    ++ep.payload_checked;
    if (!ok) {
      ++ep.payload_mismatches;
      if (info.injected_at >= window_start) ++ep.window_mismatches;
    }
  }
  ep.fingerprint = {m.segments_injected,   m.blocks_injected,
                    m.gossip_sent,         m.ttl_expirations,
                    m.server_pull_attempts, m.peers_departed,
                    m.segments_lost,       bank.pulls(),
                    bank.innovative_pulls(), bank.segments_decoded(),
                    static_cast<std::uint64_t>(std::llround(net.now() * 1e6))};
  return ep;
}

void run_sim(bool coded, std::uint64_t seed, double seconds, bool traced,
             Result& out) {
  // Virtual warm-up and window per episode, and the wall time an episode
  // takes on the reference box (see README.md); the episode count is
  // fixed by --seconds so results stay a function of the arguments.
  // Exponential lifetimes are stationary from the start and buffers
  // settle within a few TTL time constants (1/γ = 2), so a short
  // warm-up suffices.
  const double warm = 6.0;
  const double window = coded ? 12.0 : 5.0;
  const double nominal_s = coded ? 1.0 : 1.9;
  const std::size_t episodes = episode_count(seconds, nominal_s, traced);

  std::vector<SimEpisode> eps;
  std::vector<SimEpisode> traced_eps;
  for (std::size_t e = 0; e < episodes; ++e) {
    const auto cfg = sim_config(coded, episode_seed(seed, e));
    if (!traced) {
      eps.push_back(run_sim_episode(cfg, warm, window, Hooks::kNone, 15));
      continue;
    }
    // Alternate which twin runs first, so warm caches favour neither.
    const bool traced_first = e % 2 == 1;
    if (traced_first) traced_eps.push_back(run_sim_episode(cfg, warm, window, Hooks::kFull, 1));
    eps.push_back(run_sim_episode(cfg, warm, window, Hooks::kNone, 1));
    if (!traced_first) traced_eps.push_back(run_sim_episode(cfg, warm, window, Hooks::kFull, 1));
    out.check("traced_counters_equal_untraced",
              traced_eps.back().fingerprint == eps.back().fingerprint);
  }

  const std::size_t s = 8;
  const std::size_t payload = coded ? 1024 : 0;
  std::uint64_t blocks = 0, segments = 0, decoded = 0, pulls = 0,
                innovative = 0, stale = 0, starved = 0, gossip = 0,
                mismatches = 0, window_mismatches = 0, crc = 0, checked = 0;
  double wall = 0;
  std::vector<double> setups, norm, delays;
  for (const auto& ep : eps) {
    blocks += ep.blocks;
    segments += ep.segments;
    decoded += ep.decoded;
    pulls += ep.pulls;
    innovative += ep.innovative;
    stale += ep.stale;
    starved += ep.starved;
    gossip += ep.gossip;
    mismatches += ep.payload_mismatches;
    window_mismatches += ep.window_mismatches;
    crc += ep.crc_failures;
    checked += ep.payload_checked;
    wall += ep.wall_s;
    setups.push_back(ep.setup_s);
    norm.push_back(ep.norm_throughput);
    delays.insert(delays.end(), ep.decode_delays.begin(), ep.decode_delays.end());
  }
  out.attempted = segments;
  out.failed = window_mismatches;
  out.check("payload_crc_failures_zero", crc == 0);
  out.check("decoded_payloads_match", mismatches == 0);
  if (coded) {
    out.check("payloads_checked", checked > 0);
  } else {
    out.check("segments_decoded", decoded > 0);
  }

  if (!traced) {
    // Under real coding at this operating point well under 1% of
    // segments reach full rank inside a window (README.md, findings), so
    // sim-coded counts collection per segment's worth of innovative
    // blocks, and times it per collected block: the delay from a
    // segment's injection to each innovative pull of it, read through
    // the trace sink of an untimed twin of the first episode.
    double collected = as_d(decoded);
    double collected_fraction = ratio(as_d(decoded), as_d(segments));
    if (coded) {
      const SimEpisode twin = run_sim_episode(sim_config(true, episode_seed(seed, 0)),
                                              warm, window, Hooks::kLatency, 1);
      out.check("latency_twin_counters_equal", twin.fingerprint == eps.front().fingerprint);
      delays = twin.block_delays;
      collected = as_d(innovative) / as_d(s);
      collected_fraction = ratio(as_d(innovative), as_d(blocks));
    }
    double delay_sum = 0;
    for (double d : delays) delay_sum += d;
    // Each simulated exchange priced at the exact size of its wire frame.
    const auto frame = [](const wire::Message& msg) { return as_d(wire::frame_size(msg)); };
    const double messages = as_d(gossip) + 2.0 * as_d(pulls);
    const double bytes =
        as_d(gossip) * frame(sample_block_message(true, s, payload)) +
        as_d(pulls) * (frame(wire::Message{wire::PullRequest{}}) +
                       frame(sample_block_message(false, s, payload)));
    double norm_sum = 0;
    for (double v : norm) norm_sum += v;
    out.metric("setup_s", median(setups));
    out.metric("blocks_per_s", median_over(eps, [](const SimEpisode& ep) {
                 return ratio(as_d(ep.blocks), ep.wall_s);
               }));
    out.metric("peak_rss_mb", peak_rss_mib());
    out.metric("norm_throughput", norm_sum / as_d(norm.size()));
    out.metric("decoded_fraction", collected_fraction);
    out.metric("completion_s", ratio(delay_sum, as_d(delays.size())));
    out.metric("decode_latency_p50_s", quantile(delays, 0.50));
    out.metric("decode_latency_p99_s", quantile(delays, 0.99));
    out.metric("frames_per_segment", ratio(messages, collected));
    out.metric("wire_bytes_per_segment", ratio(bytes, collected));
    out.metric("pulls_per_segment", ratio(as_d(pulls), collected));
    out.metric("pull_rt_per_s", median_over(eps, [](const SimEpisode& ep) {
                 return ratio(as_d(ep.pulls), ep.wall_s);
               }));
    out.metric("server_cpu_us_per_pull", median_over(eps, [](const SimEpisode& ep) {
                 return ratio(ep.cpu_s * 1e6, as_d(ep.pulls));
               }));
    out.note("latency_samples", std::to_string(delays.size()));
    out.note("segments_decoded", std::to_string(decoded));
    out.note("episodes", std::to_string(eps.size()));
    out.note("episode_walls_s", episode_walls(eps));
    return;
  }

  // Per-layer ledger from the traced episodes.
  std::array<obs::Profiler::Stat, kSimScopes.size()> scopes{};
  double traced_wall = 0;
  std::uint64_t trace_events = 0;
  for (const auto& ep : traced_eps) {
    for (std::size_t i = 0; i < scopes.size(); ++i) {
      scopes[i].count += ep.scopes[i].count;
      scopes[i].total_ns += ep.scopes[i].total_ns;
    }
    traced_wall += ep.wall_s;
    trace_events += ep.trace_events;
  }
  // Counts are per episode, as in the cluster's ledger.
  const double tk = as_d(traced_eps.size());
  std::uint64_t events = 0;
  double handler_ns = 0;
  for (std::size_t i = 0; i < scopes.size(); ++i) {
    const std::string name = std::string{"p2p."} + kSimScopes[i];
    out.metric(name + ".count", as_d(scopes[i].count) / tk);
    out.metric(name + ".ns", scopes[i].mean_ns());
    if (std::string_view{kSimScopes[i]} != "decode") {  // nested in server_pull
      events += scopes[i].count;
      handler_ns += as_d(scopes[i].total_ns);
    }
  }
  out.metric("sim.events", as_d(events) / tk);
  out.metric("sim.queue_ns_per_event",
             ratio(traced_wall * 1e9 - handler_ns, as_d(events)));
  out.metric("coding.innovative_ratio", ratio(as_d(innovative), as_d(pulls)));
  out.metric("sched.stale_ratio", ratio(as_d(stale), as_d(pulls)));
  out.metric("sched.starved_pulls", as_d(starved) / as_d(eps.size()));
  out.metric("obs.trace_overhead", ratio(traced_wall, wall) - 1.0);
  out.note("trace_events", std::to_string(trace_events));
  out.check("trace_sink_saw_events", trace_events > 0);

  ReplayShape shape;
  shape.s = s;
  shape.payload = payload;
  shape.buffer_cap = 120;
  replay_layers(shape, out);
}

// --- loopback cluster workload --------------------------------------------

node::ClusterConfig cluster_config(std::uint64_t seed) {
  node::ClusterConfig cc;
  cc.num_peers = 200;
  cc.num_servers = 4;
  cc.segment_size = 4;
  cc.segments_per_peer = 4;
  cc.payload_bytes = 1024;
  cc.retain_own_until_acked = true;  // a finite collection reaches 100%
  cc.pull_policy = proto::PullPolicyKind::kUniform;
  cc.seed = seed;
  cc.net.seed = seed;
  return cc;
}

struct ClusterEpisode {
  double setup_s = 0, wall_s = 0, cpu_s = 0, completion_s = 0;
  bool complete = false;
  std::uint64_t injected = 0, decoded_all = 0, sends = 0, bytes = 0,
                pulls = 0, innovative = 0, stale = 0, starved = 0,
                round_trips = 0, decode_errors = 0, handshakes = 0,
                expected_handshakes = 0, payload_mismatches = 0,
                drops = 0, trace_events = 0;
  double norm_throughput = 0;
  stats::LatencyHistogram decode_latency, pull_rtt;
  FrameMix frames;
  double loopback_sends = 0, loopback_deliveries = 0, loopback_bytes = 0,
         in_flight_hwm = 0, loopback_drops = 0;
  Fingerprint fingerprint;
};

ClusterEpisode run_cluster_episode(const node::ClusterConfig& cc, bool traced) {
  ClusterEpisode ep;
  obs::MetricsRegistry registry;
  const double t0 = wall_now();
  // The constructor wires every session and runs the HELLO exchange.
  node::LoopbackCluster cluster{cc, traced ? &registry : nullptr};
  ep.setup_s = wall_now() - t0;
  if (traced) {
    cluster.set_trace_sink(
        [&ep](const proto::TraceEvent&) { ++ep.trace_events; });
  }
  const std::uint64_t n = cc.num_peers, m = cc.num_servers;
  ep.expected_handshakes = n * (n - 1) + 2 * n * m + m * (m - 1);
  const auto sum_nodes = [&](auto&& get) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) total += get(static_cast<node::NodeBase&>(cluster.peer(i)));
    for (std::size_t i = 0; i < m; ++i) total += get(static_cast<node::NodeBase&>(cluster.server(i)));
    return total;
  };
  ep.handshakes = sum_nodes([](node::NodeBase& b) { return b.handshakes_ok(); });

  const double c0 = cpu_now();
  const double w0 = wall_now();
  ep.complete = cluster.run_to_completion(400.0);
  ep.wall_s = wall_now() - w0;
  ep.cpu_s = cpu_now() - c0;

  ep.completion_s = cluster.now();
  ep.injected = cluster.segments_injected();
  ep.decoded_all = cluster.server(0).bank().segments_decoded();
  for (std::size_t j = 0; j < m; ++j) {
    node::ServerNode& srv = cluster.server(j);
    ep.decoded_all = std::min<std::uint64_t>(ep.decoded_all, srv.bank().segments_decoded());
    ep.stale += srv.stale_pulls();
    ep.starved += srv.pulls_starved();
    ep.round_trips += srv.pull_replies() + srv.pull_empty_replies();
    ep.decode_latency.merge(srv.decode_latency());
    ep.pull_rtt.merge(srv.pull_rtt());
  }
  ep.sends = cluster.net().sends();
  ep.bytes = cluster.net().bytes_delivered();
  ep.drops = cluster.net().drops();
  ep.pulls = cluster.pulls_sent();
  ep.innovative = cluster.innovative_pulls();
  ep.norm_throughput = cluster.normalized_throughput();
  ep.decode_errors = sum_nodes([](node::NodeBase& b) { return b.decode_errors(); });

  // Decoded payloads at every server against the origin's own CRCs.
  for (std::size_t i = 0; i < n; ++i) {
    node::PeerNode& peer = cluster.peer(i);
    for (std::uint32_t seq = 0; seq < peer.segments_injected(); ++seq) {
      const coding::SegmentId id{peer.config().node_id, seq};
      const auto* crcs = peer.original_crcs(id);
      bool ok = crcs != nullptr && crcs->size() == cc.segment_size;
      for (std::size_t j = 0; ok && j < m; ++j) {
        const auto* originals = cluster.server(j).bank().originals(id);
        ok = originals != nullptr && originals->size() == crcs->size();
        for (std::size_t k = 0; ok && k < crcs->size(); ++k) {
          const auto& blk = (*originals)[k];
          ok = blk.size() == cc.payload_bytes &&
               reference_crc32(blk.data(), blk.size()) == (*crcs)[k];
        }
      }
      if (!ok) ++ep.payload_mismatches;
    }
  }

  if (traced) {
    // Per-role sums of the node counters and the loopback hub's own
    // counters, read through the metrics registry the cluster feeds.
    std::map<std::string, double> peer_sum, server_sum, loopback;
    registry.for_each_sample([&](std::string_view name, double v) {
      const auto dot = name.find('.');
      if (dot == std::string_view::npos) return;
      const std::string prefix{name.substr(0, dot)};
      const std::string key{name.substr(dot + 1)};
      if (prefix == "loopback") {
        loopback[key] = v;
      } else if (prefix.rfind("peer", 0) == 0) {
        peer_sum[key] += v;
      } else if (prefix.rfind("server", 0) == 0) {
        server_sum[key] += v;
      }
    });
    const auto u = [](double v) { return static_cast<std::uint64_t>(std::llround(v)); };
    ep.frames.hello = u(peer_sum["handshakes_ok"] + server_sum["handshakes_ok"]);
    ep.frames.gossip = u(peer_sum["gossip_sent"] + server_sum["forwarded_out"]);
    ep.frames.pull_request = u(server_sum["pulls_sent"]);
    ep.frames.pull_block = u(peer_sum["pull_replies"] + peer_sum["pull_empty_replies"]);
    // Every server ACKs each decode to every peer and every other server.
    ep.frames.ack = u(peer_sum["acks_received"] + server_sum["acks_sent"] * as_d(m - 1));
    // Not a registered gauge; read from the servers directly.
    for (std::size_t j = 0; j < m; ++j) ep.frames.summary += cluster.server(j).summaries_received();
    ep.loopback_sends = loopback["sends"];
    ep.loopback_deliveries = loopback["deliveries"];
    ep.loopback_bytes = loopback["bytes_in"];
    ep.in_flight_hwm = loopback["in_flight_hwm"];
    ep.loopback_drops = loopback["drops"] + loopback["queue_drops"];
  }
  ep.fingerprint = {ep.injected, ep.decoded_all, ep.sends, ep.bytes, ep.pulls,
                    ep.innovative, ep.stale, ep.round_trips,
                    ep.decode_latency.quantile(0.5), ep.decode_latency.quantile(0.99),
                    static_cast<std::uint64_t>(std::llround(ep.completion_s * 1e6))};
  return ep;
}

void run_cluster(std::uint64_t seed, double seconds, bool traced, Result& out) {
  const double nominal_s = 2.8;  // wall per episode on the reference box
  const std::size_t episodes = episode_count(seconds, nominal_s, traced);
  std::vector<ClusterEpisode> eps, traced_eps;
  for (std::size_t e = 0; e < episodes; ++e) {
    const auto cc = cluster_config(episode_seed(seed, e));
    const bool traced_first = traced && e % 2 == 1;  // as in run_sim
    if (traced_first) traced_eps.push_back(run_cluster_episode(cc, true));
    eps.push_back(run_cluster_episode(cc, false));
    if (traced && !traced_first) traced_eps.push_back(run_cluster_episode(cc, true));
    if (traced) {
      out.check("traced_counters_equal_untraced",
                traced_eps.back().fingerprint == eps.back().fingerprint);
    }
  }

  const node::ClusterConfig cc = cluster_config(seed);
  std::uint64_t injected = 0, decoded = 0, sends = 0, bytes = 0, pulls = 0,
                innovative = 0, stale = 0, starved = 0, round_trips = 0,
                errors = 0, handshakes = 0, failed = 0;
  double wall = 0, completion = 0, norm = 0;
  std::vector<double> setups;
  stats::LatencyHistogram decode_latency, pull_rtt;
  for (const auto& ep : eps) {
    out.check("cluster_complete", ep.complete);
    out.check("every_session_handshaken", ep.handshakes == ep.expected_handshakes);
    out.check("wire_decode_errors_zero", ep.decode_errors == 0);
    out.check("loopback_drops_zero", ep.drops == 0);
    out.check("decoded_payloads_match", ep.payload_mismatches == 0);
    injected += ep.injected;
    decoded += ep.decoded_all;
    failed += ep.injected - std::min(ep.injected, ep.decoded_all);
    sends += ep.sends;
    bytes += ep.bytes;
    pulls += ep.pulls;
    innovative += ep.innovative;
    stale += ep.stale;
    starved += ep.starved;
    round_trips += ep.round_trips;
    errors += ep.decode_errors;
    handshakes += ep.handshakes;
    wall += ep.wall_s;
    completion += ep.completion_s;
    norm += ep.norm_throughput;
    setups.push_back(ep.setup_s);
    decode_latency.merge(ep.decode_latency);
    pull_rtt.merge(ep.pull_rtt);
  }
  const double k = as_d(eps.size());
  out.attempted = injected;
  out.failed = failed;

  if (!traced) {
    out.metric("setup_s", median(setups));
    out.metric("blocks_per_s", median_over(eps, [&](const ClusterEpisode& ep) {
                 return ratio(as_d(ep.injected * cc.segment_size), ep.wall_s);
               }));
    out.metric("peak_rss_mb", peak_rss_mib());
    out.metric("norm_throughput", norm / k);
    out.metric("decoded_fraction", ratio(as_d(decoded), as_d(injected)));
    out.metric("completion_s", completion / k);
    out.metric("decode_latency_p50_s", decode_latency.quantile_seconds(0.50));
    out.metric("decode_latency_p99_s", decode_latency.quantile_seconds(0.99));
    out.metric("frames_per_segment", ratio(as_d(sends), as_d(decoded)));
    out.metric("wire_bytes_per_segment", ratio(as_d(bytes), as_d(decoded)));
    out.metric("pulls_per_segment", ratio(as_d(pulls), as_d(decoded)));
    out.metric("pull_rt_per_s", median_over(eps, [](const ClusterEpisode& ep) {
                 return ratio(as_d(ep.round_trips), ep.wall_s);
               }));
    out.metric("server_cpu_us_per_pull", median_over(eps, [](const ClusterEpisode& ep) {
                 return ratio(ep.cpu_s * 1e6, as_d(ep.round_trips));
               }));
    out.note("latency_samples", std::to_string(decode_latency.count()));
    out.note("episodes", std::to_string(eps.size()));
    out.note("episode_walls_s", episode_walls(eps));
    return;
  }

  FrameMix frames;
  double traced_wall = 0, lb_sends = 0, deliveries = 0, lb_bytes = 0, hwm = 0,
         lb_drops = 0;
  std::uint64_t trace_events = 0;
  for (const auto& ep : traced_eps) {
    frames.hello += ep.frames.hello;
    frames.gossip += ep.frames.gossip;
    frames.pull_request += ep.frames.pull_request;
    frames.pull_block += ep.frames.pull_block;
    frames.ack += ep.frames.ack;
    frames.summary += ep.frames.summary;
    traced_wall += ep.wall_s;
    lb_sends += ep.loopback_sends;
    deliveries += ep.loopback_deliveries;
    lb_bytes += ep.loopback_bytes;
    hwm = std::max(hwm, ep.in_flight_hwm);
    lb_drops += ep.loopback_drops;
    trace_events += ep.trace_events;
  }
  const double tk = as_d(traced_eps.size());
  out.metric("wire.frames.hello", as_d(frames.hello) / tk);
  out.metric("wire.frames.gossip", as_d(frames.gossip) / tk);
  out.metric("wire.frames.pull_request", as_d(frames.pull_request) / tk);
  out.metric("wire.frames.pull_block", as_d(frames.pull_block) / tk);
  out.metric("wire.frames.ack", as_d(frames.ack) / tk);
  out.metric("wire.frames.summary", as_d(frames.summary) / tk);
  out.metric("wire.decode_errors", as_d(errors) / k);
  out.metric("net.loopback.deliveries", deliveries / tk);
  out.metric("net.loopback.bytes", lb_bytes / tk);
  out.metric("net.loopback.in_flight_hwm", hwm);
  out.metric("net.loopback.drops", lb_drops / tk);
  out.metric("node.handshakes", as_d(handshakes) / k);
  out.metric("node.acks_per_segment", ratio(as_d(frames.ack), as_d(decoded) * tk / k));
  out.metric("node.pull_rate_ratio",
             ratio(as_d(pulls), as_d(cc.num_servers) * cc.server_rate * completion));
  out.metric("node.pull_rtt_p50_ms", pull_rtt.quantile_seconds(0.50) * 1e3);
  out.metric("node.pull_rtt_p99_ms", pull_rtt.quantile_seconds(0.99) * 1e3);
  out.metric("coding.innovative_ratio", ratio(as_d(innovative), as_d(pulls)));
  out.metric("sched.stale_ratio", ratio(as_d(stale), as_d(pulls)));
  out.metric("sched.starved_pulls", as_d(starved) / k);
  out.metric("obs.trace_overhead", ratio(traced_wall, wall) - 1.0);
  out.check("frame_ledger_matches_loopback_sends",
            frames.hello + frames.gossip + frames.pull_request +
                    frames.pull_block + frames.ack + frames.summary ==
                static_cast<std::uint64_t>(std::llround(lb_sends)));
  out.check("trace_sink_saw_events", trace_events > 0);

  ReplayShape shape;
  shape.s = cc.segment_size;
  shape.payload = cc.payload_bytes;
  shape.buffer_cap = cc.buffer_cap;
  shape.frames = frames;
  replay_layers(shape, out);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sim-coded|sim-counter|cluster-fanout"
               "|replay --seed N --seconds S --trace 0|1\n"
               "  replay also takes --s, --payload and the frame mix\n"
               "  --frames hello,gossip,pull_request,pull_block,ack,summary\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  ReplayShape shape;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag{argv[i]};
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      traced = std::string_view{value} == "1";
    } else if (flag == "--s") {
      shape.s = std::strtoul(value, nullptr, 10);
    } else if (flag == "--payload") {
      shape.payload = std::strtoul(value, nullptr, 10);
    } else if (flag == "--frames") {
      std::uint64_t* fields[] = {&shape.frames.hello, &shape.frames.gossip,
                                 &shape.frames.pull_request,
                                 &shape.frames.pull_block, &shape.frames.ack,
                                 &shape.frames.summary};
      char* p = argv[i + 1];
      for (auto* field : fields) {
        *field = std::strtoull(p, &p, 10);
        if (*p == ',') ++p;
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (seconds <= 0.0) return usage(argv[0]);

  Result out;
  try {
    if (workload == "sim-coded" || workload == "sim-counter") {
      run_sim(workload == "sim-coded", seed, seconds, traced, out);
    } else if (workload == "cluster-fanout") {
      run_cluster(seed, seconds, traced, out);
    } else if (workload == "replay") {
      // The layer replay alone, for workloads driven out of process.
      replay_layers(shape, out);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", out.json().c_str());
  return 0;
}
