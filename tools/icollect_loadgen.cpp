/// \file icollect_loadgen.cpp
/// Synthetic-peer load generator: drives ONE ServerNode with tens of
/// thousands of concurrent TCP peers from a single process, to measure
/// how far the epoll transport scales (docs/PERFORMANCE.md;
/// scripts/run_bench.py --node commits the numbers as BENCH_node.json).
///
/// Each synthetic peer is a real connection speaking the real wire
/// protocol — HELLO handshake, then PULL_REQUEST answered with a
/// PULL_BLOCK carrying a freshly random-coded block — but all peers
/// share one transport and one flat state table instead of full
/// PeerNode machinery, so the *generator* stays cheap enough to saturate
/// the server under test.
///
/// Blocks are coded over a finite global segment space (--segments S,
/// one shared origin): the server's bank accumulates rank and decodes
/// exactly S segments, so its O(peers) decode-ACK broadcast happens a
/// bounded number of times. After a segment is ACKed the generator keeps
/// answering pulls with blocks of already-decoded segments (the server
/// counts them stale) — round-trip flow continues indefinitely, which is
/// what the measurement window meters.
///
///   icollect_loadgen --target 127.0.0.1:9100 --peers 10000
///       --backend epoll --segments 64 --duration 30 --measure 10
///
/// Exit 0 iff every peer established+handshook and (when --segments > 0)
/// every segment in the space was ACKed decoded. The one-line JSON
/// summary on stdout is schema "icollect-node-bench/1".

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "coding/coded_block.h"
#include "common/rng.h"
#include "net/epoll_reactor.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "wire/frame.h"
#include "wire/message.h"

#include "cli_args.h"

namespace {

using namespace icollect;

constexpr const char* kSchema = "icollect-node-bench/1";

/// The shared origin id of the synthetic segment space. Arbitrary; only
/// needs to be consistent across all synthetic peers so their blocks
/// pool into the same segments at the server.
constexpr std::uint32_t kLoadgenOrigin = 0x10AD0001U;

void usage(const char* argv0) {
  std::printf(
      "usage: %s --target HOST:PORT [options]\n"
      "  --peers N           concurrent synthetic peers (default 100)\n"
      "  --segments S        global segment space; 0 = never decode\n"
      "                      (default 64)\n"
      "  --segment-size s    blocks per segment, must match the server\n"
      "                      (default 4)\n"
      "  --payload-bytes n   payload per coded block (default 64)\n"
      "  --backend NAME      socket transport; only epoll (default)\n"
      "  --shards N          accepted for compatibility; no effect (the\n"
      "                      reactor runs on the calling thread)\n"
      "  --ramp R            connects initiated per second (default 2000)\n"
      "  --duration T        total wall-clock cap seconds (default 30)\n"
      "  --measure T         measurement window once all peers are up\n"
      "                      (default 5)\n"
      "  --occupancy B       buffered-block count reported in replies\n"
      "                      (default 16)\n"
      "  --seed S            RNG seed (default 1)\n"
      "\n"
      "Prints a one-line JSON summary (schema %s) on stdout.\n",
      argv0, kSchema);
}

struct PeerState {
  wire::FrameDecoder decoder;
  bool hello_received = false;
};

/// The whole generator: one TransportHandler multiplexing every
/// synthetic peer over one shared transport.
class LoadGen final : public net::TransportHandler {
 public:
  LoadGen(net::EpollReactor& transport, std::size_t segment_space,
          std::size_t segment_size, std::size_t payload_bytes,
          std::uint32_t occupancy, std::uint64_t seed)
      : transport_{transport},
        segment_space_{segment_space},
        segment_size_{segment_size},
        payload_bytes_{payload_bytes},
        occupancy_{occupancy},
        rng_{seed} {}

  void on_peer_up(net::NodeId conn) override {
    ++established_;
    auto& state = peers_[conn];
    state.hello_received = false;
    wire::Hello hello;
    hello.role = wire::NodeRole::kPeer;
    hello.node_id = 0x4C470000U + conn;  // unique per connection
    hello.segment_size = static_cast<std::uint16_t>(segment_size_);
    hello.buffer_cap = occupancy_;
    send(conn, wire::Message{hello});
  }

  void on_peer_down(net::NodeId conn) override {
    ++downs_;
    peers_.erase(conn);
  }

  void on_bytes(net::NodeId conn, std::span<const std::uint8_t> bytes) override {
    const auto it = peers_.find(conn);
    if (it == peers_.end()) return;
    PeerState& state = it->second;
    state.decoder.feed(bytes);
    for (;;) {
      auto result = state.decoder.next();
      if (result.status == wire::DecodeStatus::kNeedMore) break;
      if (wire::is_error(result.status)) {
        ++decode_errors_;
        transport_.close_peer(conn);
        peers_.erase(conn);
        return;
      }
      ++frames_received_;
      if (!handle_message(conn, state, std::move(result.message))) {
        return;  // connection torn down mid-drain
      }
    }
  }

  [[nodiscard]] std::size_t established() const noexcept {
    return established_;
  }
  [[nodiscard]] std::size_t downs() const noexcept { return downs_; }
  [[nodiscard]] std::size_t handshakes_ok() const noexcept {
    return handshakes_ok_;
  }
  [[nodiscard]] std::uint64_t frames_sent() const noexcept {
    return frames_sent_;
  }
  [[nodiscard]] std::uint64_t frames_received() const noexcept {
    return frames_received_;
  }
  [[nodiscard]] std::uint64_t pulls_answered() const noexcept {
    return pulls_answered_;
  }
  [[nodiscard]] std::uint64_t acks_received() const noexcept {
    return acks_received_;
  }
  [[nodiscard]] std::uint64_t send_refusals() const noexcept {
    return send_refusals_;
  }
  [[nodiscard]] std::uint64_t decode_errors() const noexcept {
    return decode_errors_;
  }
  [[nodiscard]] std::size_t segments_acked() const noexcept {
    return acked_segments_.size();
  }
  [[nodiscard]] bool goal_reached() const noexcept {
    return segment_space_ == 0 || acked_segments_.size() >= segment_space_;
  }

 private:
  bool handle_message(net::NodeId conn, PeerState& state,
                      wire::Message&& message) {
    if (std::holds_alternative<wire::Hello>(message)) {
      if (!state.hello_received) {
        state.hello_received = true;
        ++handshakes_ok_;
      }
      return true;
    }
    if (const auto* pull = std::get_if<wire::PullRequest>(&message)) {
      wire::PullBlock reply;
      reply.token = pull->token;
      reply.occupancy = occupancy_;
      reply.has_block = segment_space_ > 0;
      if (reply.has_block) reply.block = random_block();
      ++pulls_answered_;
      send(conn, wire::Message{std::move(reply)});
      return true;
    }
    if (const auto* ack = std::get_if<wire::SegmentDecodedAck>(&message)) {
      ++acks_received_;
      if (ack->segment.origin == kLoadgenOrigin &&
          ack->segment.seq < segment_space_) {
        acked_segments_.insert(ack->segment.seq);
      }
      return true;
    }
    if (std::holds_alternative<wire::Bye>(message)) {
      transport_.close_peer(conn);
      peers_.erase(conn);
      return false;
    }
    return true;  // gossip etc.: ignore
  }

  /// A random-coefficient coded block of a uniformly random segment.
  /// Prefers not-yet-ACKed segments so the server's bank keeps gaining
  /// rank; once the space is exhausted any segment serves (stale).
  coding::CodedBlock random_block() {
    std::uint32_t seq;
    if (acked_segments_.size() >= segment_space_) {
      seq = static_cast<std::uint32_t>(rng_.uniform_index(segment_space_));
    } else {
      do {
        seq = static_cast<std::uint32_t>(rng_.uniform_index(segment_space_));
      } while (acked_segments_.count(seq) != 0);
    }
    coding::CodedBlock block;
    block.segment = coding::SegmentId{kLoadgenOrigin, seq};
    block.coefficients.resize(segment_size_);
    bool nonzero = false;
    for (auto& c : block.coefficients) {
      c = static_cast<gf::Element>(rng_.uniform_index(256));
      nonzero = nonzero || c != 0;
    }
    if (!nonzero) {
      block.coefficients[rng_.uniform_index(segment_size_)] =
          static_cast<gf::Element>(1 + rng_.uniform_index(255));
    }
    block.payload.assign(payload_bytes_,
                         static_cast<std::uint8_t>(0xA5U ^ seq));
    return block;
  }

  void send(net::NodeId conn, const wire::Message& message) {
    frame_scratch_.clear();
    wire::encode_frame(message, frame_scratch_);
    if (transport_.send(conn, frame_scratch_)) {
      ++frames_sent_;
    } else {
      ++send_refusals_;
    }
  }

  net::EpollReactor& transport_;
  std::size_t segment_space_;
  std::size_t segment_size_;
  std::size_t payload_bytes_;
  std::uint32_t occupancy_;
  common::Rng rng_;
  std::unordered_map<net::NodeId, PeerState> peers_;
  std::unordered_set<std::uint32_t> acked_segments_;
  std::vector<std::uint8_t> frame_scratch_;
  std::size_t established_ = 0;
  std::size_t downs_ = 0;
  std::size_t handshakes_ok_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t pulls_answered_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t send_refusals_ = 0;
  std::uint64_t decode_errors_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string target;
  std::size_t peers = 100;
  std::size_t segments = 64;
  std::size_t segment_size = 4;
  std::size_t payload_bytes = 64;
  double ramp = 2000.0;
  double duration = 30.0;
  double measure = 5.0;
  std::uint32_t occupancy = 16;
  std::uint64_t seed = 1;

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
    } else if (arg == "--target") {
      target = value("--target");
    } else if (arg == "--peers") {
      peers = count("--peers");
    } else if (arg == "--segments") {
      segments = count("--segments");
    } else if (arg == "--segment-size") {
      segment_size = count("--segment-size");
    } else if (arg == "--payload-bytes") {
      payload_bytes = count("--payload-bytes");
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
    } else if (arg == "--ramp") {
      ramp = real("--ramp");
    } else if (arg == "--duration") {
      duration = real("--duration");
    } else if (arg == "--measure") {
      measure = real("--measure");
    } else if (arg == "--occupancy") {
      occupancy = static_cast<std::uint32_t>(count("--occupancy", 0xFFFFFFFFU));
    } else if (arg == "--seed") {
      seed = count("--seed");
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                   std::string{arg}.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  std::string host;
  std::uint16_t port = 0;
  if (target.empty() || !tools::split_host_port(target, host, port)) {
    std::fprintf(stderr, "%s: need --target HOST:PORT\n", argv[0]);
    usage(argv[0]);
    return 2;
  }
  if (peers == 0 || segment_size == 0 || segment_size > 0xFFFF ||
      ramp <= 0.0 || duration <= 0.0 || measure <= 0.0) {
    std::fprintf(stderr, "%s: invalid parameter values\n", argv[0]);
    return 2;
  }

  net::EpollReactor::Options topts;
  topts.connect_timeout = 5.0;
  topts.connect_retries = 10;  // SYN backlog overflow during the ramp
  topts.retry_backoff = 0.2;
  std::unique_ptr<net::EpollReactor> transport;
  try {
    transport = std::make_unique<net::EpollReactor>(topts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
  LoadGen gen{*transport, segments,     segment_size,
              payload_bytes, occupancy, seed};
  transport->set_handler(&gen);
  std::fprintf(stderr, "loadgen: %zu peers -> %s over epoll\n", peers,
               target.c_str());

  // Ramped connect: initiate at most `ramp` connects per second so the
  // server's accept path sees a storm it can absorb, not a cliff.
  std::size_t started = 0;
  bool measuring = false;
  bool measured = false;
  double measure_start_t = 0.0;
  std::uint64_t frames_sent_0 = 0;
  std::uint64_t frames_recv_0 = 0;
  std::uint64_t pulls_0 = 0;
  double measure_window = 0.0;
  double frames_per_s = 0.0;
  double pull_rt_per_s = 0.0;

  while (transport->now() < duration) {
    const double t = transport->now();
    const auto want = std::min<std::size_t>(
        peers, static_cast<std::size_t>(ramp * t) + 1);
    while (started < want) {
      transport->connect(host, port);
      ++started;
    }
    transport->poll_once(0.005);
    if (!measuring && gen.handshakes_ok() >= peers) {
      measuring = true;
      measure_start_t = transport->now();
      frames_sent_0 = gen.frames_sent();
      frames_recv_0 = gen.frames_received();
      pulls_0 = gen.pulls_answered();
    }
    if (measuring && !measured &&
        transport->now() - measure_start_t >= measure) {
      measure_window = transport->now() - measure_start_t;
      frames_per_s =
          static_cast<double>(gen.frames_sent() - frames_sent_0 +
                              gen.frames_received() - frames_recv_0) /
          measure_window;
      pull_rt_per_s =
          static_cast<double>(gen.pulls_answered() - pulls_0) /
          measure_window;
      measured = true;
    }
    if (measured && gen.goal_reached()) break;
  }
  // Ran out of time mid-window: report the partial window.
  if (measuring && !measured) {
    measure_window = transport->now() - measure_start_t;
    if (measure_window > 0.0) {
      frames_per_s =
          static_cast<double>(gen.frames_sent() - frames_sent_0 +
                              gen.frames_received() - frames_recv_0) /
          measure_window;
      pull_rt_per_s = static_cast<double>(gen.pulls_answered() - pulls_0) /
                      measure_window;
    }
    measured = true;
  }

  const bool success =
      gen.handshakes_ok() >= peers && gen.goal_reached() && measured;

  obs::JsonObject out;
  out.field_str("schema", kSchema);
  out.field_str("backend", "epoll");
  out.field("conns_target", peers);
  out.field("conns_established", gen.established());
  out.field("conns_down", gen.downs());
  out.field("handshakes_ok", gen.handshakes_ok());
  out.field("frames_sent", gen.frames_sent());
  out.field("frames_received", gen.frames_received());
  out.field("pulls_answered", gen.pulls_answered());
  out.field("acks_received", gen.acks_received());
  out.field("send_refusals", gen.send_refusals());
  out.field("decode_errors", gen.decode_errors());
  out.field("segments_total", segments);
  out.field("segments_acked", gen.segments_acked());
  out.field("goal_reached", gen.goal_reached());
  out.field("measure_window_s", measure_window);
  out.field("frames_per_s", frames_per_s);
  out.field("pull_round_trips_per_s", pull_rt_per_s);
  out.field("duration_s", transport->now());
  // Transport-side counters (the epoll.* inventory) nested verbatim.
  obs::MetricsRegistry registry;
  transport->attach_metrics(registry, "epoll.");
  obs::JsonObject tstats;
  registry.for_each_sample([&tstats](std::string_view name, double value) {
    tstats.field(name, value);
  });
  out.field_raw("transport", tstats.str());
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);

  std::fprintf(stderr,
               "loadgen: established=%zu/%zu handshakes=%zu pulls=%llu "
               "acked=%zu/%zu rt/s=%.0f %s\n",
               gen.established(), peers, gen.handshakes_ok(),
               static_cast<unsigned long long>(gen.pulls_answered()),
               gen.segments_acked(), segments, pull_rt_per_s,
               success ? "OK" : "FAIL");
  return success ? 0 : 1;
}
