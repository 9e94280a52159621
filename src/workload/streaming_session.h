#pragma once

/// \file streaming_session.h
/// A compact P2P live-streaming session simulator — the *application*
/// whose vital statistics the collection protocol gathers (the paper's
/// context is UUSee-style commercial live streaming).
///
/// Model: a source emits media chunks at a constant rate. Peers maintain
/// a random partner set and, at their request rate, pull a missing chunk
/// (rarest-first within their exchange window) from a random partner
/// that has it and has upload tokens left this second. Playback starts
/// after a startup delay and advances at the chunk rate; a chunk missing
/// at its play time is a playback miss (continuity loss). Every peer can
/// emit a StatsRecord at any time — buffer level, rates, continuity,
/// loss, partner count — measured from the actual session dynamics
/// rather than a statistical model.
///
/// The simulator is deliberately small (single channel, static
/// membership, token-bucket uplinks) but every reported metric is
/// *measured*, making it the realistic record generator behind
/// CollectionSystem::use_streaming_session_payloads-style workflows
/// (see workload::SessionRecordFeed).

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "sim/poisson_process.h"
#include "sim/simulator.h"
#include "stats/summary.h"
#include "workload/stats_record.h"

namespace icollect::workload {

struct StreamingConfig {
  std::size_t num_peers = 50;
  double chunk_rate = 10.0;     ///< chunks per unit time (media rate)
  double chunk_kbits = 40.0;    ///< size of one chunk, for kbps metrics
  std::size_t partners = 6;     ///< partner-set size per peer
  double request_rate = 30.0;   ///< chunk-pull attempts per peer per time
  double upload_chunks = 12.0;  ///< per-peer upload budget, chunks per time
  double source_upload_chunks = 40.0;  ///< source's serving budget
  double startup_delay = 2.0;   ///< playback lag behind the source edge
  std::size_t window = 60;      ///< exchange window, in chunks
  std::uint64_t seed = 1;

  void validate() const;
};

class StreamingSession {
 public:
  explicit StreamingSession(StreamingConfig cfg);

  StreamingSession(const StreamingSession&) = delete;
  StreamingSession& operator=(const StreamingSession&) = delete;

  /// Advance the session to absolute virtual time `t`.
  void run_until(sim::Time t);

  [[nodiscard]] sim::Time now() const noexcept { return sim_.now(); }
  [[nodiscard]] const StreamingConfig& config() const noexcept {
    return cfg_;
  }

  /// Measure peer `p`'s vital statistics right now (the record the
  /// collection protocol would package into a segment).
  [[nodiscard]] StatsRecord measure(std::size_t peer) const;

  /// Session-wide aggregates so far.
  [[nodiscard]] double mean_continuity() const;
  [[nodiscard]] std::uint64_t chunks_emitted() const noexcept {
    return source_edge_;
  }
  [[nodiscard]] std::uint64_t total_transfers() const noexcept {
    return transfers_;
  }
  [[nodiscard]] std::uint64_t total_misses() const noexcept {
    return playback_misses_;
  }

  /// Throttle one peer's uplink (e.g. to create the degrading peers a
  /// postmortem would look for). Factor 0 disables its uploads.
  void throttle_peer(std::size_t peer, double upload_factor);

 private:
  struct PeerState {
    // Chunk availability within the sliding window, indexed by chunk id.
    std::deque<bool> have;         // have[i] => chunk (window_base + i)
    std::uint64_t window_base = 0; // oldest chunk id tracked
    std::uint64_t play_next = 0;   // next chunk id to play
    bool playing = false;
    std::vector<std::size_t> partners;
    double upload_factor = 1.0;
    // token bucket for uploads (refilled continuously)
    double upload_tokens = 0.0;
    sim::Time tokens_updated = 0.0;
    // measured counters
    std::uint64_t played = 0;
    std::uint64_t missed = 0;
    std::uint64_t downloaded = 0;
    std::uint64_t uploaded = 0;
    std::uint64_t failed_requests = 0;
    // sliding-rate bookkeeping for kbps metrics
    std::uint64_t downloaded_at_mark = 0;
    std::uint64_t uploaded_at_mark = 0;
    sim::Time mark = 0.0;
  };

  void do_source_emit();
  void do_request(std::size_t peer);
  void do_playback(std::size_t peer);
  [[nodiscard]] bool peer_has(const PeerState& p, std::uint64_t chunk) const;
  void peer_receive(PeerState& p, std::uint64_t chunk);
  void advance_window(PeerState& p);
  [[nodiscard]] bool take_upload_token(PeerState& p, double budget);

  StreamingConfig cfg_;
  sim::Simulator sim_;
  common::Rng rng_;
  std::vector<PeerState> peers_;
  std::vector<std::unique_ptr<sim::PoissonProcess>> requesters_;
  std::uint64_t source_edge_ = 0;  ///< chunks emitted so far
  // Source availability is implicit: the source has every emitted chunk.
  double source_tokens_ = 0.0;
  sim::Time source_tokens_updated_ = 0.0;
  std::uint64_t transfers_ = 0;
  std::uint64_t playback_misses_ = 0;
};

/// Bridges a pre-run streaming session to the collection protocol: feed
/// per-peer record streams in time order, so segment payloads carry the
/// session's real measurements.
class SessionRecordFeed {
 public:
  /// Sample each peer's record every `interval` over [0, horizon] from a
  /// freshly run session.
  SessionRecordFeed(StreamingSession& session, double horizon,
                    double interval);

  /// Next up-to-`count` records for `peer` with timestamp <= `now`
  /// (consumed in order; fewer are returned near the horizon).
  [[nodiscard]] std::vector<StatsRecord> take(std::size_t peer, double now,
                                              std::size_t count);

  [[nodiscard]] std::size_t remaining(std::size_t peer) const;

 private:
  std::vector<std::deque<StatsRecord>> queues_;
};

}  // namespace icollect::workload
