#pragma once

/// \file direct_collector.h
/// The traditional baseline of Fig. 1(a): logging servers pull vital
/// statistics *directly* from peers, bounded by aggregate server
/// bandwidth c_s · N_s. Each peer accumulates its own original blocks in
/// a local report queue; a block is only safe once a server has
/// downloaded it. Consequences the paper motivates with:
///   - when the instantaneous generation rate exceeds server capacity the
///     backlog grows, report queues overflow, and data is dropped;
///   - when a peer departs, its entire undelivered queue is permanently
///     lost ("statistics from departed peers may be the most useful...").
///
/// The baseline shares the simulation kernel and the churn/arrival
/// machinery with the indirect engine so comparisons are apples-to-apples.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "obs/profiler.h"
#include "p2p/config.h"
#include "p2p/metrics.h"
#include "sim/poisson_process.h"
#include "sim/simulator.h"
#include "stats/summary.h"
#include "stats/time_series.h"
#include "workload/generators.h"

namespace icollect::p2p {

/// What to do when a peer's report queue is full.
enum class OverflowPolicy {
  kDropNewest,  ///< refuse fresh measurements (queue keeps oldest)
  kDropOldest,  ///< overwrite the oldest pending report (ring-buffer logs)
};

struct DirectCollectorMetrics {
  std::uint64_t blocks_generated = 0;
  std::uint64_t blocks_collected = 0;
  std::uint64_t blocks_dropped_overflow = 0;
  std::uint64_t blocks_lost_to_churn = 0;
  std::uint64_t peers_departed = 0;
  std::uint64_t pull_attempts = 0;
  std::uint64_t idle_pulls = 0;  ///< pull found every queue empty
  stats::Summary delay;          ///< generation → server download
  stats::TimeWeighted backlog;   ///< total queued blocks network-wide
  stats::RateEstimator collected_window;
  stats::RateEstimator generated_window;

  void reset_measurement_window(double now) {
    collected_window.reset_window(now);
    generated_window.reset_window(now);
    backlog.reset_window(now);
    delay.reset();
  }
};

class DirectCollector {
 public:
  /// Uses these ProtocolConfig fields: num_peers, lambda, buffer_cap,
  /// num_servers, server_rate, churn, seed. (Coding/gossip fields are
  /// meaningless for the baseline and ignored.)
  explicit DirectCollector(ProtocolConfig cfg,
                           OverflowPolicy policy = OverflowPolicy::kDropNewest);

  DirectCollector(const DirectCollector&) = delete;
  DirectCollector& operator=(const DirectCollector&) = delete;

  /// Optional time-varying per-peer generation rate; when set it
  /// overrides the constant λ (used by the flash-crowd experiments).
  /// The profile object must outlive the collector.
  void set_arrival_profile(const workload::ArrivalProfile* profile);

  /// Attach (or detach, with nullptr) a wall-clock profiler: the event
  /// handlers run under "direct.generate" / "direct.pull" /
  /// "direct.depart" scopes. Single null check per event when detached.
  void set_profiler(obs::Profiler* profiler);

  void run_until(sim::Time t);
  void warm_up(sim::Time t);

  [[nodiscard]] sim::Time now() const noexcept { return sim_.now(); }
  [[nodiscard]] const DirectCollectorMetrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const ProtocolConfig& config() const noexcept { return cfg_; }

  /// Collected original blocks per unit time over the window.
  [[nodiscard]] double throughput() const {
    return metrics_.collected_window.rate(sim_.now());
  }
  /// Normalized by aggregate demand N·λ.
  [[nodiscard]] double normalized_throughput() const;
  /// Fraction of generated blocks (lifetime) that were dropped or lost.
  [[nodiscard]] double loss_fraction() const;
  [[nodiscard]] double mean_delay() const { return metrics_.delay.mean(); }
  /// Current total backlog across all peers.
  [[nodiscard]] std::size_t backlog_size() const noexcept {
    return total_backlog_;
  }

  /// Recovery of departed peers' data. In the direct scheme a departing
  /// peer's undelivered queue is gone forever, so this only counts blocks
  /// the servers pulled before the departure.
  [[nodiscard]] DepartedDataStats departed_data_stats() const noexcept {
    return departed_;
  }

  /// Enable "last words" accounting: of each departing peer's blocks
  /// generated within `window` time units before its departure, how many
  /// had the servers already pulled? (FIFO queues deliver oldest-first,
  /// so a loaded system loses exactly these freshest records.) Call
  /// before running.
  void set_last_words_window(double window);
  [[nodiscard]] DepartedDataStats last_words_stats() const noexcept {
    return last_words_;
  }

 private:
  struct PeerQueue {
    std::deque<sim::Time> pending;  ///< generation time of each block
    std::uint64_t generated_this_incarnation = 0;
    std::uint64_t collected_this_incarnation = 0;
    /// Recent generations within the last-words window (pruned lazily):
    /// time plus whether the block was dropped on arrival (queue full).
    std::deque<std::pair<sim::Time, bool>> recent_generations;
  };

  void do_generate(std::size_t slot);
  void do_pull();
  void do_depart(std::size_t slot);
  void schedule_next_generation(std::size_t slot);
  void backlog_changed(std::size_t slot, std::size_t before);
  void mark_non_empty(std::size_t slot);
  void mark_empty(std::size_t slot);

  ProtocolConfig cfg_;
  OverflowPolicy policy_;
  sim::Simulator sim_;
  common::Rng rng_;
  const workload::ArrivalProfile* profile_ = nullptr;
  std::vector<PeerQueue> queues_;
  DirectCollectorMetrics metrics_;
  std::vector<std::unique_ptr<sim::PoissonProcess>> server_pullers_;
  std::vector<std::size_t> non_empty_slots_;
  std::vector<std::size_t> non_empty_pos_;  // slot -> index+1 (0 = absent)
  std::size_t total_backlog_ = 0;
  obs::Profiler::Timer* prof_generate_ = nullptr;
  obs::Profiler::Timer* prof_pull_ = nullptr;
  obs::Profiler::Timer* prof_depart_ = nullptr;
  DepartedDataStats departed_;
  double last_words_window_ = 0.0;  ///< 0 = disabled
  DepartedDataStats last_words_;
};

}  // namespace icollect::p2p
