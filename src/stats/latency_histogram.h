#pragma once

/// \file latency_histogram.h
/// Exponential-bucket latency histogram (HDR-histogram style): buckets
/// grow by powers of two, each octave split into 2^kSubBits linear
/// sub-buckets, so the relative quantile error is bounded by
/// 2^-(kSubBits+1) (~0.8% at kSubBits=6) across the full uint64 range —
/// the right shape for latencies, whose interesting values span six
/// orders of magnitude (a loopback pull RTT is microseconds of virtual
/// time; a WAN pull is tens of milliseconds).
///
/// Unlike fixed-width bins over a closed range, it needs no range known
/// up front and never saturates. record() is branch-light integer math — one bit-scan, one add —
/// cheap enough to sit on a live node's pull path unconditionally.
///
/// Values are dimensionless uint64 ticks; the seconds-based helpers
/// store nanoseconds, so virtual-time and wall-clock latencies share
/// one representation (a virtual RTT of 0.002s records as 2'000'000).

#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace icollect::stats {

class LatencyHistogram {
 public:
  /// Sub-bucket resolution: 2^kSubBits linear sub-buckets per octave.
  static constexpr unsigned kSubBits = 6;

  LatencyHistogram() = default;

  void record(std::uint64_t v) noexcept {
    const std::size_t idx = bucket_index(v);
    if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
    ++counts_[idx];
    ++total_;
    if (v > max_) max_ = v;
  }

  /// Record a latency in seconds (stored as whole nanoseconds; negative
  /// values clamp to zero).
  void record_seconds(double s) noexcept {
    record(s > 0.0 ? static_cast<std::uint64_t>(s * 1e9) : 0);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double max_seconds() const noexcept {
    return static_cast<double>(max_) * 1e-9;
  }

  /// Quantile in recorded units: the midpoint of the bucket holding the
  /// q-th sample (exact for values < 2^kSubBits, ≤~0.8% relative error
  /// above), clamped to the observed max. q=1 returns the exact max.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
    ICOLLECT_EXPECTS(q >= 0.0 && q <= 1.0);
    if (total_ == 0) return 0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(total_) + 0.5);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      cum += counts_[i];
      if (counts_[i] > 0 && cum >= target) {
        const std::uint64_t rep = bucket_floor(i) + bucket_width(i) / 2;
        return rep < max_ ? rep : max_;
      }
    }
    return max_;
  }

  [[nodiscard]] double quantile_seconds(double q) const noexcept {
    return static_cast<double>(quantile(q)) * 1e-9;
  }

  /// Fold another histogram's samples into this one.
  void merge(const LatencyHistogram& other) {
    if (other.counts_.size() > counts_.size()) {
      counts_.resize(other.counts_.size(), 0);
    }
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
    if (other.max_ > max_) max_ = other.max_;
  }

  void reset() noexcept {
    for (auto& c : counts_) c = 0;
    total_ = 0;
    max_ = 0;
  }

  // --- bucket geometry (exposed for tests) --------------------------------
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept {
    constexpr std::uint64_t kSub = 1ULL << kSubBits;
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned msb = 63U - static_cast<unsigned>(std::countl_zero(v));
    const std::uint64_t sub = (v >> (msb - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(msb - kSubBits + 1) << kSubBits) + sub);
  }

  /// Smallest value mapping to bucket `idx`.
  [[nodiscard]] static std::uint64_t bucket_floor(std::size_t idx) noexcept {
    constexpr std::size_t kSub = 1ULL << kSubBits;
    if (idx < kSub) return idx;
    const auto block = static_cast<unsigned>(idx >> kSubBits);
    const std::uint64_t sub = idx & (kSub - 1);
    const unsigned msb = block + kSubBits - 1;
    return (1ULL << msb) + (sub << (msb - kSubBits));
  }

  /// Number of distinct values mapping to bucket `idx`.
  [[nodiscard]] static std::uint64_t bucket_width(std::size_t idx) noexcept {
    constexpr std::size_t kSub = 1ULL << kSubBits;
    if (idx < kSub) return 1;
    const auto block = static_cast<unsigned>(idx >> kSubBits);
    return 1ULL << (block + kSubBits - 1 - kSubBits);
  }

 private:
  std::vector<std::uint64_t> counts_;  ///< grows lazily to the max index
  std::uint64_t total_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace icollect::stats
