#pragma once

/// \file generators.h
/// Synthetic workload generation: per-peer measurement evolution and
/// time-varying traffic profiles.
///
/// MeasurementModel produces plausible streaming vital statistics per
/// peer (AR(1)-style drift around healthy operating points, with an
/// optional "degrading" regime — the paper observes that "peers tend to
/// leave soon after the quality degrades", which is exactly why losing a
/// departing peer's last reports hurts diagnosis).
///
/// ArrivalProfile describes a time-varying block-generation rate λ(t);
/// FlashCrowdProfile reproduces the Sec. 1 motivation (a surge of peer
/// arrivals multiplying the reporting load for a bounded interval).

#include <memory>

#include "common/assert.h"
#include "common/rng.h"
#include "workload/stats_record.h"

namespace icollect::workload {

/// Evolving per-peer streaming measurements.
class MeasurementModel {
 public:
  /// `degrading` peers trend toward empty buffers and high loss.
  explicit MeasurementModel(std::uint32_t peer, std::uint16_t channel = 0,
                            bool degrading = false);

  /// Advance internal state to `now` and emit a record.
  [[nodiscard]] StatsRecord sample(double now, common::Rng& rng);

  /// Switch the peer into the degrading regime (e.g. when its simulated
  /// lifetime is about to expire).
  void set_degrading(bool degrading) noexcept { degrading_ = degrading; }
  [[nodiscard]] bool degrading() const noexcept { return degrading_; }

 private:
  std::uint32_t peer_;
  std::uint16_t channel_;
  bool degrading_;
  // AR(1) state, initialized to healthy operating points.
  double buffer_level_ = 12.0;       // seconds of media
  double download_kbps_ = 420.0;     // ~ a 400 kbps stream + overhead
  double upload_kbps_ = 380.0;
  double continuity_ = 0.99;
  double loss_ = 0.01;
  double rtt_ms_ = 80.0;
  double partners_ = 12.0;
};

/// Time-varying block generation rate λ(t) per peer.
class ArrivalProfile {
 public:
  virtual ~ArrivalProfile() = default;
  /// Instantaneous per-peer rate at time t (blocks / unit time).
  [[nodiscard]] virtual double rate(double t) const = 0;
  /// An upper bound on rate(t) over all t, for thinning-based sampling.
  [[nodiscard]] virtual double max_rate() const = 0;
};

/// Constant rate λ — the paper's baseline assumption.
class ConstantProfile final : public ArrivalProfile {
 public:
  explicit ConstantProfile(double lambda) : lambda_{lambda} {
    ICOLLECT_EXPECTS(lambda >= 0.0);
  }
  [[nodiscard]] double rate(double) const override { return lambda_; }
  [[nodiscard]] double max_rate() const override { return lambda_; }

 private:
  double lambda_;
};

/// Baseline rate with a multiplicative burst on [burst_start, burst_end):
/// the flash-crowd scenario of Sec. 1.
class FlashCrowdProfile final : public ArrivalProfile {
 public:
  FlashCrowdProfile(double base, double burst_multiplier, double burst_start,
                    double burst_end)
      : base_{base},
        mult_{burst_multiplier},
        start_{burst_start},
        end_{burst_end} {
    ICOLLECT_EXPECTS(base >= 0.0);
    ICOLLECT_EXPECTS(burst_multiplier >= 1.0);
    ICOLLECT_EXPECTS(burst_end > burst_start);
  }
  [[nodiscard]] double rate(double t) const override {
    return (t >= start_ && t < end_) ? base_ * mult_ : base_;
  }
  [[nodiscard]] double max_rate() const override { return base_ * mult_; }
  [[nodiscard]] double burst_start() const noexcept { return start_; }
  [[nodiscard]] double burst_end() const noexcept { return end_; }

 private:
  double base_;
  double mult_;
  double start_;
  double end_;
};

/// Smooth sinusoidal load (diurnal pattern): λ(t) = base * (1 + a sin(ωt)).
class DiurnalProfile final : public ArrivalProfile {
 public:
  DiurnalProfile(double base, double amplitude, double period);
  [[nodiscard]] double rate(double t) const override;
  [[nodiscard]] double max_rate() const override {
    return base_ * (1.0 + amplitude_);
  }

 private:
  double base_;
  double amplitude_;
  double period_;
};

/// Multiply another profile's rate by a constant factor — e.g. 1/s to
/// turn a block-rate profile into the matching segment-rate process.
/// Holds a reference; the base profile must outlive the adapter.
class ScaledProfile final : public ArrivalProfile {
 public:
  ScaledProfile(const ArrivalProfile& base, double factor)
      : base_{base}, factor_{factor} {
    ICOLLECT_EXPECTS(factor >= 0.0);
  }
  [[nodiscard]] double rate(double t) const override {
    return factor_ * base_.rate(t);
  }
  [[nodiscard]] double max_rate() const override {
    return factor_ * base_.max_rate();
  }

 private:
  const ArrivalProfile& base_;
  double factor_;
};

/// Sample the next event time of a nonhomogeneous Poisson process with
/// rate profile `profile`, starting from `now`, by Lewis-Shedler thinning.
[[nodiscard]] double next_arrival(const ArrivalProfile& profile, double now,
                                  common::Rng& rng);

}  // namespace icollect::workload
