#include "workload/generators.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace icollect::workload {

namespace {

/// Clamped AR(1) step toward `target` with relaxation `alpha` and additive
/// noise of scale `noise`.
double ar1(double x, double target, double alpha, double noise, double lo,
           double hi, common::Rng& rng) {
  const double eps = (rng.uniform() - 0.5) * 2.0 * noise;
  return std::clamp(x + alpha * (target - x) + eps, lo, hi);
}

}  // namespace

MeasurementModel::MeasurementModel(std::uint32_t peer, std::uint16_t channel,
                                   bool degrading)
    : peer_{peer}, channel_{channel}, degrading_{degrading} {}

StatsRecord MeasurementModel::sample(double now, common::Rng& rng) {
  if (degrading_) {
    // Quality collapse: buffer drains, loss climbs, partners drop off.
    buffer_level_ = ar1(buffer_level_, 0.0, 0.25, 0.5, 0.0, 30.0, rng);
    download_kbps_ = ar1(download_kbps_, 120.0, 0.2, 20.0, 0.0, 1000.0, rng);
    continuity_ = ar1(continuity_, 0.55, 0.2, 0.02, 0.0, 1.0, rng);
    loss_ = ar1(loss_, 0.35, 0.2, 0.02, 0.0, 1.0, rng);
    rtt_ms_ = ar1(rtt_ms_, 400.0, 0.15, 25.0, 1.0, 2000.0, rng);
    partners_ = ar1(partners_, 2.0, 0.2, 0.8, 0.0, 64.0, rng);
  } else {
    buffer_level_ = ar1(buffer_level_, 12.0, 0.1, 0.8, 0.0, 30.0, rng);
    download_kbps_ = ar1(download_kbps_, 420.0, 0.1, 15.0, 0.0, 1000.0, rng);
    continuity_ = ar1(continuity_, 0.99, 0.1, 0.005, 0.0, 1.0, rng);
    loss_ = ar1(loss_, 0.01, 0.1, 0.005, 0.0, 1.0, rng);
    rtt_ms_ = ar1(rtt_ms_, 80.0, 0.1, 8.0, 1.0, 2000.0, rng);
    partners_ = ar1(partners_, 12.0, 0.1, 1.0, 0.0, 64.0, rng);
  }
  upload_kbps_ = ar1(upload_kbps_, download_kbps_ * 0.9, 0.2, 15.0, 0.0,
                     1000.0, rng);

  StatsRecord r;
  r.peer = peer_;
  r.timestamp = now;
  r.buffer_level = static_cast<float>(buffer_level_);
  r.download_rate_kbps = static_cast<float>(download_kbps_);
  r.upload_rate_kbps = static_cast<float>(upload_kbps_);
  r.playback_continuity = static_cast<float>(continuity_);
  r.loss_rate = static_cast<float>(loss_);
  r.rtt_ms = static_cast<float>(rtt_ms_);
  r.partner_count = static_cast<std::uint16_t>(std::lround(partners_));
  r.channel_id = channel_;
  return r;
}

DiurnalProfile::DiurnalProfile(double base, double amplitude, double period)
    : base_{base}, amplitude_{amplitude}, period_{period} {
  ICOLLECT_EXPECTS(base >= 0.0);
  ICOLLECT_EXPECTS(amplitude >= 0.0 && amplitude <= 1.0);
  ICOLLECT_EXPECTS(period > 0.0);
}

double DiurnalProfile::rate(double t) const {
  return base_ *
         (1.0 + amplitude_ *
                    std::sin(2.0 * std::numbers::pi * t / period_));
}

double next_arrival(const ArrivalProfile& profile, double now,
                    common::Rng& rng) {
  const double cap = profile.max_rate();
  ICOLLECT_EXPECTS(cap > 0.0);
  double t = now;
  // Lewis-Shedler thinning: candidate events at the bounding rate are
  // accepted with probability rate(t)/cap.
  for (;;) {
    t += rng.exponential(cap);
    if (rng.uniform() * cap <= profile.rate(t)) return t;
  }
}

}  // namespace icollect::workload
