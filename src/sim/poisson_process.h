#pragma once

/// \file poisson_process.h
/// A recurring exponential timer: fires a callback at the events of a
/// Poisson process of a given (adjustable) rate on a Simulator.
///
/// Each of the paper's per-entity processes is one of these:
///   - per-peer segment injection at rate λ/s,
///   - per-peer gossip transmission at rate μ,
///   - per-server collection pulls at rate c_s,
/// (TTL expiry and churn lifetimes are one-shot exponentials and use the
/// Simulator directly).

#include <functional>
#include <utility>

#include "common/assert.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace icollect::sim {

class PoissonProcess {
 public:
  using Callback = std::function<void()>;

  /// Create a stopped process. `rate` must be > 0 when started; the
  /// callback is invoked at each event of the process.
  PoissonProcess(Simulator& simulator, common::Rng& rng, double rate,
                 Callback callback)
      : sim_{&simulator},
        rng_{&rng},
        rate_{rate},
        callback_{std::move(callback)} {
    ICOLLECT_EXPECTS(rate_ >= 0.0);
    ICOLLECT_EXPECTS(callback_ != nullptr);
  }

  PoissonProcess(const PoissonProcess&) = delete;
  PoissonProcess& operator=(const PoissonProcess&) = delete;

  ~PoissonProcess() { stop(); }

  /// Begin firing. Idempotent. No-op if rate is zero.
  void start() {
    if (running_ || rate_ <= 0.0) return;
    running_ = true;
    arm();
  }

  /// Stop firing; any armed event is cancelled. Idempotent.
  void stop() {
    running_ = false;
    if (pending_ != kInvalidEventId) {
      sim_->cancel(pending_);
      pending_ = kInvalidEventId;
    }
  }

  /// Change the rate. Takes effect from the *next* arming (exponential
  /// memorylessness makes rescheduling the in-flight gap optional; we
  /// re-arm immediately for responsiveness when the process is running).
  void set_rate(double rate) {
    ICOLLECT_EXPECTS(rate >= 0.0);
    rate_ = rate;
    if (running_) {
      stop();
      start();
    }
  }

  [[nodiscard]] double rate() const noexcept { return rate_; }
  [[nodiscard]] bool running() const noexcept { return running_; }

 private:
  void arm() {
    pending_ = sim_->schedule_after(rng_->exponential(rate_), [this] {
      pending_ = kInvalidEventId;
      // Re-arm before invoking so the callback may stop() us cleanly.
      if (running_) arm();
      callback_();
    });
  }

  Simulator* sim_;
  common::Rng* rng_;
  double rate_;
  Callback callback_;
  bool running_ = false;
  EventId pending_ = kInvalidEventId;
};

}  // namespace icollect::sim
