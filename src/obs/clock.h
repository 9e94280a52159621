#pragma once

/// \file clock.h
/// The clock seam of the telemetry layer. PR 1 built Snapshotter and
/// Profiler against the simulator's virtual time, threaded through every
/// call as an explicit `now` argument; the live runtime (src/net/,
/// src/node/) runs on the wall clock. A ClockSource abstracts "what time
/// is it" so the same sampler code serves both worlds:
///
///  - WallClock      steady_clock seconds since construction — the live
///                   tools' time base (matches EpollReactor::now()).
///  - ManualClock    a number the owner sets/advances — virtual time for
///                   tests and deterministic harnesses.
///  - CallbackClock  adapts any existing time base (a TimerWheel, a
///                   LoopbackNet hub) without coupling obs to net.
///
/// now() is seconds as a double (every engine here speaks seconds);
/// now_ns() exists for the Profiler, whose scopes need nanosecond
/// resolution — WallClock answers it from the raw steady_clock reading
/// so no precision is laundered through a double.

#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/assert.h"

namespace icollect::obs {

class ClockSource {
 public:
  virtual ~ClockSource() = default;

  /// Seconds since this clock's epoch.
  [[nodiscard]] virtual double now() const = 0;

  /// Nanoseconds since the epoch. The default derives it from now();
  /// high-resolution clocks should override.
  [[nodiscard]] virtual std::uint64_t now_ns() const {
    const double s = now();
    return s > 0.0 ? static_cast<std::uint64_t>(s * 1e9) : 0;
  }
};

/// Monotonic wall clock: steady_clock seconds since construction.
class WallClock final : public ClockSource {
 public:
  WallClock() : epoch_{std::chrono::steady_clock::now()} {}

  [[nodiscard]] double now() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  [[nodiscard]] std::uint64_t now_ns() const override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

/// Virtual time under the owner's control; never advances on its own.
class ManualClock final : public ClockSource {
 public:
  explicit ManualClock(double start = 0.0) : t_{start} {}

  void set(double t) noexcept {
    ICOLLECT_EXPECTS(t >= t_);
    t_ = t;
  }
  void advance(double dt) noexcept {
    ICOLLECT_EXPECTS(dt >= 0.0);
    t_ += dt;
  }

  [[nodiscard]] double now() const override { return t_; }

 private:
  double t_;
};

/// Adapts an existing time base (TimerWheel::now, EpollReactor::now,
/// LoopbackNet::now) into the obs layer without a dependency edge.
class CallbackClock final : public ClockSource {
 public:
  using NowFn = std::function<double()>;

  explicit CallbackClock(NowFn fn) : fn_{std::move(fn)} {
    ICOLLECT_EXPECTS(fn_ != nullptr);
  }

  [[nodiscard]] double now() const override { return fn_(); }

 private:
  NowFn fn_;
};

}  // namespace icollect::obs
