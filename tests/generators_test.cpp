/// Workload-generation tests: measurement models and arrival profiles.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "workload/generators.h"

namespace icollect::workload {
namespace {

TEST(MeasurementModel, HealthyRangesAreSane) {
  common::Rng rng{61};
  MeasurementModel m{7, 2};
  for (int i = 0; i < 500; ++i) {
    const StatsRecord r = m.sample(i * 0.1, rng);
    EXPECT_EQ(r.peer, 7u);
    EXPECT_EQ(r.channel_id, 2u);
    EXPECT_GE(r.buffer_level, 0.0F);
    EXPECT_LE(r.buffer_level, 30.0F);
    EXPECT_GE(r.playback_continuity, 0.0F);
    EXPECT_LE(r.playback_continuity, 1.0F);
    EXPECT_GE(r.loss_rate, 0.0F);
    EXPECT_LE(r.loss_rate, 1.0F);
    EXPECT_GE(r.download_rate_kbps, 0.0F);
    EXPECT_LE(r.rtt_ms, 2000.0F);
  }
}

TEST(MeasurementModel, HealthyPeerStaysHealthyOnAverage) {
  common::Rng rng{62};
  MeasurementModel m{1};
  double continuity = 0.0;
  constexpr int kN = 400;
  for (int i = 0; i < kN; ++i) {
    continuity += m.sample(i * 0.1, rng).playback_continuity;
  }
  EXPECT_GT(continuity / kN, 0.9);
}

TEST(MeasurementModel, DegradingPeerCollapses) {
  common::Rng rng{63};
  MeasurementModel m{1, 0, /*degrading=*/true};
  EXPECT_TRUE(m.degrading());
  StatsRecord last;
  for (int i = 0; i < 200; ++i) last = m.sample(i * 0.1, rng);
  EXPECT_LT(last.playback_continuity, 0.8F);
  EXPECT_GT(last.loss_rate, 0.1F);
  EXPECT_LT(last.buffer_level, 5.0F);
}

TEST(MeasurementModel, SwitchingRegimes) {
  common::Rng rng{64};
  MeasurementModel m{1};
  for (int i = 0; i < 100; ++i) (void)m.sample(i * 0.1, rng);
  m.set_degrading(true);
  StatsRecord last;
  for (int i = 100; i < 300; ++i) last = m.sample(i * 0.1, rng);
  EXPECT_GT(last.loss_rate, 0.1F);
}

TEST(ConstantProfile, RateIsConstant) {
  const ConstantProfile p{8.0};
  EXPECT_DOUBLE_EQ(p.rate(0.0), 8.0);
  EXPECT_DOUBLE_EQ(p.rate(1e6), 8.0);
  EXPECT_DOUBLE_EQ(p.max_rate(), 8.0);
}

TEST(FlashCrowdProfile, BurstWindow) {
  const FlashCrowdProfile p{2.0, 10.0, 5.0, 8.0};
  EXPECT_DOUBLE_EQ(p.rate(4.9), 2.0);
  EXPECT_DOUBLE_EQ(p.rate(5.0), 20.0);
  EXPECT_DOUBLE_EQ(p.rate(7.9), 20.0);
  EXPECT_DOUBLE_EQ(p.rate(8.0), 2.0);
  EXPECT_DOUBLE_EQ(p.max_rate(), 20.0);
}

TEST(FlashCrowdProfile, InvalidParamsViolateContract) {
  EXPECT_THROW((FlashCrowdProfile{2.0, 0.5, 0.0, 1.0}),
               icollect::ContractViolation);
  EXPECT_THROW((FlashCrowdProfile{2.0, 2.0, 5.0, 5.0}),
               icollect::ContractViolation);
}

TEST(DiurnalProfile, OscillatesWithinBounds) {
  const DiurnalProfile p{10.0, 0.5, 24.0};
  double lo = 1e9;
  double hi = -1e9;
  for (double t = 0.0; t < 48.0; t += 0.25) {
    const double r = p.rate(t);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
    EXPECT_LE(r, p.max_rate() + 1e-12);
    EXPECT_GE(r, 10.0 * 0.5 - 1e-12);
  }
  EXPECT_NEAR(hi, 15.0, 0.05);
  EXPECT_NEAR(lo, 5.0, 0.05);
}

TEST(NextArrival, ConstantProfileMatchesExponential) {
  common::Rng rng{65};
  const ConstantProfile p{5.0};
  double t = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double next = next_arrival(p, t, rng);
    ASSERT_GT(next, t);
    t = next;
  }
  // kN arrivals at rate 5 take ≈ kN/5 time.
  EXPECT_NEAR(t, kN / 5.0, kN / 5.0 * 0.05);
}

TEST(NextArrival, ThinningTracksBurst) {
  common::Rng rng{66};
  const FlashCrowdProfile p{1.0, 20.0, 10.0, 11.0};
  // Count arrivals in [0,10) (rate 1) vs [10,11) (rate 20).
  int before = 0;
  int burst = 0;
  double t = 0.0;
  while (t < 12.0) {
    t = next_arrival(p, t, rng);
    if (t < 10.0) {
      ++before;
    } else if (t < 11.0) {
      ++burst;
    }
  }
  EXPECT_NEAR(before, 10, 12);  // ~Poisson(10)
  EXPECT_NEAR(burst, 20, 18);   // ~Poisson(20)
  EXPECT_GT(burst, before / 2);
}

}  // namespace
}  // namespace icollect::workload
