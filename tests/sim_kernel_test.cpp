/// Discrete-event kernel tests: event queue ordering/cancellation, the
/// simulator clock, and Poisson process timers.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/poisson_process.h"
#include "sim/simulator.h"

namespace icollect::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtEqualTimes) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.is_pending(id));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.is_pending(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel is a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  (void)q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, SizeExcludesCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.peek_time(), 2.0);  // cancelled head is skipped
}

TEST(EventQueue, NullActionViolatesContract) {
  EventQueue q;
  EXPECT_THROW((void)q.schedule(1.0, nullptr), icollect::ContractViolation);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Time> seen;
  sim.schedule_at(2.5, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(0.5, [&] { seen.push_back(sim.now()); });
  sim.run_until(10.0);
  EXPECT_EQ(seen, (std::vector<Time>{0.5, 2.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  bool late_fired = false;
  sim.schedule_at(5.0, [&] { late_fired = true; });
  sim.run_until(4.0);
  EXPECT_FALSE(late_fired);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
  sim.run_until(6.0);
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, SchedulingInThePastViolatesContract) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.run_until(2.0);
  EXPECT_THROW((void)sim.schedule_at(1.5, [] {}),
               icollect::ContractViolation);
  EXPECT_THROW((void)sim.schedule_after(-0.1, [] {}),
               icollect::ContractViolation);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) sim.schedule_after(1.0, step);
  };
  sim.schedule_after(1.0, step);
  sim.run_until(100.0);
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, CancelledEventNotExecuted) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_after(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.is_pending(id));
  sim.cancel(id);
  sim.run_until(5.0);
  EXPECT_FALSE(ran);
}

TEST(Simulator, RunEventsBounded) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i + 1.0, [] {});
  EXPECT_EQ(sim.run_events(4), 4u);
  EXPECT_EQ(sim.pending_events(), 6u);
}

TEST(PoissonProcess, EmpiricalRateMatches) {
  Simulator sim;
  common::Rng rng{77};
  std::size_t fires = 0;
  PoissonProcess proc{sim, rng, 5.0, [&] { ++fires; }};
  proc.start();
  sim.run_until(2000.0);
  const double rate = static_cast<double>(fires) / 2000.0;
  EXPECT_NEAR(rate, 5.0, 0.2);  // ±4σ ≈ ±0.14
}

TEST(PoissonProcess, StopHalts) {
  Simulator sim;
  common::Rng rng{78};
  std::size_t fires = 0;
  PoissonProcess proc{sim, rng, 10.0, [&] { ++fires; }};
  proc.start();
  sim.run_until(10.0);
  const std::size_t at_stop = fires;
  EXPECT_GT(at_stop, 0u);
  proc.stop();
  sim.run_until(20.0);
  EXPECT_EQ(fires, at_stop);
}

TEST(PoissonProcess, StartIsIdempotent) {
  Simulator sim;
  common::Rng rng{79};
  std::size_t fires = 0;
  PoissonProcess proc{sim, rng, 100.0, [&] { ++fires; }};
  proc.start();
  proc.start();  // must not double-arm
  sim.run_until(1.0);
  EXPECT_NEAR(static_cast<double>(fires), 100.0, 45.0);
}

TEST(PoissonProcess, SetRateTakesEffect) {
  Simulator sim;
  common::Rng rng{80};
  std::size_t fires = 0;
  PoissonProcess proc{sim, rng, 1.0, [&] { ++fires; }};
  proc.start();
  sim.run_until(100.0);
  const auto slow = fires;
  proc.set_rate(50.0);
  sim.run_until(200.0);
  const auto fast = fires - slow;
  EXPECT_GT(fast, slow * 10);
}

TEST(PoissonProcess, ZeroRateNeverFires) {
  Simulator sim;
  common::Rng rng{81};
  std::size_t fires = 0;
  PoissonProcess proc{sim, rng, 0.0, [&] { ++fires; }};
  proc.start();
  EXPECT_FALSE(proc.running());
  sim.run_until(50.0);
  EXPECT_EQ(fires, 0u);
}

TEST(PoissonProcess, CallbackMayStopTheProcess) {
  Simulator sim;
  common::Rng rng{82};
  std::size_t fires = 0;
  PoissonProcess proc{sim, rng, 10.0, [&] {
                        if (++fires == 3) proc.stop();
                      }};
  proc.start();
  sim.run_until(1000.0);
  EXPECT_EQ(fires, 3u);
}

}  // namespace
}  // namespace icollect::sim
