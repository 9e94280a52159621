/// \file obs_metrics_registry_test.cpp
/// Registry semantics: find-or-create stability, kind-mismatch errors,
/// pull-based gauges, latency column expansion, export
/// ordering, and whole-registry reset() for test isolation.

#include "obs/metrics_registry.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace {

using icollect::obs::MetricsRegistry;

TEST(MetricsRegistry, CounterFindOrCreateIsStable) {
  MetricsRegistry reg;
  auto& a = reg.counter("events");
  a.inc();
  a.inc(4);
  auto& b = reg.counter("events");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 5U);
  EXPECT_EQ(reg.size(), 1U);
  b.reset();
  EXPECT_EQ(a.value(), 0U);
}

TEST(MetricsRegistry, ReferencesSurviveGrowth) {
  MetricsRegistry reg;
  auto& first = reg.counter("first");
  first.inc();
  // Force internal vector growth; the handle must stay valid.
  for (int i = 0; i < 100; ++i) {
    reg.counter("c" + std::to_string(i)).inc();
  }
  first.inc();
  EXPECT_EQ(reg.counter("first").value(), 2U);
}

TEST(MetricsRegistry, GaugePushAndPull) {
  MetricsRegistry reg;
  auto& push = reg.gauge("push");
  push.set(2.5);
  EXPECT_DOUBLE_EQ(push.value(), 2.5);

  double source = 1.0;
  reg.gauge("pull", [&source] { return source; });
  source = 42.0;  // read lazily, at sample time
  EXPECT_DOUBLE_EQ(reg.find_gauge("pull")->value(), 42.0);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.latency("x"), std::invalid_argument);
  reg.gauge("g");
  EXPECT_THROW(reg.counter("g"), std::invalid_argument);
}

TEST(MetricsRegistry, DuplicateRegistrationContract) {
  // Same name + same kind: find-or-create returns the original and the
  // registry does not grow. Same name + different kind: throws, and the
  // failed call must not have disturbed the existing metric.
  MetricsRegistry reg;
  auto& lat = reg.latency("rtt");
  lat.record(100);
  EXPECT_EQ(&reg.latency("rtt"), &lat);
  EXPECT_EQ(reg.size(), 1U);
  EXPECT_THROW(reg.counter("rtt"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("rtt"), std::invalid_argument);
  EXPECT_EQ(reg.size(), 1U);
  EXPECT_EQ(reg.latency("rtt").count(), 1U);
}

TEST(MetricsRegistry, Lookups) {
  MetricsRegistry reg;
  reg.counter("c");
  reg.gauge("g");
  EXPECT_TRUE(reg.contains("c"));
  EXPECT_TRUE(reg.contains("g"));
  EXPECT_FALSE(reg.contains("missing"));
  EXPECT_NE(reg.find_counter("c"), nullptr);
  EXPECT_EQ(reg.find_counter("g"), nullptr);
  EXPECT_NE(reg.find_gauge("g"), nullptr);
  EXPECT_EQ(reg.find_gauge("missing"), nullptr);
}

TEST(MetricsRegistry, ExportOrderIsRegistrationOrder) {
  MetricsRegistry reg;
  reg.counter("zulu");
  reg.gauge("alpha");
  reg.counter("mike");
  const auto names = reg.sample_names();
  ASSERT_EQ(names.size(), 3U);
  EXPECT_EQ(names[0], "zulu");
  EXPECT_EQ(names[1], "alpha");
  EXPECT_EQ(names[2], "mike");
}

TEST(MetricsRegistry, LatencyExpandsToQuantileAndMaxColumns) {
  MetricsRegistry reg;
  auto& h = reg.latency("rtt");
  h.record_seconds(0.001);
  h.record_seconds(0.003);

  const auto names = reg.sample_names();
  ASSERT_EQ(names.size(), 5U);
  EXPECT_EQ(names[0], "rtt.count");
  EXPECT_EQ(names[1], "rtt.p50");
  EXPECT_EQ(names[2], "rtt.p90");
  EXPECT_EQ(names[3], "rtt.p99");
  EXPECT_EQ(names[4], "rtt.max");

  double count = -1.0;
  double max = -1.0;
  reg.for_each_sample([&](std::string_view name, double v) {
    if (name == "rtt.count") count = v;
    if (name == "rtt.max") max = v;
  });
  EXPECT_DOUBLE_EQ(count, 2.0);
  EXPECT_NEAR(max, 0.003, 1e-12);
  EXPECT_NE(reg.find_latency("rtt"), nullptr);
  EXPECT_EQ(reg.find_latency("missing"), nullptr);
}

TEST(MetricsRegistry, ResetZeroesValuesKeepsStructure) {
  MetricsRegistry reg;
  auto& c = reg.counter("c");
  c.inc(9);
  auto& pushed = reg.gauge("pushed");
  pushed.set(3.5);
  double source = 11.0;
  reg.gauge("pulled", [&source] { return source; });
  auto& lat = reg.latency("lat");
  lat.record(1000);
  const auto names_before = reg.sample_names();

  reg.reset();

  // Values are zeroed...
  EXPECT_EQ(c.value(), 0U);
  EXPECT_DOUBLE_EQ(pushed.value(), 0.0);
  EXPECT_EQ(lat.count(), 0U);
  double lat_count = -1.0;
  reg.for_each_sample([&](std::string_view name, double v) {
    if (name == "lat.count") lat_count = v;
  });
  EXPECT_DOUBLE_EQ(lat_count, 0.0);
  // ...but registrations, references, export order, and gauge providers
  // all survive: the same handles keep working.
  EXPECT_EQ(reg.sample_names(), names_before);
  EXPECT_DOUBLE_EQ(reg.find_gauge("pulled")->value(), source);
  c.inc();
  EXPECT_EQ(reg.counter("c").value(), 1U);
  lat.record(5);
  EXPECT_EQ(reg.latency("lat").count(), 1U);
}

TEST(MetricsRegistry, ForEachSampleValues) {
  MetricsRegistry reg;
  reg.counter("c").inc(7);
  reg.gauge("g").set(-1.5);
  std::vector<std::pair<std::string, double>> seen;
  reg.for_each_sample([&](std::string_view name, double v) {
    seen.emplace_back(std::string{name}, v);
  });
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_EQ(seen[0].first, "c");
  EXPECT_DOUBLE_EQ(seen[0].second, 7.0);
  EXPECT_EQ(seen[1].first, "g");
  EXPECT_DOUBLE_EQ(seen[1].second, -1.5);
}

}  // namespace
