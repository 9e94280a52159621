/// Deterministic RNG wrapper tests: ranges, moments, determinism.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace icollect::common {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{3};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng{4};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    ASSERT_GE(u, -2.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAndBounds) {
  Rng rng{5};
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) {
    const std::size_t k = rng.uniform_index(7);
    ASSERT_LT(k, 7u);
    ++hits[k];
  }
  for (int h : hits) EXPECT_GT(h, 700);  // each ≈ 1000
}

TEST(Rng, UniformIndexZeroViolatesContract) {
  Rng rng{6};
  EXPECT_THROW((void)rng.uniform_index(0), icollect::ContractViolation);
}

TEST(Rng, ExponentialMeanAndPositivity) {
  Rng rng{7};
  const double rate = 4.0;
  double sum = 0.0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.exponential(rate);
    ASSERT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 1.0 / rate, 0.01);
}

TEST(Rng, ExponentialNonPositiveRateViolatesContract) {
  Rng rng{8};
  EXPECT_THROW((void)rng.exponential(0.0), icollect::ContractViolation);
  EXPECT_THROW((void)rng.exponential(-1.0), icollect::ContractViolation);
}

TEST(Rng, PoissonMeanAndVariance) {
  Rng rng{9};
  const double mean = 6.5;
  constexpr int kN = 30000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const int x = rng.poisson(mean);
    ASSERT_GE(x, 0);
    sum += x;
    sumsq += static_cast<double>(x) * x;
  }
  const double m = sum / kN;
  const double var = sumsq / kN - m * m;
  EXPECT_NEAR(m, mean, 0.1);
  EXPECT_NEAR(var, mean, 0.3);  // Poisson: variance == mean
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng rng{10};
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{11};
  int heads = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
  EXPECT_THROW((void)rng.bernoulli(1.5), icollect::ContractViolation);
}

TEST(Rng, GfNonzeroNeverZeroAndCoversField) {
  Rng rng{12};
  std::vector<bool> seen(256, false);
  for (int i = 0; i < 20000; ++i) {
    const auto e = rng.gf_nonzero();
    ASSERT_NE(e, 0);
    seen[e] = true;
  }
  for (int v = 1; v < 256; ++v) EXPECT_TRUE(seen[v]) << v;
}

TEST(Rng, GfElementCoversIncludingZero) {
  Rng rng{13};
  std::vector<bool> seen(256, false);
  for (int i = 0; i < 30000; ++i) seen[rng.gf_element()] = true;
  for (int v = 0; v < 256; ++v) EXPECT_TRUE(seen[v]) << v;
}

TEST(Rng, FillGfFillsEverything) {
  Rng rng{14};
  std::vector<gf::Element> v(1000, 77);
  rng.fill_gf(v);
  int changed = 0;
  for (const auto e : v) {
    if (e != 77) ++changed;
  }
  EXPECT_GT(changed, 950);  // each stays 77 with prob 1/256
}

TEST(Rng, PickReturnsMembersUniformly) {
  Rng rng{15};
  const std::vector<int> items{10, 20, 30};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 9000; ++i) {
    const int x = rng.pick(items);
    ASSERT_TRUE(x == 10 || x == 20 || x == 30);
    ++counts[x / 10 - 1];
  }
  for (const int c : counts) EXPECT_NEAR(c, 3000, 300);
  const std::vector<int> empty;
  EXPECT_THROW((void)rng.pick(empty), icollect::ContractViolation);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a{99};
  Rng b = a.fork();
  // The fork must not replay the parent's stream.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

}  // namespace
}  // namespace icollect::common
