/// Tests for the bulk GF(2^8) vector kernels.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "gf/gf256.h"
#include "gf/gf_vector.h"

namespace icollect::gf {
namespace {

std::vector<Element> random_vec(std::size_t n, common::Rng& rng) {
  std::vector<Element> v(n);
  rng.fill_gf(v);
  return v;
}

TEST(GfVector, AddAssignIsElementwiseXor) {
  std::vector<Element> a{1, 2, 3, 0xFF};
  const std::vector<Element> b{1, 0x10, 0x20, 0xFF};
  add_assign(a, b);
  EXPECT_EQ(a, (std::vector<Element>{0, 0x12, 0x23, 0}));
}

TEST(GfVector, AddAssignSelfInverse) {
  common::Rng rng{7};
  auto a = random_vec(64, rng);
  const auto b = random_vec(64, rng);
  const auto a0 = a;
  add_assign(a, b);
  add_assign(a, b);
  EXPECT_EQ(a, a0);
}

TEST(GfVector, AddAssignSizeMismatchViolatesContract) {
  std::vector<Element> a(4), b(5);
  EXPECT_THROW(add_assign(a, b), ContractViolation);
}

TEST(GfVector, ScaleByOneIsNoop) {
  common::Rng rng{8};
  auto a = random_vec(33, rng);
  const auto a0 = a;
  scale_assign(a, 1);
  EXPECT_EQ(a, a0);
}

TEST(GfVector, ScaleByZeroZeroes) {
  common::Rng rng{9};
  auto a = random_vec(33, rng);
  scale_assign(a, 0);
  EXPECT_TRUE(is_zero(a));
}

TEST(GfVector, ScaleMatchesScalarMul) {
  common::Rng rng{10};
  auto a = random_vec(50, rng);
  const auto a0 = a;
  const Element c = 0xB7;
  scale_assign(a, c);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], GF256::mul(c, a0[i]));
  }
}

TEST(GfVector, ScaleThenInverseScaleRestores) {
  common::Rng rng{11};
  auto a = random_vec(40, rng);
  const auto a0 = a;
  const Element c = 0x53;
  scale_assign(a, c);
  scale_assign(a, GF256::inv(c));
  EXPECT_EQ(a, a0);
}

TEST(GfVector, AddScaledMatchesManual) {
  common::Rng rng{12};
  auto dst = random_vec(64, rng);
  const auto dst0 = dst;
  const auto src = random_vec(64, rng);
  const Element c = 0x2A;
  add_scaled(dst, src, c);
  for (std::size_t i = 0; i < dst.size(); ++i) {
    EXPECT_EQ(dst[i], GF256::add(dst0[i], GF256::mul(c, src[i])));
  }
}

TEST(GfVector, AddScaledZeroCoefficientIsNoop) {
  common::Rng rng{13};
  auto dst = random_vec(16, rng);
  const auto dst0 = dst;
  add_scaled(dst, random_vec(16, rng), 0);
  EXPECT_EQ(dst, dst0);
}

TEST(GfVector, AddScaledOneEqualsAddAssign) {
  common::Rng rng{14};
  auto dst1 = random_vec(16, rng);
  auto dst2 = dst1;
  const auto src = random_vec(16, rng);
  add_scaled(dst1, src, 1);
  add_assign(dst2, src);
  EXPECT_EQ(dst1, dst2);
}

TEST(GfVector, DotIsSymmetricAndBilinear) {
  common::Rng rng{15};
  const auto a = random_vec(20, rng);
  const auto b = random_vec(20, rng);
  EXPECT_EQ(dot(a, b), dot(b, a));
  // dot(c*a, b) == c * dot(a, b)
  const Element c = 0x9D;
  auto ca = a;
  scale_assign(ca, c);
  EXPECT_EQ(dot(ca, b), GF256::mul(c, dot(a, b)));
}

TEST(GfVector, DotOfEmptyIsZero) {
  std::vector<Element> empty;
  EXPECT_EQ(dot(empty, empty), 0);
}

TEST(GfVector, IsZeroAndLeadingIndex) {
  std::vector<Element> v{0, 0, 5, 0, 7};
  EXPECT_FALSE(is_zero(v));
  EXPECT_EQ(leading_index(v), 2u);
  std::vector<Element> z(8, 0);
  EXPECT_TRUE(is_zero(z));
  EXPECT_EQ(leading_index(z), z.size());
  std::vector<Element> empty;
  EXPECT_TRUE(is_zero(empty));
  EXPECT_EQ(leading_index(empty), 0u);
}

}  // namespace
}  // namespace icollect::gf
