/// Coded-block structure and wire-format tests.

#include <gtest/gtest.h>

#include <stdexcept>

#include "coding/coded_block.h"
#include "common/rng.h"

namespace icollect::coding {
namespace {

TEST(SegmentIdTest, OrderingAndEquality) {
  const SegmentId a{1, 2};
  const SegmentId b{1, 3};
  const SegmentId c{2, 0};
  EXPECT_EQ(a, (SegmentId{1, 2}));
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a.to_string(), "1:2");
}

TEST(SegmentIdTest, HashSpreadsDistinctIds) {
  std::hash<SegmentId> h;
  EXPECT_NE(h(SegmentId{0, 1}), h(SegmentId{1, 0}));
  EXPECT_NE(h(SegmentId{3, 4}), h(SegmentId{4, 3}));
}

TEST(CodedBlockTest, SystematicShape) {
  const auto b = CodedBlock::systematic(SegmentId{7, 1}, 5, 2, {1, 2, 3});
  EXPECT_EQ(b.segment_size(), 5u);
  EXPECT_EQ(b.coefficients, (std::vector<gf::Element>{0, 0, 1, 0, 0}));
  EXPECT_EQ(b.payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_FALSE(b.is_degenerate());
}

TEST(CodedBlockTest, SystematicIndexOutOfRangeViolatesContract) {
  EXPECT_THROW((void)CodedBlock::systematic(SegmentId{}, 3, 3, {}),
               ContractViolation);
}

TEST(CodedBlockTest, DegenerateDetection) {
  CodedBlock b;
  b.coefficients = {0, 0, 0};
  EXPECT_TRUE(b.is_degenerate());
  b.coefficients[1] = 9;
  EXPECT_FALSE(b.is_degenerate());
}

TEST(WireFormat, RoundTrip) {
  CodedBlock b;
  b.segment = SegmentId{0xDEADBEEF, 42};
  b.coefficients = {1, 0, 7, 9};
  b.payload = {10, 20, 30, 40, 50};
  const auto bytes = wire::serialize(b);
  EXPECT_EQ(bytes.size(), wire::serialized_size(4, 5));
  const CodedBlock back = wire::deserialize(bytes);
  EXPECT_EQ(back.segment, b.segment);
  EXPECT_EQ(back.coefficients, b.coefficients);
  EXPECT_EQ(back.payload, b.payload);
}

TEST(WireFormat, RoundTripEmptyPayload) {
  CodedBlock b;
  b.segment = SegmentId{1, 1};
  b.coefficients = {5};
  const auto bytes = wire::serialize(b);
  const CodedBlock back = wire::deserialize(bytes);
  EXPECT_EQ(back.coefficients, b.coefficients);
  EXPECT_TRUE(back.payload.empty());
}

TEST(WireFormat, TruncatedHeaderRejected) {
  const std::vector<std::uint8_t> tiny(3, 0);
  EXPECT_THROW((void)wire::deserialize(tiny), std::invalid_argument);
}

TEST(WireFormat, LengthMismatchRejected) {
  CodedBlock b;
  b.segment = SegmentId{1, 1};
  b.coefficients = {5, 6};
  b.payload = {9};
  auto bytes = wire::serialize(b);
  bytes.push_back(0);  // trailing garbage
  EXPECT_THROW((void)wire::deserialize(bytes), std::invalid_argument);
  bytes.pop_back();
  bytes.pop_back();  // truncation
  EXPECT_THROW((void)wire::deserialize(bytes), std::invalid_argument);
}

TEST(WireFormat, ZeroSegmentSizeRejected) {
  // Hand-build a header with s = 0.
  std::vector<std::uint8_t> bytes(wire::kHeaderBytes, 0);
  EXPECT_THROW((void)wire::deserialize(bytes), std::invalid_argument);
}

TEST(WireFormat, RandomizedRoundTrips) {
  common::Rng rng{99};
  for (int t = 0; t < 50; ++t) {
    CodedBlock b;
    b.segment = SegmentId{static_cast<OriginId>(rng.uniform_index(1 << 20)),
                          static_cast<std::uint32_t>(rng.uniform_index(1000))};
    b.coefficients.resize(1 + rng.uniform_index(64));
    rng.fill_gf(b.coefficients);
    b.payload.resize(rng.uniform_index(256));
    for (auto& x : b.payload) x = static_cast<std::uint8_t>(rng.gf_element());
    const CodedBlock back = wire::deserialize(wire::serialize(b));
    ASSERT_EQ(back.segment, b.segment);
    ASSERT_EQ(back.coefficients, b.coefficients);
    ASSERT_EQ(back.payload, b.payload);
  }
}

}  // namespace
}  // namespace icollect::coding
