/// SegmentBuffer: per-peer per-segment storage, rank tracking, recoding.

#include <gtest/gtest.h>

#include <algorithm>

#include "coding/decoder.h"
#include "coding/encoder.h"
#include "coding/segment_buffer.h"
#include "common/rng.h"

namespace icollect::coding {
namespace {

std::vector<std::vector<std::uint8_t>> originals(std::size_t s,
                                                 std::size_t bytes,
                                                 common::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> v(s);
  for (auto& b : v) {
    b.resize(bytes);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.gf_element());
  }
  return v;
}

TEST(SegmentBuffer, StartsEmpty) {
  const SegmentBuffer sb{SegmentId{1, 2}, 4};
  EXPECT_TRUE(sb.empty());
  EXPECT_EQ(sb.block_count(), 0u);
  EXPECT_EQ(sb.rank(), 0u);
  EXPECT_FALSE(sb.full_rank());
}

TEST(SegmentBuffer, RankGrowsWithIndependentBlocks) {
  common::Rng rng{41};
  const SegmentId id{1, 2};
  const SegmentEncoder enc{id, originals(4, 8, rng)};
  SegmentBuffer sb{id, 4};
  for (std::size_t k = 0; k < 4; ++k) {
    sb.add(k + 1, enc.systematic_block(k));
    EXPECT_EQ(sb.rank(), k + 1);
  }
  EXPECT_TRUE(sb.full_rank());
}

TEST(SegmentBuffer, DuplicateBlocksCountButDoNotRaiseRank) {
  common::Rng rng{42};
  const SegmentId id{1, 2};
  const SegmentEncoder enc{id, originals(4, 8, rng)};
  SegmentBuffer sb{id, 4};
  const CodedBlock b = enc.encode(rng);
  sb.add(1, b);
  sb.add(2, b);
  EXPECT_EQ(sb.block_count(), 2u);
  EXPECT_EQ(sb.rank(), 1u);
}

TEST(SegmentBuffer, RemoveRecomputesRank) {
  common::Rng rng{43};
  const SegmentId id{3, 3};
  const SegmentEncoder enc{id, originals(3, 8, rng)};
  SegmentBuffer sb{id, 3};
  sb.add(1, enc.systematic_block(0));
  sb.add(2, enc.systematic_block(1));
  sb.add(3, enc.systematic_block(2));
  EXPECT_TRUE(sb.full_rank());
  EXPECT_TRUE(sb.remove(2));
  EXPECT_EQ(sb.block_count(), 2u);
  EXPECT_EQ(sb.rank(), 2u);
  EXPECT_FALSE(sb.full_rank());
  EXPECT_FALSE(sb.remove(2));  // already gone
}

TEST(SegmentBuffer, HandlesAreReported) {
  common::Rng rng{44};
  const SegmentId id{5, 5};
  const SegmentEncoder enc{id, originals(2, 4, rng)};
  SegmentBuffer sb{id, 2};
  sb.add(11, enc.encode(rng));
  sb.add(22, enc.encode(rng));
  auto hs = sb.handles();
  std::sort(hs.begin(), hs.end());
  EXPECT_EQ(hs, (std::vector<BlockHandle>{11, 22}));
}

TEST(SegmentBuffer, RecodeStaysInsideStoredSpan) {
  common::Rng rng{45};
  const SegmentId id{6, 6};
  const SegmentEncoder enc{id, originals(5, 8, rng)};
  SegmentBuffer sb{id, 5};
  // Store only 2 independent blocks: the recoded output must lie in that
  // 2-dimensional span (never innovative to a decoder that knows it).
  sb.add(1, enc.encode(rng));
  sb.add(2, enc.encode(rng));
  Decoder span{id, 5, 8};
  sb.for_each_block([&](const CodedBlock& b) { span.add(b); });
  for (int t = 0; t < 50; ++t) {
    EXPECT_FALSE(span.is_innovative(sb.recode(rng)));
  }
}

TEST(SegmentBuffer, RecodePreservesPayloadConsistency) {
  // Decoding from recoded blocks must recover the true originals.
  common::Rng rng{46};
  const SegmentId id{7, 7};
  const auto orig = originals(4, 16, rng);
  const SegmentEncoder enc{id, orig};
  SegmentBuffer sb{id, 4};
  for (std::size_t k = 0; k < 4; ++k) sb.add(k + 1, enc.systematic_block(k));
  Decoder dec{id, 4, 16};
  int guard = 0;
  while (!dec.complete() && ++guard < 100) dec.add(sb.recode(rng));
  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(dec.originals(), orig);
}

TEST(SegmentBuffer, RecodeNeverDegenerate) {
  common::Rng rng{47};
  const SegmentId id{8, 8};
  const SegmentEncoder enc{id, originals(1, 2, rng)};
  SegmentBuffer sb{id, 1};
  sb.add(1, enc.systematic_block(0));
  for (int t = 0; t < 300; ++t) {
    EXPECT_FALSE(sb.recode(rng).is_degenerate());
  }
}

TEST(SegmentBuffer, RecodeOnEmptyViolatesContract) {
  common::Rng rng{48};
  SegmentBuffer sb{SegmentId{9, 9}, 3};
  EXPECT_THROW((void)sb.recode(rng), ContractViolation);
}

TEST(SegmentBuffer, AddWrongSegmentViolatesContract) {
  common::Rng rng{49};
  SegmentBuffer sb{SegmentId{1, 0}, 3};
  CodedBlock b;
  b.segment = SegmentId{1, 1};
  b.coefficients = {1, 0, 0};
  EXPECT_THROW(sb.add(1, b), ContractViolation);
}

TEST(SegmentBuffer, IsInnovativeAgreesWithRankChange) {
  common::Rng rng{50};
  const SegmentId id{2, 9};
  const SegmentEncoder enc{id, originals(6, 4, rng)};
  SegmentBuffer sb{id, 6};
  for (std::size_t k = 0; k < 20; ++k) {
    const CodedBlock b = enc.encode(rng);
    const bool predicted = sb.is_innovative(b);
    const std::size_t before = sb.rank();
    sb.add(k + 1, b);
    EXPECT_EQ(predicted, sb.rank() > before);
  }
}

}  // namespace
}  // namespace icollect::coding
