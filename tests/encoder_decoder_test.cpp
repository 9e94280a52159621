/// End-to-end RLNC codec tests: source encoding, progressive decoding,
/// innovation detection, and recoding chains. Parameterized over segment
/// size, since the paper's central knob is s.

#include <gtest/gtest.h>

#include <algorithm>

#include <vector>

#include "coding/decoder.h"
#include "coding/encoder.h"
#include "coding/segment_buffer.h"
#include "common/rng.h"

namespace icollect::coding {
namespace {

std::vector<std::vector<std::uint8_t>> random_originals(std::size_t s,
                                                        std::size_t bytes,
                                                        common::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> blocks(s);
  for (auto& b : blocks) {
    b.resize(bytes);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.gf_element());
  }
  return blocks;
}

class CodecRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecRoundTripTest, RandomCodedBlocksDecode) {
  const std::size_t s = GetParam();
  common::Rng rng{1000 + s};
  const SegmentId id{3, 7};
  const auto originals = random_originals(s, 32, rng);
  const SegmentEncoder enc{id, originals};
  Decoder dec{id, s, 32};

  std::size_t offered = 0;
  while (!dec.complete()) {
    dec.add(enc.encode(rng));
    ++offered;
    ASSERT_LE(offered, s + 20) << "decoder failed to complete";
  }
  // Over GF(256), random draws are innovative w.h.p.: expect few extras.
  EXPECT_LE(offered, s + 5);
  for (std::size_t k = 0; k < s; ++k) {
    const auto got = dec.original(k);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), originals[k].begin(),
                           originals[k].end()))
        << "block " << k;
  }
}

TEST_P(CodecRoundTripTest, SystematicBlocksDecodeExactlyAtRankS) {
  const std::size_t s = GetParam();
  common::Rng rng{2000 + s};
  const SegmentId id{1, 1};
  const auto originals = random_originals(s, 16, rng);
  const SegmentEncoder enc{id, originals};
  Decoder dec{id, s, 16};
  for (std::size_t k = 0; k < s; ++k) {
    EXPECT_FALSE(dec.complete());
    EXPECT_TRUE(dec.add(enc.systematic_block(k)));
    EXPECT_EQ(dec.rank(), k + 1);
  }
  EXPECT_TRUE(dec.complete());
  EXPECT_EQ(dec.originals(), originals);
}

TEST_P(CodecRoundTripTest, RecodedChainStillDecodes) {
  // source -> buffer A -> recode -> buffer B -> recode -> server: the
  // paper's "coding operation is not limited to the source".
  const std::size_t s = GetParam();
  common::Rng rng{3000 + s};
  const SegmentId id{9, 4};
  const auto originals = random_originals(s, 24, rng);
  const SegmentEncoder enc{id, originals};

  SegmentBuffer a{id, s};
  for (std::size_t k = 0; k < 2 * s; ++k) {
    a.add(k + 1, enc.encode(rng));
  }
  SegmentBuffer b{id, s};
  for (std::size_t k = 0; k < 2 * s; ++k) {
    b.add(1000 + k, a.recode(rng));
  }
  Decoder dec{id, s, 24};
  std::size_t offered = 0;
  while (!dec.complete() && offered < 6 * s + 30) {
    dec.add(b.recode(rng));
    ++offered;
  }
  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(dec.originals(), originals);
}

INSTANTIATE_TEST_SUITE_P(SegmentSizes, CodecRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32, 64));

TEST(SegmentEncoderTest, RejectsEmptyAndRagged) {
  EXPECT_THROW((SegmentEncoder{SegmentId{}, {}}), ContractViolation);
  std::vector<std::vector<std::uint8_t>> ragged{{1, 2}, {3}};
  EXPECT_THROW((SegmentEncoder{SegmentId{}, ragged}), ContractViolation);
}

TEST(SegmentEncoderTest, EncodedBlockNeverDegenerate) {
  common::Rng rng{5};
  const SegmentEncoder enc{SegmentId{2, 2}, random_originals(4, 8, rng)};
  for (int t = 0; t < 200; ++t) {
    EXPECT_FALSE(enc.encode(rng).is_degenerate());
  }
}

TEST(SegmentEncoderTest, EncodedPayloadIsTheStatedCombination) {
  common::Rng rng{6};
  const auto originals = random_originals(3, 10, rng);
  const SegmentEncoder enc{SegmentId{1, 0}, originals};
  const CodedBlock b = enc.encode(rng);
  std::vector<std::uint8_t> expect(10, 0);
  for (std::size_t j = 0; j < 3; ++j) {
    gf::add_scaled(expect, originals[j], b.coefficients[j]);
  }
  EXPECT_EQ(b.payload, expect);
}

TEST(DecoderTest, DuplicateBlockIsRedundant) {
  common::Rng rng{7};
  const auto originals = random_originals(4, 8, rng);
  const SegmentEncoder enc{SegmentId{1, 0}, originals};
  Decoder dec{SegmentId{1, 0}, 4, 8};
  const CodedBlock b = enc.encode(rng);
  EXPECT_TRUE(dec.add(b));
  EXPECT_FALSE(dec.add(b));
  EXPECT_EQ(dec.redundant_count(), 1u);
  EXPECT_EQ(dec.rank(), 1u);
}

TEST(DecoderTest, LinearCombinationOfKnownRowsIsRedundant) {
  common::Rng rng{8};
  const auto originals = random_originals(5, 8, rng);
  const SegmentEncoder enc{SegmentId{1, 0}, originals};
  Decoder dec{SegmentId{1, 0}, 5, 8};
  const CodedBlock b1 = enc.encode(rng);
  const CodedBlock b2 = enc.encode(rng);
  ASSERT_TRUE(dec.add(b1));
  ASSERT_TRUE(dec.add(b2));
  // 3*b1 + 5*b2 is in the decoder's span.
  CodedBlock mix;
  mix.segment = SegmentId{1, 0};
  mix.coefficients.assign(5, 0);
  mix.payload.assign(8, 0);
  gf::add_scaled(mix.coefficients, b1.coefficients, 3);
  gf::add_scaled(mix.coefficients, b2.coefficients, 5);
  gf::add_scaled(mix.payload, b1.payload, 3);
  gf::add_scaled(mix.payload, b2.payload, 5);
  EXPECT_FALSE(dec.is_innovative(mix));
  EXPECT_FALSE(dec.add(mix));
}

TEST(DecoderTest, IsInnovativeDoesNotMutate) {
  common::Rng rng{9};
  const auto originals = random_originals(4, 4, rng);
  const SegmentEncoder enc{SegmentId{1, 0}, originals};
  Decoder dec{SegmentId{1, 0}, 4, 4};
  const CodedBlock b = enc.encode(rng);
  EXPECT_TRUE(dec.is_innovative(b));
  EXPECT_EQ(dec.rank(), 0u);
  EXPECT_TRUE(dec.is_innovative(b));  // still, since nothing was added
}

TEST(DecoderTest, MismatchedSegmentViolatesContract) {
  Decoder dec{SegmentId{1, 0}, 4, 0};
  CodedBlock b;
  b.segment = SegmentId{2, 0};
  b.coefficients.assign(4, 1);
  EXPECT_THROW((void)dec.add(b), ContractViolation);
}

TEST(DecoderTest, WrongCoefficientLengthViolatesContract) {
  Decoder dec{SegmentId{1, 0}, 4, 0};
  CodedBlock b;
  b.segment = SegmentId{1, 0};
  b.coefficients.assign(3, 1);
  EXPECT_THROW((void)dec.add(b), ContractViolation);
}

TEST(DecoderTest, OriginalBeforeCompleteViolatesContract) {
  Decoder dec{SegmentId{1, 0}, 2, 4};
  EXPECT_THROW((void)dec.original(0), ContractViolation);
}

TEST(DecoderTest, AfterCompleteEverythingIsRedundant) {
  common::Rng rng{10};
  const auto originals = random_originals(3, 4, rng);
  const SegmentEncoder enc{SegmentId{1, 0}, originals};
  Decoder dec{SegmentId{1, 0}, 3, 4};
  while (!dec.complete()) dec.add(enc.encode(rng));
  const auto redundant_before = dec.redundant_count();
  EXPECT_FALSE(dec.add(enc.encode(rng)));
  EXPECT_EQ(dec.redundant_count(), redundant_before + 1);
  EXPECT_FALSE(dec.is_innovative(enc.encode(rng)));
}

TEST(DecoderTest, ZeroPayloadSizeTracksCoefficientsOnly) {
  common::Rng rng{11};
  Decoder dec{SegmentId{4, 4}, 3, 0};
  CodedBlock b;
  b.segment = SegmentId{4, 4};
  b.coefficients = {1, 2, 3};
  EXPECT_TRUE(dec.add(b));
  b.coefficients = {0, 1, 1};
  EXPECT_TRUE(dec.add(b));
  b.coefficients = {1, 3, 2};  // = row1 + row2
  EXPECT_FALSE(dec.add(b));
}

}  // namespace
}  // namespace icollect::coding
