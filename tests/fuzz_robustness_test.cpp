/// Randomized robustness sweeps over the parsing and codec boundaries:
/// hostile bytes into the wire format and the record codec must either
/// round-trip or throw — never crash, never silently mis-parse.

#include <gtest/gtest.h>

#include <stdexcept>

#include "coding/coded_block.h"
#include "common/rng.h"
#include "workload/stats_record.h"

namespace icollect {
namespace {

TEST(WireFuzz, RandomBytesNeverCrash) {
  common::Rng rng{9001};
  int parsed = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.uniform_index(200));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.gf_element());
    try {
      const auto block = coding::wire::deserialize(bytes);
      ++parsed;
      // Anything that parses must re-serialize to the identical bytes.
      EXPECT_EQ(coding::wire::serialize(block), bytes);
    } catch (const std::invalid_argument&) {
      // expected for malformed input
    }
  }
  // Random blobs occasionally satisfy the length equation; both outcomes
  // are fine, crashes are not. (This is a smoke bound, not a spec.)
  EXPECT_LT(parsed, 3000);
}

TEST(WireFuzz, TruncationsOfValidBlockAllRejected) {
  common::Rng rng{9002};
  coding::CodedBlock b;
  b.segment = {12, 34};
  b.coefficients.resize(16);
  rng.fill_gf(b.coefficients);
  b.payload.resize(40);
  for (auto& x : b.payload) x = static_cast<std::uint8_t>(rng.gf_element());
  const auto bytes = coding::wire::serialize(b);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix{bytes.data(), cut};
    EXPECT_THROW((void)coding::wire::deserialize(prefix),
                 std::invalid_argument)
        << "cut=" << cut;
  }
}

TEST(WireFuzz, SingleBitFlipsEitherRejectOrChangeOneField) {
  common::Rng rng{9003};
  coding::CodedBlock b;
  b.segment = {5, 6};
  b.coefficients = {1, 2, 3, 4};
  b.payload = {9, 8, 7};
  const auto bytes = coding::wire::serialize(b);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto corrupted = bytes;
    corrupted[i] ^= 0x40;
    try {
      const auto parsed = coding::wire::deserialize(corrupted);
      // The wire format has no checksum by design (integrity lives in the
      // record layer) — a flip that still parses must land in exactly the
      // field covering byte i, everything else intact.
      EXPECT_EQ(coding::wire::serialize(parsed), corrupted);
    } catch (const std::invalid_argument&) {
      // flips in the length fields typically break the framing: fine.
    }
  }
}

TEST(RecordFuzz, RandomBytesNeverParseAsRecords) {
  common::Rng rng{9004};
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> bytes(workload::StatsRecord::kSerializedSize);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.gf_element());
    // CRC-32 makes an accidental pass a ~2^-32 event.
    EXPECT_FALSE(workload::StatsRecord::crc_ok(bytes));
  }
}

TEST(RecordFuzz, PackerRejectsCorruptedSegmentBodies) {
  common::Rng rng{9005};
  const workload::RecordPacker packer{4, 64};
  std::vector<workload::StatsRecord> records;
  for (std::size_t i = 0; i < packer.capacity(); ++i) {
    workload::StatsRecord r;
    r.peer = static_cast<std::uint32_t>(i);
    r.timestamp = static_cast<double>(i);
    records.push_back(r);
  }
  const auto blocks = packer.pack(records);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = blocks;
    const std::size_t blk = rng.uniform_index(corrupted.size());
    const std::size_t off = rng.uniform_index(corrupted[blk].size());
    corrupted[blk][off] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    try {
      const auto out = packer.unpack(corrupted);
      // A flip inside the zero padding is legitimately invisible.
      EXPECT_EQ(out, records);
    } catch (const std::invalid_argument&) {
      // corruption detected: the expected outcome for header/record flips
    }
  }
}

}  // namespace
}  // namespace icollect
