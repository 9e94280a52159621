/// Wire-protocol codec tests: every message type must survive a frame
/// round trip byte-exactly, the decoder must reassemble frames from
/// arbitrary stream chunking, and each malformation class must map to
/// its typed DecodeStatus — with the error latched until reset(), since
/// framing on a corrupted stream is unrecoverable.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "coding/coded_block.h"
#include "common/rng.h"
#include "wire/frame.h"
#include "wire/message.h"

namespace icollect::wire {
namespace {

coding::CodedBlock sample_block(std::size_t s, std::size_t payload_bytes,
                                std::uint64_t seed) {
  common::Rng rng{seed};
  coding::CodedBlock b;
  b.segment = coding::SegmentId{7, 42};
  b.coefficients.resize(s);
  do {
    rng.fill_gf(b.coefficients);
  } while (b.is_degenerate());
  b.payload.resize(payload_bytes);
  for (auto& byte : b.payload) {
    byte = static_cast<std::uint8_t>(rng.gf_element());
  }
  return b;
}

/// A legacy (no scheduling extension) pull request as a Message.
Message pull_req(std::uint32_t token = 0) {
  PullRequest p;
  p.token = token;
  return Message{p};
}

/// Encode, feed the whole frame at once, and return the decoded message.
Message round_trip(const Message& m) {
  FrameDecoder dec;
  dec.feed(encoded_frame(m));
  auto res = dec.next();
  EXPECT_EQ(res.status, DecodeStatus::kFrame);
  EXPECT_EQ(dec.next().status, DecodeStatus::kNeedMore);
  return std::move(res.message);
}

TEST(WireFrame, HeaderLayout) {
  const Message m = pull_req(0x01020304);
  const auto frame = encoded_frame(m);
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  EXPECT_EQ(frame[0], kMagic[0]);
  EXPECT_EQ(frame[1], kMagic[1]);
  EXPECT_EQ(frame[2], kMagic[2]);
  EXPECT_EQ(frame[3], kMagic[3]);
  EXPECT_EQ(frame[4], kProtocolVersion);
  EXPECT_EQ(frame[5], static_cast<std::uint8_t>(MessageType::kPullRequest));
  EXPECT_EQ(frame[6], 0);  // reserved
  EXPECT_EQ(frame[7], 0);
  const std::uint32_t body_len = frame[8] | (frame[9] << 8U) |
                                 (frame[10] << 16U) |
                                 (static_cast<std::uint32_t>(frame[11]) << 24U);
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + body_len);
  EXPECT_EQ(frame.size(), frame_size(m));
}

TEST(WireFrame, HelloRoundTrip) {
  Hello h;
  h.role = NodeRole::kServer;
  h.version_min = 1;
  h.version_max = 3;
  h.node_id = 0xDEADBEEF;
  h.segment_size = 12;
  h.buffer_cap = 1000;
  const auto out = std::get<Hello>(round_trip(Message{h}));
  EXPECT_EQ(out.role, h.role);
  EXPECT_EQ(out.version_min, h.version_min);
  EXPECT_EQ(out.version_max, h.version_max);
  EXPECT_EQ(out.node_id, h.node_id);
  EXPECT_EQ(out.segment_size, h.segment_size);
  EXPECT_EQ(out.buffer_cap, h.buffer_cap);
}

TEST(WireFrame, GossipBlockRoundTrip) {
  const auto block = sample_block(5, 33, 9);
  const auto out = std::get<GossipBlock>(round_trip(Message{GossipBlock{block}}));
  EXPECT_EQ(out.block.segment, block.segment);
  EXPECT_EQ(out.block.coefficients, block.coefficients);
  EXPECT_EQ(out.block.payload, block.payload);
}

TEST(WireFrame, GossipBlockNoPayloadRoundTrip) {
  const auto block = sample_block(4, 0, 2);
  const auto out = std::get<GossipBlock>(round_trip(Message{GossipBlock{block}}));
  EXPECT_EQ(out.block.coefficients, block.coefficients);
  EXPECT_TRUE(out.block.payload.empty());
}

TEST(WireFrame, PullRequestRoundTrip) {
  const auto out =
      std::get<PullRequest>(round_trip(pull_req(77)));
  EXPECT_EQ(out.token, 77U);
}

TEST(WireFrame, PullRequestLegacyBodyStaysFourBytes) {
  // A request with no scheduling extension must encode in the original
  // version-1 4-byte form — the byte-identity guarantee for the default
  // uniform policy.
  const Message m = pull_req(0x0A0B0C0D);
  const auto frame = encoded_frame(m);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 4);
  EXPECT_EQ(frame[kFrameHeaderBytes + 0], 0x0D);  // token, little-endian
  EXPECT_EQ(frame[kFrameHeaderBytes + 1], 0x0C);
  EXPECT_EQ(frame[kFrameHeaderBytes + 2], 0x0B);
  EXPECT_EQ(frame[kFrameHeaderBytes + 3], 0x0A);
}

TEST(WireFrame, PullRequestWantSummaryRoundTrip) {
  PullRequest p;
  p.token = 5;
  p.want_summary = true;
  const auto out = std::get<PullRequest>(round_trip(Message{p}));
  EXPECT_EQ(out.token, 5U);
  EXPECT_TRUE(out.want_summary);
  EXPECT_FALSE(out.want.has_value());
}

TEST(WireFrame, PullRequestWantSegmentRoundTrip) {
  PullRequest p;
  p.token = 6;
  p.want_summary = true;
  p.want = coding::SegmentId{31, 17};
  const auto out = std::get<PullRequest>(round_trip(Message{p}));
  EXPECT_EQ(out.token, 6U);
  EXPECT_TRUE(out.want_summary);
  ASSERT_TRUE(out.want.has_value());
  EXPECT_EQ(*out.want, (coding::SegmentId{31, 17}));

  PullRequest want_only;
  want_only.token = 7;
  want_only.want = coding::SegmentId{1, 2};
  const auto out2 = std::get<PullRequest>(round_trip(Message{want_only}));
  EXPECT_FALSE(out2.want_summary);
  ASSERT_TRUE(out2.want.has_value());
  EXPECT_EQ(*out2.want, (coding::SegmentId{1, 2}));
}

TEST(WireFrame, PullRequestBadExtensionRejected) {
  Message out;
  // flags byte present but zero: encodes nothing, malformed by contract.
  EXPECT_EQ(decode_body(MessageType::kPullRequest,
                        std::vector<std::uint8_t>{1, 0, 0, 0, 0}, out),
            DecodeStatus::kMalformedBody);
  // Unknown flag bits.
  EXPECT_EQ(decode_body(MessageType::kPullRequest,
                        std::vector<std::uint8_t>{1, 0, 0, 0, 4}, out),
            DecodeStatus::kMalformedBody);
  // flags says a wanted id follows, but the bytes are missing.
  EXPECT_EQ(decode_body(MessageType::kPullRequest,
                        std::vector<std::uint8_t>{1, 0, 0, 0, 2, 9, 9}, out),
            DecodeStatus::kMalformedBody);
  // Trailing garbage after a complete extension.
  std::vector<std::uint8_t> body{1, 0, 0, 0, 1, 0xEE};
  EXPECT_EQ(decode_body(MessageType::kPullRequest, body, out),
            DecodeStatus::kMalformedBody);
}

TEST(WireFrame, BufferSummaryRoundTrip) {
  BufferSummary s;
  s.segments = {coding::SegmentId{1, 0}, coding::SegmentId{2, 9},
                coding::SegmentId{0xFFFFFFFF, 0xFFFFFFFF}};
  const auto out = std::get<BufferSummary>(round_trip(Message{s}));
  EXPECT_EQ(out.segments, s.segments);
}

TEST(WireFrame, BufferSummaryEmptyRoundTrip) {
  const auto out =
      std::get<BufferSummary>(round_trip(Message{BufferSummary{}}));
  EXPECT_TRUE(out.segments.empty());
}

TEST(WireFrame, BufferSummaryEncoderTruncatesAtCap) {
  BufferSummary s;
  s.segments.resize(kMaxSummarySegments + 5,
                    coding::SegmentId{3, 4});
  const auto out = std::get<BufferSummary>(round_trip(Message{s}));
  EXPECT_EQ(out.segments.size(), kMaxSummarySegments);
  EXPECT_EQ(frame_size(Message{s}),
            kFrameHeaderBytes + 4 + 8 * kMaxSummarySegments);
}

TEST(WireFrame, BufferSummaryMalformedRejected) {
  Message out;
  std::vector<std::uint8_t> body;
  encode_body(Message{BufferSummary{{coding::SegmentId{1, 2}}}}, body);
  // Wrong summary codec version.
  auto bad = body;
  bad[0] = static_cast<std::uint8_t>(kBufferSummaryVersion + 1);
  EXPECT_EQ(decode_body(MessageType::kBufferSummary, bad, out),
            DecodeStatus::kMalformedBody);
  // Advertised count disagrees with the bytes present (both ways).
  bad = body;
  bad[2] = 2;  // claims 2 ids, carries 1
  EXPECT_EQ(decode_body(MessageType::kBufferSummary, bad, out),
            DecodeStatus::kMalformedBody);
  bad = body;
  bad.push_back(0);  // trailing garbage
  EXPECT_EQ(decode_body(MessageType::kBufferSummary, bad, out),
            DecodeStatus::kMalformedBody);
  // Forged count past the cap must be rejected before any allocation.
  bad = body;
  bad[2] = 0xFF;
  bad[3] = 0xFF;
  EXPECT_EQ(decode_body(MessageType::kBufferSummary, bad, out),
            DecodeStatus::kMalformedBody);
}

TEST(WireFrame, PullBlockWithBlockRoundTrip) {
  PullBlock pb;
  pb.token = 5;
  pb.occupancy = 31;
  pb.has_block = true;
  pb.block = sample_block(3, 8, 4);
  const auto out = std::get<PullBlock>(round_trip(Message{pb}));
  EXPECT_EQ(out.token, pb.token);
  EXPECT_EQ(out.occupancy, pb.occupancy);
  EXPECT_TRUE(out.has_block);
  EXPECT_EQ(out.block.coefficients, pb.block.coefficients);
  EXPECT_EQ(out.block.payload, pb.block.payload);
}

TEST(WireFrame, PullBlockEmptyRoundTrip) {
  PullBlock pb;
  pb.token = 6;
  pb.occupancy = 0;
  pb.has_block = false;
  const auto out = std::get<PullBlock>(round_trip(Message{pb}));
  EXPECT_EQ(out.token, 6U);
  EXPECT_FALSE(out.has_block);
  // An empty reply must not pay for a block on the wire.
  EXPECT_LT(frame_size(Message{pb}), frame_size(Message{[] {
              PullBlock full;
              full.has_block = true;
              full.block = sample_block(3, 8, 4);
              return full;
            }()}));
}

TEST(WireFrame, AckRoundTrip) {
  const auto out = std::get<SegmentDecodedAck>(
      round_trip(Message{SegmentDecodedAck{coding::SegmentId{9, 3}}}));
  EXPECT_EQ(out.segment, (coding::SegmentId{9, 3}));
}

TEST(WireFrame, ByeRoundTrip) {
  const auto out = std::get<Bye>(
      round_trip(Message{Bye{ByeReason::kVersionMismatch}}));
  EXPECT_EQ(out.reason, ByeReason::kVersionMismatch);
}

TEST(WireFrame, ByteAtATimeReassembly) {
  // The decoder owns stream reassembly: a frame delivered one byte at a
  // time must decode identically to one delivered whole.
  const Message m{GossipBlock{sample_block(6, 19, 11)}};
  const auto frame = encoded_frame(m);
  FrameDecoder dec;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(dec.next().status, DecodeStatus::kNeedMore);
    dec.feed({&frame[i], 1});
  }
  const auto res = dec.next();
  ASSERT_EQ(res.status, DecodeStatus::kFrame);
  EXPECT_EQ(std::get<GossipBlock>(res.message).block.payload,
            std::get<GossipBlock>(m).block.payload);
}

TEST(WireFrame, BackToBackFramesInOneFeed) {
  std::vector<std::uint8_t> stream;
  encode_frame(pull_req(1), stream);
  encode_frame(pull_req(2), stream);
  encode_frame(Message{Bye{}}, stream);
  FrameDecoder dec;
  dec.feed(stream);
  EXPECT_EQ(std::get<PullRequest>(dec.next().message).token, 1U);
  EXPECT_EQ(std::get<PullRequest>(dec.next().message).token, 2U);
  EXPECT_EQ(dec.next().status, DecodeStatus::kFrame);
  EXPECT_EQ(dec.next().status, DecodeStatus::kNeedMore);
  EXPECT_EQ(dec.frames_decoded(), 3U);
  EXPECT_EQ(dec.buffered_bytes(), 0U);
}

TEST(WireFrame, BadMagicDetectedAndLatched) {
  auto frame = encoded_frame(pull_req());
  frame[0] ^= 0xFF;
  FrameDecoder dec;
  dec.feed(frame);
  EXPECT_EQ(dec.next().status, DecodeStatus::kBadMagic);
  // The error latches: further feeds cannot resurrect the stream.
  dec.feed(encoded_frame(pull_req()));
  EXPECT_EQ(dec.next().status, DecodeStatus::kBadMagic);
  EXPECT_EQ(dec.errors(), 1U);
  dec.reset();
  dec.feed(encoded_frame(pull_req()));
  EXPECT_EQ(dec.next().status, DecodeStatus::kFrame);
}

TEST(WireFrame, BadVersionDetected) {
  auto frame = encoded_frame(pull_req());
  frame[4] = kProtocolVersion + 40;
  FrameDecoder dec;
  dec.feed(frame);
  EXPECT_EQ(dec.next().status, DecodeStatus::kBadVersion);
}

TEST(WireFrame, BadTypeDetected) {
  auto frame = encoded_frame(pull_req());
  frame[5] = 0xEE;
  FrameDecoder dec;
  dec.feed(frame);
  EXPECT_EQ(dec.next().status, DecodeStatus::kBadType);
}

TEST(WireFrame, OversizedLengthRejectedBeforeBuffering) {
  // A hostile length prefix is rejected from the header alone — no body
  // bytes are ever required, so there is nothing to balloon.
  auto frame = encoded_frame(pull_req());
  frame[8] = 0xFF;
  frame[9] = 0xFF;
  frame[10] = 0xFF;
  frame[11] = 0x7F;
  FrameDecoder dec;
  dec.feed({frame.data(), kFrameHeaderBytes});
  EXPECT_EQ(dec.next().status, DecodeStatus::kOversized);
}

TEST(WireFrame, CrcMismatchDetected) {
  auto frame = encoded_frame(pull_req(3));
  frame.back() ^= 0x01;  // flip one body bit
  FrameDecoder dec;
  dec.feed(frame);
  EXPECT_EQ(dec.next().status, DecodeStatus::kBadCrc);
}

TEST(WireFrame, MalformedBodyDetected) {
  // A Hello body truncated to one byte passes CRC (we recompute it) but
  // cannot parse.
  Message out;
  const std::vector<std::uint8_t> stub{0x01};
  EXPECT_EQ(decode_body(MessageType::kHello, stub, out),
            DecodeStatus::kMalformedBody);
}

TEST(WireFrame, BlockSegmentSizeCapEnforced) {
  // A block body advertising an absurd coefficient count must be
  // rejected as malformed, not allocated.
  const auto block = sample_block(2, 4, 1);
  std::vector<std::uint8_t> body;
  encode_body(Message{GossipBlock{block}}, body);
  // The s field lives in the body; force it huge. Layout: SegmentId
  // (origin u32 + seq u32) then s as u16.
  body[8] = 0xFF;
  body[9] = 0xFF;
  Message out;
  EXPECT_EQ(decode_body(MessageType::kGossipBlock, body, out),
            DecodeStatus::kMalformedBody);
}

TEST(WireFrame, CustomBodyCapRespected) {
  FrameDecoder tiny{64};
  const Message big{GossipBlock{sample_block(4, 200, 3)}};
  tiny.feed(encoded_frame(big));
  EXPECT_EQ(tiny.next().status, DecodeStatus::kOversized);
}

TEST(WireFrame, PerStatusErrorCountersAndResyncs) {
  // Each latched error increments its own status bucket exactly once,
  // and a reset() that discards a latched error counts as a resync.
  FrameDecoder dec;

  auto bad_magic = encoded_frame(pull_req());
  bad_magic[0] ^= 0xFF;
  dec.feed(bad_magic);
  EXPECT_EQ(dec.next().status, DecodeStatus::kBadMagic);
  // Latched: repeated next() calls must not inflate the bucket.
  EXPECT_EQ(dec.next().status, DecodeStatus::kBadMagic);
  EXPECT_EQ(dec.errors_by(DecodeStatus::kBadMagic), 1U);
  EXPECT_EQ(dec.resyncs(), 0U);
  dec.reset();
  EXPECT_EQ(dec.resyncs(), 1U);

  auto bad_crc = encoded_frame(pull_req(9));
  bad_crc.back() ^= 0x01;
  dec.feed(bad_crc);
  EXPECT_EQ(dec.next().status, DecodeStatus::kBadCrc);
  EXPECT_EQ(dec.errors_by(DecodeStatus::kBadCrc), 1U);
  EXPECT_EQ(dec.errors_by(DecodeStatus::kBadMagic), 1U);
  EXPECT_EQ(dec.errors(), 2U);  // aggregate stays the sum of buckets
  dec.reset();
  EXPECT_EQ(dec.resyncs(), 2U);

  // A clean-state reset is not a resync — nothing was discarded.
  dec.reset();
  EXPECT_EQ(dec.resyncs(), 2U);

  // A healthy decode touches no error bucket.
  dec.feed(encoded_frame(pull_req(1)));
  EXPECT_EQ(dec.next().status, DecodeStatus::kFrame);
  EXPECT_EQ(dec.errors(), 2U);
  EXPECT_EQ(dec.errors_by(DecodeStatus::kBadVersion), 0U);
  EXPECT_EQ(dec.errors_by(DecodeStatus::kOversized), 0U);
  EXPECT_EQ(dec.errors_by(DecodeStatus::kMalformedBody), 0U);
}

TEST(WireFrame, EncodeIntoReusesBuffer) {
  std::vector<std::uint8_t> scratch;
  encode_frame(pull_req(1), scratch);
  const std::size_t first = scratch.size();
  encode_frame(pull_req(2), scratch);
  // encode_frame appends; callers clear() between sends.
  EXPECT_EQ(scratch.size(), 2 * first);
}

}  // namespace
}  // namespace icollect::wire
