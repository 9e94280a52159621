/// Fuzz the frame decoder: feed it mutated frames, truncations, and raw
/// random bytes in adversarial chunkings and assert it never crashes,
/// never reads out of range (ASan-checked under the `asan` preset via
/// the wire-asan-smoke CTest), and keeps its typed-status contract —
/// errors latch, valid frames decode, and kNeedMore never lies.
///
/// Iteration count defaults to 100000 and can be raised via the
/// ICOLLECT_WIRE_FUZZ_ITERS environment variable for soak runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <variant>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "proto/integrity.h"
#include "wire/frame.h"
#include "wire/message.h"

namespace icollect::wire {
namespace {

std::size_t fuzz_iterations() {
  if (const char* env = std::getenv("ICOLLECT_WIRE_FUZZ_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 100000;
}

coding::CodedBlock random_block(common::Rng& rng) {
  coding::CodedBlock b;
  b.segment.origin = static_cast<std::uint32_t>(rng.uniform_index(1U << 16U));
  b.segment.seq = static_cast<std::uint32_t>(rng.uniform_index(1U << 16U));
  b.coefficients.resize(1 + rng.uniform_index(8));
  do {
    rng.fill_gf(b.coefficients);
  } while (b.is_degenerate());
  b.payload.resize(rng.uniform_index(48));
  for (auto& byte : b.payload) {
    byte = static_cast<std::uint8_t>(rng.gf_element());
  }
  return b;
}

Message random_message(common::Rng& rng) {
  switch (rng.uniform_index(7)) {
    case 0: {
      Hello h;
      h.role = rng.bernoulli(0.5) ? NodeRole::kServer : NodeRole::kPeer;
      h.node_id = static_cast<std::uint32_t>(rng.uniform_index(1U << 20U));
      h.segment_size = static_cast<std::uint16_t>(1 + rng.uniform_index(64));
      h.buffer_cap = static_cast<std::uint32_t>(rng.uniform_index(1024));
      return Message{h};
    }
    case 1:
      return Message{GossipBlock{random_block(rng)}};
    case 2: {
      // All three encodings: legacy 4-byte, flags-only, flags + want id.
      PullRequest p;
      p.token = static_cast<std::uint32_t>(rng.uniform_index(1U << 24U));
      p.want_summary = rng.bernoulli(0.5);
      if (rng.bernoulli(0.5)) {
        p.want = coding::SegmentId{
            static_cast<std::uint32_t>(rng.uniform_index(1U << 16U)),
            static_cast<std::uint32_t>(rng.uniform_index(1U << 16U))};
      }
      return Message{p};
    }
    case 3: {
      PullBlock p;
      p.token = static_cast<std::uint32_t>(rng.uniform_index(1U << 24U));
      p.occupancy = static_cast<std::uint32_t>(rng.uniform_index(256));
      p.has_block = rng.bernoulli(0.7);
      if (p.has_block) p.block = random_block(rng);
      return Message{p};
    }
    case 4:
      return Message{SegmentDecodedAck{coding::SegmentId{
          static_cast<std::uint32_t>(rng.uniform_index(1U << 16U)),
          static_cast<std::uint32_t>(rng.uniform_index(1U << 16U))}}};
    case 5:
      return Message{Bye{static_cast<ByeReason>(rng.uniform_index(4))}};
    default: {
      BufferSummary s;
      s.segments.resize(rng.uniform_index(12));
      for (auto& id : s.segments) {
        id.origin = static_cast<std::uint32_t>(rng.uniform_index(1U << 16U));
        id.seq = static_cast<std::uint32_t>(rng.uniform_index(1U << 16U));
      }
      return Message{s};
    }
  }
}

/// Feed `stream` to a fresh decoder in random chunks and drain it,
/// checking the status contract at every step. Returns frames decoded.
std::uint64_t drain(common::Rng& rng, const std::vector<std::uint8_t>& stream) {
  FrameDecoder dec;
  std::size_t at = 0;
  bool errored = false;
  while (at < stream.size()) {
    const std::size_t n =
        std::min(stream.size() - at, 1 + rng.uniform_index(64));
    dec.feed({stream.data() + at, n});
    at += n;
    for (;;) {
      const auto res = dec.next();
      if (res.status == DecodeStatus::kFrame) {
        EXPECT_FALSE(errored) << "frame after latched error";
        continue;
      }
      if (res.status == DecodeStatus::kNeedMore) break;
      // Typed error: it must latch — the same status forever after.
      errored = true;
      EXPECT_TRUE(is_error(res.status));
      EXPECT_EQ(dec.next().status, res.status);
      break;
    }
    if (errored) break;
  }
  return dec.frames_decoded();
}

TEST(WireFuzz, MutatedFramesNeverCrash) {
  common::Rng rng{0xF0221};
  const std::size_t iters = fuzz_iterations();
  std::uint64_t decoded = 0;
  std::uint64_t clean = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    std::vector<std::uint8_t> stream;
    const std::size_t frames = 1 + rng.uniform_index(3);
    for (std::size_t f = 0; f < frames; ++f) {
      encode_frame(random_message(rng), stream);
    }
    const double roll = rng.uniform();
    if (roll < 0.35) {
      // Bit flips anywhere in the stream (header, length, CRC, body).
      const std::size_t flips = 1 + rng.uniform_index(4);
      for (std::size_t f = 0; f < flips; ++f) {
        stream[rng.uniform_index(stream.size())] ^=
            static_cast<std::uint8_t>(1U << rng.uniform_index(8));
      }
    } else if (roll < 0.55) {
      // Truncation mid-frame.
      stream.resize(rng.uniform_index(stream.size()));
    } else if (roll < 0.7) {
      // Garbage prefix/suffix around otherwise valid frames.
      std::vector<std::uint8_t> noise(1 + rng.uniform_index(24));
      for (auto& b : noise) {
        b = static_cast<std::uint8_t>(rng.uniform_index(256));
      }
      if (rng.bernoulli(0.5)) {
        stream.insert(stream.begin(), noise.begin(), noise.end());
      } else {
        stream.insert(stream.end(), noise.begin(), noise.end());
      }
    } else if (roll < 0.8) {
      // Pure random bytes — no valid framing at all.
      stream.assign(1 + rng.uniform_index(96), 0);
      for (auto& b : stream) {
        b = static_cast<std::uint8_t>(rng.uniform_index(256));
      }
    } else {
      ++clean;  // leave the stream valid: every frame must decode
      const std::uint64_t got = drain(rng, stream);
      EXPECT_EQ(got, frames) << "valid stream lost frames";
      continue;
    }
    if (!stream.empty()) decoded += drain(rng, stream);
  }
  // Sanity: the corpus actually exercised both paths.
  EXPECT_GT(clean, iters / 10);
  EXPECT_GT(decoded, 0U);  // truncations often keep whole leading frames
}

TEST(WireFuzz, HostileLengthPrefixesStayBounded) {
  // Headers with every interesting length value: the decoder must cap
  // allocation at max_body and never ask for more than advertised.
  common::Rng rng{0xF0222};
  for (std::uint32_t len :
       {0U, 1U, 0xFFFFU, (1U << 20U), (1U << 20U) + 1, 0x7FFFFFFFU,
        0xFFFFFFFFU}) {
    std::vector<std::uint8_t> header(kFrameHeaderBytes, 0);
    std::copy(kMagic.begin(), kMagic.end(), header.begin());
    header[4] = kProtocolVersion;
    header[5] = static_cast<std::uint8_t>(MessageType::kPullRequest);
    header[8] = static_cast<std::uint8_t>(len);
    header[9] = static_cast<std::uint8_t>(len >> 8U);
    header[10] = static_cast<std::uint8_t>(len >> 16U);
    header[11] = static_cast<std::uint8_t>(len >> 24U);
    FrameDecoder dec;
    dec.feed(header);
    const auto res = dec.next();
    if (len > dec.max_body_bytes()) {
      EXPECT_EQ(res.status, DecodeStatus::kOversized) << len;
    } else if (len == 0) {
      // A zero-length body is a *complete* frame (the empty body even
      // CRCs to the zeroed header field) — it must die in body parsing,
      // not crash or hand out a message.
      EXPECT_EQ(res.status, DecodeStatus::kMalformedBody) << len;
    } else {
      EXPECT_EQ(res.status, DecodeStatus::kNeedMore) << len;
      EXPECT_LE(dec.buffered_bytes(), kFrameHeaderBytes);
    }
  }
  (void)rng;
}

TEST(WireFuzz, BodyMutationsNeverSlipPollutedBlocks) {
  // The adversary this corpus models recomputes the frame CRC after
  // tampering (a CRC is framing, not security), so every mutated frame
  // reaches body parsing. The contract under test: a byte flipped
  // anywhere inside an otherwise-valid GOSSIP_BLOCK body either fails
  // decoding with a typed latched error, or decodes into a block that
  // the integrity check rejects with a typed verdict — never into a
  // block that verifies clean.
  common::Rng rng{0xF0223};
  proto::IntegrityAuthority auth{proto::IntegrityParams{0xB10C5ULL, 4}};
  const coding::SegmentId id{7, 3};
  constexpr std::size_t kS = 4;
  constexpr std::size_t kLen = 24;
  std::vector<std::vector<std::uint8_t>> originals(kS);
  for (auto& b : originals) {
    b.resize(kLen);
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.gf_element());
  }
  auth.register_segment(id, originals);

  coding::CodedBlock block;
  block.segment = id;
  block.coefficients.resize(kS);
  do {
    rng.fill_gf(block.coefficients);
  } while (block.is_degenerate());
  block.payload.assign(kLen, 0);
  for (std::size_t k = 0; k < kS; ++k) {
    for (std::size_t i = 0; i < kLen; ++i) {
      block.payload[i] = gf::GF256::add(
          block.payload[i],
          gf::GF256::mul(block.coefficients[k], originals[k][i]));
    }
  }
  const std::vector<std::uint8_t> frame =
      encoded_frame(Message{GossipBlock{block}});

  const auto patch_crc = [](std::vector<std::uint8_t>& f) {
    const std::uint32_t crc = common::crc32(
        {f.data() + kFrameHeaderBytes, f.size() - kFrameHeaderBytes});
    f[12] = static_cast<std::uint8_t>(crc);
    f[13] = static_cast<std::uint8_t>(crc >> 8U);
    f[14] = static_cast<std::uint8_t>(crc >> 16U);
    f[15] = static_cast<std::uint8_t>(crc >> 24U);
  };

  std::uint64_t decode_rejected = 0;
  std::uint64_t unknown_segment = 0;
  std::uint64_t shape_mismatch = 0;
  std::uint64_t check_failed = 0;
  std::uint64_t escapes = 0;
  const auto probe = [&](std::vector<std::uint8_t> f) {
    patch_crc(f);
    FrameDecoder dec;
    dec.feed(f);
    const auto res = dec.next();
    if (res.status != DecodeStatus::kFrame) {
      EXPECT_TRUE(is_error(res.status)) << to_string(res.status);
      EXPECT_EQ(dec.next().status, res.status);  // errors latch
      ++decode_rejected;
      return;
    }
    // Body flips cannot change the message type (it lives in the
    // header, which this corpus leaves alone).
    ASSERT_TRUE(std::holds_alternative<GossipBlock>(res.message));
    switch (auth.verify(std::get<GossipBlock>(res.message).block)) {
      case proto::VerifyResult::kOk: ++escapes; break;
      case proto::VerifyResult::kUnknownSegment: ++unknown_segment; break;
      case proto::VerifyResult::kShapeMismatch: ++shape_mismatch; break;
      case proto::VerifyResult::kCheckFailed: ++check_failed; break;
    }
  };

  // Sanity: the unmutated frame decodes and verifies clean.
  {
    std::vector<std::uint8_t> clean = frame;
    FrameDecoder dec;
    dec.feed(clean);
    const auto res = dec.next();
    ASSERT_EQ(res.status, DecodeStatus::kFrame);
    ASSERT_EQ(auth.verify(std::get<GossipBlock>(res.message).block),
              proto::VerifyResult::kOk);
  }

  // Exhaustive single-bit flips over every body byte: segment id flips
  // land in kUnknownSegment, length-field flips die in body parsing,
  // coefficient/payload flips land in kCheckFailed.
  for (std::size_t i = kFrameHeaderBytes; i < frame.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> f = frame;
      f[i] ^= static_cast<std::uint8_t>(1U << bit);
      probe(f);
    }
  }
  // Random multi-byte mutations for corpus breadth (1–4 flips).
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::uint8_t> f = frame;
    const std::size_t flips = 1 + rng.uniform_index(4);
    for (std::size_t k = 0; k < flips; ++k) {
      const std::size_t at =
          kFrameHeaderBytes + rng.uniform_index(f.size() - kFrameHeaderBytes);
      f[at] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    }
    probe(f);
  }

  EXPECT_EQ(escapes, 0U) << "a mutated block verified clean";
  // The corpus exercised every rejection tier.
  EXPECT_GT(decode_rejected, 0U);
  EXPECT_GT(unknown_segment, 0U);
  EXPECT_GT(check_failed, 0U);
}

}  // namespace
}  // namespace icollect::wire
