/// \file buffer_pool_test.cpp
/// Contract tests for the reactor's shared buffer freelist: reuse is
/// observable through hits/misses, the outstanding high-water mark
/// tracks peak checkout, and the two anti-hoarding rules (freelist cap,
/// max retained capacity) drop buffers instead of pinning memory. The
/// ASan preset runs these too, so every acquire/release pairing here is
/// also a leak check.

#include "net/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace icollect::net {
namespace {

TEST(BufferPool, HitRateIsOneBeforeAnyAcquire) {
  const BufferPool pool;
  EXPECT_DOUBLE_EQ(pool.hit_rate(), 1.0);
  const auto s = pool.stats();
  EXPECT_EQ(s.hits, 0U);
  EXPECT_EQ(s.misses, 0U);
  EXPECT_EQ(s.idle, 0U);
  EXPECT_EQ(s.outstanding, 0U);
}

TEST(BufferPool, FirstAcquireMissesThenReuseHits) {
  BufferPool pool;
  auto a = pool.acquire();
  EXPECT_GE(a.capacity(), BufferPool::Options{}.default_capacity);
  EXPECT_EQ(pool.stats().misses, 1U);
  EXPECT_EQ(pool.stats().outstanding, 1U);

  pool.release(std::move(a));
  EXPECT_EQ(pool.stats().idle, 1U);
  EXPECT_EQ(pool.stats().outstanding, 0U);

  auto b = pool.acquire();
  EXPECT_EQ(pool.stats().hits, 1U);
  EXPECT_EQ(pool.stats().misses, 1U);
  EXPECT_EQ(pool.stats().idle, 0U);
  EXPECT_DOUBLE_EQ(pool.hit_rate(), 0.5);
  pool.release(std::move(b));
}

TEST(BufferPool, RecycledBufferKeepsSizeAndContents) {
  // The no-clear contract: a recycled buffer comes back with whatever
  // size/contents it had (no zero-fill on reuse). Callers must assign()
  // or resize() before trusting the bytes.
  BufferPool pool;
  auto a = pool.acquire();
  a.assign(128, std::uint8_t{0xBE});
  pool.release(std::move(a));
  const auto b = pool.acquire();
  ASSERT_EQ(b.size(), 128U);
  EXPECT_EQ(b[0], std::uint8_t{0xBE});
  EXPECT_EQ(b[127], std::uint8_t{0xBE});
}

TEST(BufferPool, MinCapacityHonoredOnHitAndMiss) {
  BufferPool pool{BufferPool::Options{
      .max_buffers = 4,
      .default_capacity = 256,
      .max_retained_capacity = 1U << 20U}};
  auto small = pool.acquire();
  EXPECT_GE(small.capacity(), 256U);
  pool.release(std::move(small));
  // A hit must still satisfy min_capacity even when the recycled buffer
  // was smaller.
  const auto big = pool.acquire(4096);
  EXPECT_GE(big.capacity(), 4096U);
}

TEST(BufferPool, OutstandingHighWaterMarkTracksPeakCheckout) {
  BufferPool pool;
  std::vector<BufferPool::Buffer> held;
  held.reserve(8);
  for (int i = 0; i < 8; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.stats().outstanding, 8U);
  EXPECT_EQ(pool.stats().outstanding_hwm, 8U);
  for (auto& buf : held) pool.release(std::move(buf));
  held.clear();
  EXPECT_EQ(pool.stats().outstanding, 0U);
  // The mark is a high-water mark: it survives the drain.
  EXPECT_EQ(pool.stats().outstanding_hwm, 8U);
  auto one = pool.acquire();
  EXPECT_EQ(pool.stats().outstanding_hwm, 8U);
  pool.release(std::move(one));
}

TEST(BufferPool, FreelistCapDropsExcessReleases) {
  BufferPool pool{BufferPool::Options{
      .max_buffers = 2,
      .default_capacity = 64,
      .max_retained_capacity = 1U << 20U}};
  std::vector<BufferPool::Buffer> held;
  held.reserve(5);
  for (int i = 0; i < 5; ++i) held.push_back(pool.acquire());
  for (auto& buf : held) pool.release(std::move(buf));
  const auto s = pool.stats();
  EXPECT_EQ(s.releases, 5U);
  EXPECT_EQ(s.idle, 2U);     // capped at max_buffers
  EXPECT_EQ(s.dropped, 3U);  // the rest destructed
}

TEST(BufferPool, OversizedBufferNotRetained) {
  BufferPool pool{BufferPool::Options{
      .max_buffers = 16,
      .default_capacity = 64,
      .max_retained_capacity = 1024}};
  auto buf = pool.acquire(64U * 1024U);  // outgrows the retention cap
  EXPECT_GE(buf.capacity(), 64U * 1024U);
  pool.release(std::move(buf));
  const auto s = pool.stats();
  EXPECT_EQ(s.dropped, 1U);
  EXPECT_EQ(s.idle, 0U);
  EXPECT_EQ(s.idle_bytes, 0U);
}

TEST(BufferPool, IdleBytesReflectRetainedCapacity) {
  BufferPool pool{BufferPool::Options{
      .max_buffers = 8,
      .default_capacity = 512,
      .max_retained_capacity = 1U << 20U}};
  auto a = pool.acquire();
  auto b = pool.acquire();
  const std::size_t cap = a.capacity() + b.capacity();
  pool.release(std::move(a));
  pool.release(std::move(b));
  EXPECT_EQ(pool.stats().idle_bytes, cap);
}

}  // namespace
}  // namespace icollect::net
