#pragma once

/// \file buffer_pool.h
/// Freelist of byte buffers for the reactor's send queues, so frame
/// buffers are recycled instead of allocated per operation.
///
/// Every send() copies the caller's frame into a pooled buffer that
/// rides the connection's output queue until sendmsg drains it. In
/// steady state the pool therefore reaches a working-set high-water
/// mark and stops touching the allocator entirely — the
/// `hits / (hits + misses)` ratio exported through attach-style gauges
/// is the observable for that. Single-threaded, like the reactor that
/// owns it.
///
/// Two anti-hoarding rules keep a burst from pinning memory forever:
/// the freelist holds at most `max_buffers` idle buffers, and a buffer
/// whose capacity grew beyond `max_retained_capacity` is dropped on
/// release rather than cached (one 4 MiB outlier must not become a
/// permanent resident).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace icollect::net {

class BufferPool {
 public:
  using Buffer = std::vector<std::uint8_t>;

  struct Options {
    std::size_t max_buffers = 1024;  ///< idle buffers retained
    std::size_t default_capacity = 64U * 1024U;
    std::size_t max_retained_capacity = 1U << 20U;
  };

  BufferPool() : BufferPool(Options{}) {}
  explicit BufferPool(Options opts);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A buffer with capacity >= max(min_capacity, default). Reuses an
  /// idle pooled buffer when one is available (a *hit*), otherwise
  /// allocates fresh (a *miss*). Size and contents are unspecified —
  /// callers assign() or resize() before use.
  [[nodiscard]] Buffer acquire(std::size_t min_capacity = 0);

  /// Return a buffer to the freelist (size and capacity kept). Dropped
  /// instead when the freelist is full or the buffer outgrew
  /// max_retained_capacity.
  void release(Buffer&& buf);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t releases = 0;
    std::uint64_t dropped = 0;       ///< released buffers not retained
    std::size_t idle = 0;            ///< buffers in the freelist now
    std::size_t outstanding = 0;     ///< acquired and not yet released
    std::size_t outstanding_hwm = 0;
    std::size_t idle_bytes = 0;      ///< capacity held by the freelist
  };
  [[nodiscard]] Stats stats() const;

  /// hits / (hits + misses); 1.0 before any acquire.
  [[nodiscard]] double hit_rate() const;

 private:
  Options opts_;
  std::vector<Buffer> free_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t dropped_ = 0;
  std::size_t outstanding_ = 0;
  std::size_t outstanding_hwm_ = 0;
};

}  // namespace icollect::net
