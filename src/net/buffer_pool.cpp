#include "net/buffer_pool.h"

#include <utility>

#include "common/assert.h"

namespace icollect::net {

BufferPool::BufferPool(Options opts) : opts_{opts} {
  ICOLLECT_EXPECTS(opts.max_buffers > 0);
  ICOLLECT_EXPECTS(opts.default_capacity > 0);
  ICOLLECT_EXPECTS(opts.max_retained_capacity >= opts.default_capacity);
  free_.reserve(opts.max_buffers);
}

BufferPool::Buffer BufferPool::acquire(std::size_t min_capacity) {
  const std::size_t want =
      min_capacity > opts_.default_capacity ? min_capacity
                                            : opts_.default_capacity;
  Buffer buf;
  ++outstanding_;
  if (outstanding_ > outstanding_hwm_) outstanding_hwm_ = outstanding_;
  if (!free_.empty()) {
    // Prefer the most recently released buffer (back of the freelist):
    // it is the one most likely still cache-warm.
    buf = std::move(free_.back());
    free_.pop_back();
    ++hits_;
  } else {
    ++misses_;
  }
  if (buf.capacity() < want) buf.reserve(want);
  return buf;
}

void BufferPool::release(Buffer&& buf) {
  Buffer local = std::move(buf);  // taken even when dropped
  if (outstanding_ > 0) --outstanding_;
  ++releases_;
  if (free_.size() >= opts_.max_buffers ||
      local.capacity() > opts_.max_retained_capacity) {
    ++dropped_;
    return;
  }
  free_.push_back(std::move(local));
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.releases = releases_;
  s.dropped = dropped_;
  s.idle = free_.size();
  s.outstanding = outstanding_;
  s.outstanding_hwm = outstanding_hwm_;
  for (const auto& b : free_) s.idle_bytes += b.capacity();
  return s;
}

double BufferPool::hit_rate() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 1.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

}  // namespace icollect::net
