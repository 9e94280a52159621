#pragma once

/// \file epoll_reactor.h
/// Level-triggered epoll reactor sharded across threads — the live
/// runtime's real-socket transport, scaling one node to tens of
/// thousands of concurrent connections (docs/PERFORMANCE.md, "Reactor
/// architecture"). Linux-only.
///
/// Why epoll: a poll(2) loop rebuilds an n-entry pollfd array on every
/// wakeup and makes the kernel re-scan all n fds, so cost per wakeup is
/// O(n) whether 1 or 1000 sockets are ready. epoll registers interest
/// once and each wakeup costs O(ready). On top of that this reactor adds
/// three scalability ingredients (libtorrent's session/peer-connection
/// layering is the exemplar):
///
///  - **Sharding.** Connections are distributed over R reactor threads
///    by connection-id hash (round-robin in practice); each shard owns
///    its own epoll set, eventfd wakeup, TimerWheel (connect timeouts,
///    retries, idle reaping) and the fds pinned to it, so no fd is ever
///    touched by two threads.
///  - **Pooled buffers.** Every read lands in a BufferPool buffer that
///    is handed to the dispatch thread by move and recycled; every
///    send() copies its frame into a pooled buffer that rides the
///    connection's output queue. Steady state allocates nothing.
///  - **Batching.** Queued frames drain through writev (one syscall for
///    up to kMaxIov frames) and reads drain until EAGAIN, so a busy
///    wakeup moves many frames per syscall.
///
/// Connection behaviour: outbound connects are asynchronous with a
/// per-attempt timeout and a bounded retry budget (linear backoff); the
/// handler sees on_peer_up on success or on_peer_down once the budget
/// is spent. Every connection has a bounded send queue, and send()
/// refuses (and counts) once `send_queue_cap_bytes` are already queued,
/// so backpressure surfaces to the caller instead of ballooning memory.
/// An optional idle timeout reaps connections that have gone silent.
/// Interrupted syscalls (EINTR, e.g. the SIGUSR1 stats dump) are
/// retried, never surfaced as transport errors. Counters are always
/// maintained; attach_metrics() exports them as pull-based gauges.
///
/// Threading contract: the public API (listen/connect/send/close_peer/
/// poll_once/timers) is driven by ONE thread — the same thread that
/// constructed the reactor ("the main thread"). Shard threads never run
/// handler code; they forward lifecycle and byte events through a
/// mutex-guarded handoff queue that poll_once() drains, so
/// TransportHandler callbacks (and therefore the whole NodeBase state
/// machine) stay single-threaded exactly as over the loopback.
/// timers() is the node-level wheel and fires in poll_once.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/buffer_pool.h"
#include "net/timer_wheel.h"
#include "net/transport.h"
#include "obs/metrics_registry.h"

namespace icollect::net {

class EpollReactor final : public Transport {
 public:
  struct Options {
    double tick_seconds = 0.001;  ///< TimerWheel granularity
    std::size_t send_queue_cap_bytes = 4U << 20U;
    std::size_t read_chunk_bytes = 64U * 1024U;
    double connect_timeout = 5.0;  ///< per attempt, seconds
    int connect_retries = 3;       ///< attempts after the first
    double retry_backoff = 0.5;    ///< seconds, grows linearly
    double idle_timeout = 0.0;     ///< close silent conns; 0 = off
    int listen_backlog = 0;        ///< listen(2) backlog; 0 = SOMAXCONN
    int so_sndbuf = 0;             ///< SO_SNDBUF per conn; 0 = kernel default
    std::size_t reactor_shards = 0;       ///< reactor threads; 0 = auto
    std::size_t pool_max_buffers = 4096;  ///< idle buffers the pool retains
  };

  /// Starts the shard threads. Throws std::runtime_error when the
  /// kernel refuses an epoll set or eventfd.
  EpollReactor();
  explicit EpollReactor(Options opts);
  ~EpollReactor() override;

  EpollReactor(const EpollReactor&) = delete;
  EpollReactor& operator=(const EpollReactor&) = delete;

  void set_handler(TransportHandler* handler) override { handler_ = handler; }

  /// Bind + listen. Pass port 0 for an ephemeral port; the bound port
  /// is returned either way. Throws std::runtime_error on failure.
  std::uint16_t listen(const std::string& host, std::uint16_t port);

  /// Begin an asynchronous connect; returns the connection handle
  /// immediately. Outcome arrives as on_peer_up / on_peer_down.
  NodeId connect(const std::string& host, std::uint16_t port);

  bool send(NodeId peer, std::span<const std::uint8_t> bytes) override;
  void close_peer(NodeId peer) override;

  /// Node-level timers (gossip, TTL, pulls). Advanced off the wall
  /// clock by poll_once(); use only from the driving thread.
  [[nodiscard]] TimerWheel& timers() noexcept { return wheel_; }

  /// Wall-clock seconds since construction (the wheel's time base).
  [[nodiscard]] double now() const;

  /// One event-loop round: wait up to `max_wait` seconds for shard
  /// events, dispatch handler callbacks, then advance the timer wheel.
  void poll_once(double max_wait = 0.05);

  /// Connections not yet closed (established + still connecting).
  [[nodiscard]] std::size_t open_connections() const;

  /// Export the counters into `registry` as pull-based gauges under
  /// `prefix`. The registry must outlive the reactor's use.
  void attach_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "epoll.");

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const BufferPool& pool() const noexcept { return pool_; }

  // --- counters (readable from the driving thread at any time) -----------
  [[nodiscard]] std::uint64_t backpressure_refusals() const noexcept {
    return refusals_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sends() const noexcept {
    return sends_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t accepts() const noexcept {
    return accepts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t connects_ok() const noexcept {
    return connects_ok_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t connects_failed() const noexcept {
    return connects_failed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t connect_retries() const noexcept {
    return connect_retries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t closes() const noexcept {
    return closes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t idle_reaps() const noexcept {
    return reaps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t partial_drains() const noexcept {
    return partial_drains_.load(std::memory_order_relaxed);
  }
  /// wakeups(): epoll_wait returns, across all shards, that carried at
  /// least one ready event (timeouts and EINTR returns do not count).
  /// events_dispatched(): the ready events they carried, so it is never
  /// below wakeups().
  [[nodiscard]] std::uint64_t wakeups() const noexcept {
    return wakeups_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t events_dispatched() const noexcept {
    return events_.load(std::memory_order_relaxed);
  }
  /// Bytes moved by vectored writes / the writev calls that moved them.
  [[nodiscard]] std::uint64_t batched_bytes() const noexcept {
    return batched_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t writev_calls() const noexcept {
    return writev_calls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t send_queue_bytes() const noexcept {
    return outq_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t send_queue_high_watermark() const noexcept {
    return outq_hwm_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t shard_connections(std::size_t shard) const;

 private:
  /// State shared between the main thread and the owning shard for one
  /// connection. shared_ptr-held so neither side ever dereferences a
  /// freed entry whatever the teardown interleaving.
  struct ConnShared {
    NodeId id = kInvalidNodeId;
    std::uint32_t shard = 0;
    std::atomic<std::size_t> queued{0};  ///< unsent bytes (cap accounting)
    std::atomic<bool> closed_by_user{false};
  };
  using SharedRef = std::shared_ptr<ConnShared>;

  struct Command {
    enum class Kind : std::uint8_t {
      kConnect,
      kAdopt,   ///< accepted fd handed to its home shard
      kSend,
      kClose,   ///< user-initiated; flush best-effort, no Down notify
      kListen,  ///< register the (already bound) listen fd
    };
    Kind kind;
    SharedRef shared;
    BufferPool::Buffer buf;  ///< kSend: the frame bytes
    std::string host;        ///< kConnect
    std::uint16_t port = 0;  ///< kConnect
    int fd = -1;             ///< kAdopt / kListen
  };

  struct Event {
    enum class Kind : std::uint8_t { kUp, kDown, kBytes };
    Kind kind;
    SharedRef shared;
    BufferPool::Buffer buf;  ///< kBytes
    std::size_t len = 0;     ///< kBytes: valid prefix of buf
  };

  struct Conn;   ///< shard-owned; defined in the .cpp
  struct Shard;  ///< defined in the .cpp

  void enqueue_command(std::uint32_t shard, Command&& cmd);
  void push_event(Event&& ev);
  void shard_main(Shard& shard);

  // Shard-side helpers (run on shard threads).
  void shard_run_commands(Shard& shard, std::vector<Command>& cmds);
  void shard_accept(Shard& shard);
  void shard_connect_attempt(Shard& shard, Conn& conn);
  void shard_fail_connect(Shard& shard, Conn& conn);
  void shard_finish_connect(Shard& shard, Conn& conn);
  void shard_readable(Shard& shard, Conn& conn);
  void shard_writable(Shard& shard, Conn& conn);
  void shard_flush(Shard& shard, Conn& conn);
  void shard_close(Shard& shard, Conn& conn);
  void shard_update_interest(Shard& shard, Conn& conn);
  void shard_reap_idle(Shard& shard);

  Options opts_;
  TimerWheel wheel_;  ///< node-level timers; main thread only
  TransportHandler* handler_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  BufferPool pool_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};
  std::atomic<NodeId> next_id_{1};
  bool listening_ = false;

  // Main-thread view of live connections (send/close routing).
  std::unordered_map<NodeId, SharedRef> peers_;

  // Shard → main handoff queue.
  std::mutex ev_mu_;
  std::condition_variable ev_cv_;
  std::vector<Event> ev_queue_;
  std::vector<Event> ev_local_;  ///< main-thread swap target

  std::atomic<std::uint64_t> refusals_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> sends_{0};
  std::atomic<std::uint64_t> accepts_{0};
  std::atomic<std::uint64_t> connects_ok_{0};
  std::atomic<std::uint64_t> connects_failed_{0};
  std::atomic<std::uint64_t> connect_retries_{0};
  std::atomic<std::uint64_t> closes_{0};
  std::atomic<std::uint64_t> reaps_{0};
  std::atomic<std::uint64_t> partial_drains_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> batched_bytes_{0};
  std::atomic<std::uint64_t> writev_calls_{0};
  std::atomic<std::size_t> outq_bytes_{0};
  std::atomic<std::size_t> outq_hwm_{0};
};

}  // namespace icollect::net

