#pragma once

/// \file epoll_reactor.h
/// Single-threaded, level-triggered epoll reactor — the live runtime's
/// real-socket transport, scaling one node to tens of thousands of
/// concurrent connections (docs/PERFORMANCE.md, "Reactor
/// architecture"). Linux-only.
///
/// Why epoll: a poll(2) loop rebuilds an n-entry pollfd array on every
/// wakeup and makes the kernel re-scan all n fds, so cost per wakeup is
/// O(n) whether 1 or 1000 sockets are ready. epoll registers interest
/// once and each wakeup costs O(ready).
///
/// Everything runs on the thread that calls poll_once(): one epoll_wait
/// per round, then accepts, reads (straight from one reactor-owned
/// chunk into the handler's on_bytes), connect completions, the timer
/// wheel, and last a flush of every connection send() queued to during
/// the round, so a burst to one peer leaves in one sendmsg of up to 64
/// iovecs. Send buffers come from a BufferPool, so steady state
/// allocates nothing. No thread, lock or handoff queue sits between a
/// socket and the TransportHandler: the NodeBase state machine stays
/// single-threaded exactly as over the loopback.
///
/// Connections: outbound connects are asynchronous with a per-attempt
/// timeout and a bounded retry budget (linear backoff); the handler
/// sees on_peer_up on success or on_peer_down once the budget is spent.
/// send() refuses (and counts) once `send_queue_cap_bytes` are queued
/// for the peer, so backpressure surfaces to the caller. An optional
/// idle timeout reaps silent connections. Connect timeouts, retries and
/// the reaper are timers on the node's own wheel (timers()). EINTR is
/// retried, never surfaced as a transport error. attach_metrics()
/// exports the always-maintained counters as pull-based gauges.
///
/// Callback contract: handler callbacks fire only from poll_once() and,
/// for close_peer(), synchronously from that call. connect() and send()
/// never call the handler — a connect that succeeds or fails at once
/// still reports from a later poll_once(). The destructor makes one
/// non-blocking flush attempt per open connection before closing it.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
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
    std::size_t send_queue_cap_bytes = 4U << 20U;
    double connect_timeout = 5.0;  ///< per attempt, seconds
    int connect_retries = 3;       ///< attempts after the first
    double retry_backoff = 0.5;    ///< seconds, grows linearly
    double idle_timeout = 0.0;     ///< close silent conns; 0 = off
    int listen_backlog = 0;        ///< listen(2) backlog; 0 = SOMAXCONN
    int so_sndbuf = 0;             ///< SO_SNDBUF per conn; 0 = kernel default
  };

  /// Throws std::runtime_error when the kernel refuses an epoll set.
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

  /// Node-level timers (gossip, TTL, pulls) and the reactor's own.
  /// Advanced off the wall clock by poll_once().
  [[nodiscard]] TimerWheel& timers() noexcept { return wheel_; }

  /// Wall-clock seconds since construction (the wheel's time base).
  [[nodiscard]] double now() const;

  /// One event-loop round: wait up to `max_wait` seconds (at most one
  /// wheel tick while timers are pending) for socket events, dispatch
  /// them to the handler, advance the timer wheel, then flush every
  /// connection queued to.
  void poll_once(double max_wait = 0.05);

  /// Connections not yet closed (established + still connecting).
  [[nodiscard]] std::size_t open_connections() const noexcept { return open_; }

  /// Export the counters into `registry` as pull-based gauges under
  /// `prefix`. The registry must outlive the reactor's use.
  void attach_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "epoll.");

  [[nodiscard]] const BufferPool& pool() const noexcept { return pool_; }

  // --- counters ------------------------------------------------------------
  [[nodiscard]] std::uint64_t backpressure_refusals() const noexcept {
    return refusals_;
  }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_;
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_;
  }
  [[nodiscard]] std::uint64_t sends() const noexcept { return sends_; }
  [[nodiscard]] std::uint64_t accepts() const noexcept { return accepts_; }
  [[nodiscard]] std::uint64_t connects_ok() const noexcept {
    return connects_ok_;
  }
  [[nodiscard]] std::uint64_t connects_failed() const noexcept {
    return connects_failed_;
  }
  [[nodiscard]] std::uint64_t connect_retries() const noexcept {
    return connect_retries_;
  }
  [[nodiscard]] std::uint64_t closes() const noexcept { return closes_; }
  [[nodiscard]] std::uint64_t idle_reaps() const noexcept { return reaps_; }
  [[nodiscard]] std::uint64_t partial_drains() const noexcept {
    return partial_drains_;
  }
  /// wakeups(): epoll_wait returns that carried at least one ready
  /// event (timeouts and EINTR returns do not count).
  /// events_dispatched(): the ready events they carried, so it is never
  /// below wakeups().
  [[nodiscard]] std::uint64_t wakeups() const noexcept { return wakeups_; }
  [[nodiscard]] std::uint64_t events_dispatched() const noexcept {
    return events_;
  }
  /// Bytes moved by vectored writes (every write is one, so this equals
  /// bytes_sent()) / the writev calls that moved them.
  [[nodiscard]] std::uint64_t batched_bytes() const noexcept {
    return bytes_sent_;
  }
  [[nodiscard]] std::uint64_t writev_calls() const noexcept {
    return writev_calls_;
  }
  [[nodiscard]] std::size_t send_queue_bytes() const noexcept {
    return outq_bytes_;
  }
  [[nodiscard]] std::size_t send_queue_high_watermark() const noexcept {
    return outq_hwm_;
  }

 private:
  struct Conn;  ///< defined in the .cpp

  void start_connect_attempt(Conn& conn);
  void fail_connect(Conn& conn);
  void finish_connect(Conn& conn);
  void accept_all();
  void on_readable(Conn& conn);
  [[nodiscard]] bool flush(Conn& conn);
  void flush_dirty();
  void close_conn(Conn& conn);
  void update_interest(Conn& conn);
  void reap_idle();
  [[nodiscard]] Conn* find(NodeId id);

  Options opts_;
  TimerWheel wheel_;
  TransportHandler* handler_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
  BufferPool pool_;  ///< send buffers
  std::vector<std::uint8_t> read_buf_;  ///< every recv lands here
  int epfd_ = -1;
  int listen_fd_ = -1;
  NodeId next_id_ = 1;
  double round_now_ = 0.0;  ///< now() as of the round's epoll_wait return

  std::unordered_map<NodeId, std::unique_ptr<Conn>> conns_;
  std::vector<Conn*> dirty_;  ///< queued to since their last flush
  std::vector<NodeId> dead_;  ///< closed; erased at the end of the round
  std::size_t open_ = 0;

  std::uint64_t refusals_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t accepts_ = 0;
  std::uint64_t connects_ok_ = 0;
  std::uint64_t connects_failed_ = 0;
  std::uint64_t connect_retries_ = 0;
  std::uint64_t closes_ = 0;
  std::uint64_t reaps_ = 0;
  std::uint64_t partial_drains_ = 0;
  std::uint64_t wakeups_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t writev_calls_ = 0;
  std::size_t outq_bytes_ = 0;
  std::size_t outq_hwm_ = 0;
};

}  // namespace icollect::net
