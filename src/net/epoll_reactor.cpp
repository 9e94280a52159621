#include "net/epoll_reactor.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/assert.h"

namespace icollect::net {

namespace {

// epoll_event.data tags for the two non-connection fds each shard may
// watch. Conn pointers are heap-allocated and can never equal these.
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenTag = 1;

// Frames batched into one sendmsg; reads drained per readable fd before
// yielding to the next ready fd (fairness under level-triggered epoll).
constexpr int kMaxIov = 64;
constexpr int kMaxReadsPerEvent = 16;

int make_nonblocking_socket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool make_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
}

bool resolve_ipv4(const std::string& host, std::uint16_t port,
                  sockaddr_in& out) {
  std::memset(&out, 0, sizeof out);
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0") {
    out.sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (host == "localhost") {
    out.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

}  // namespace

/// Shard-owned connection state. Touched only by its home shard thread
/// (the ConnShared block inside `shared` is the cross-thread part).
struct EpollReactor::Conn {
  enum class State : std::uint8_t { kConnecting, kUp, kClosed };

  struct Out {
    BufferPool::Buffer buf;
    std::size_t off = 0;  ///< consumed prefix (partial writev)
  };

  SharedRef shared;
  int fd = -1;
  State state = State::kConnecting;
  bool outbound = false;
  bool registered = false;      ///< fd present in the shard's epoll set
  bool flush_pending = false;   ///< queued for a post-mailbox flush
  std::uint32_t interest = 0;   ///< epoll mask currently registered
  std::string host;             ///< outbound only, for retries
  std::uint16_t port = 0;
  int attempts = 0;
  TimerWheel::TimerId connect_timer = TimerWheel::kInvalidTimer;
  std::deque<Out> outq;
  double last_activity = 0.0;
};

/// One reactor thread: its epoll set, eventfd wakeup, command mailbox,
/// timer wheel, and the connections pinned to it.
struct EpollReactor::Shard {
  explicit Shard(double tick_seconds) : wheel{tick_seconds} {}
  // The shard thread never closes these: the destructor may still be
  // writing wake_fd to stop it, so they go only after it was joined.
  ~Shard() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    if (epfd >= 0) ::close(epfd);
  }
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  std::uint32_t index = 0;
  int epfd = -1;
  int wake_fd = -1;
  int listen_fd = -1;  ///< shard 0 only
  TimerWheel wheel;    ///< shard-local: connect timeouts/retries, idle reap
  std::thread thread;

  std::mutex mu;
  std::vector<Command> mailbox;  ///< guarded by mu
  bool signaled = false;         ///< guarded by mu: eventfd write pending

  std::unordered_map<NodeId, std::unique_ptr<Conn>> conns;
  std::vector<NodeId> dead;  ///< closed this round, erased at loop bottom
  std::atomic<std::size_t> nconns{0};
};

EpollReactor::EpollReactor() : EpollReactor(Options{}) {}

EpollReactor::EpollReactor(Options opts)
    : opts_{opts},
      wheel_{opts.tick_seconds},
      epoch_{std::chrono::steady_clock::now()},
      pool_{BufferPool::Options{
          /*max_buffers=*/opts.pool_max_buffers > 0 ? opts.pool_max_buffers
                                                    : 4096,
          /*default_capacity=*/opts.read_chunk_bytes,
          /*max_retained_capacity=*/
          std::max<std::size_t>(1U << 20U, opts.read_chunk_bytes)}} {
  ICOLLECT_EXPECTS(opts.read_chunk_bytes > 0);
  ICOLLECT_EXPECTS(opts.connect_timeout > 0.0);
  ICOLLECT_EXPECTS(opts.connect_retries >= 0);
  ICOLLECT_EXPECTS(opts.listen_backlog >= 0);
  ICOLLECT_EXPECTS(opts.so_sndbuf >= 0);

  std::size_t n = opts.reactor_shards;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = std::clamp<std::size_t>(hw == 0 ? 2 : hw, 1, 8);
  }
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>(opts_.tick_seconds);
    shard->index = static_cast<std::uint32_t>(i);
    shard->epfd = ::epoll_create1(0);
    if (shard->epfd < 0) {
      throw std::runtime_error("epoll: epoll_create1 failed");
    }
    shard->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (shard->wake_fd < 0) throw std::runtime_error("epoll: eventfd failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(shard->epfd, EPOLL_CTL_ADD, shard->wake_fd, &ev) < 0) {
      throw std::runtime_error("epoll: epoll_ctl(wake) failed");
    }
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread{[this, s = shard.get()] { shard_main(*s); }};
  }
}

EpollReactor::~EpollReactor() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  for (auto& shard : shards_) {
    ssize_t rc;
    do {
      rc = ::write(shard->wake_fd, &one, sizeof one);
    } while (rc < 0 && errno == EINTR);
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  shards_.clear();  // every thread is gone: now the fds may close
}

double EpollReactor::now() const {
  const auto dt = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(dt).count();
}

std::uint16_t EpollReactor::listen(const std::string& host,
                                   std::uint16_t port) {
  ICOLLECT_EXPECTS(!listening_);
  sockaddr_in addr{};
  if (!resolve_ipv4(host, port, addr)) {
    throw std::runtime_error("epoll: cannot resolve listen host " + host);
  }
  const int fd = make_nonblocking_socket();
  if (fd < 0) throw std::runtime_error("epoll: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string{"epoll: bind failed: "} +
                             std::strerror(err));
  }
  const int backlog =
      opts_.listen_backlog > 0 ? opts_.listen_backlog : SOMAXCONN;
  if (::listen(fd, backlog) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string{"epoll: listen failed: "} +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(fd);
    throw std::runtime_error("epoll: getsockname failed");
  }
  listening_ = true;
  Command cmd;
  cmd.kind = Command::Kind::kListen;
  cmd.fd = fd;
  enqueue_command(0, std::move(cmd));
  return ntohs(bound.sin_port);
}

NodeId EpollReactor::connect(const std::string& host, std::uint16_t port) {
  const NodeId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  auto shared = std::make_shared<ConnShared>();
  shared->id = id;
  shared->shard = static_cast<std::uint32_t>(id % shards_.size());
  const std::uint32_t shard = shared->shard;
  peers_.emplace(id, shared);
  Command cmd;
  cmd.kind = Command::Kind::kConnect;
  cmd.shared = std::move(shared);
  cmd.host = host;
  cmd.port = port;
  enqueue_command(shard, std::move(cmd));
  return id;
}

bool EpollReactor::send(NodeId peer, std::span<const std::uint8_t> bytes) {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return false;
  const SharedRef& shared = it->second;
  if (shared->closed_by_user.load(std::memory_order_relaxed)) return false;
  const std::size_t n = bytes.size();
  if (shared->queued.load(std::memory_order_relaxed) + n >
      opts_.send_queue_cap_bytes) {
    refusals_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  BufferPool::Buffer buf = pool_.acquire(n);
  buf.assign(bytes.begin(), bytes.end());
  shared->queued.fetch_add(n, std::memory_order_relaxed);
  const std::size_t total =
      outq_bytes_.fetch_add(n, std::memory_order_relaxed) + n;
  if (total > outq_hwm_.load(std::memory_order_relaxed)) {
    outq_hwm_.store(total, std::memory_order_relaxed);
  }
  sends_.fetch_add(1, std::memory_order_relaxed);
  Command cmd;
  cmd.kind = Command::Kind::kSend;
  cmd.shared = shared;
  cmd.buf = std::move(buf);
  enqueue_command(shared->shard, std::move(cmd));
  return true;
}

void EpollReactor::close_peer(NodeId peer) {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  SharedRef shared = it->second;
  peers_.erase(it);
  if (shared->closed_by_user.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  Command cmd;
  cmd.kind = Command::Kind::kClose;
  cmd.shared = shared;
  enqueue_command(shared->shard, std::move(cmd));
  // Synchronous like the loopback's close_peer: the handler sees the
  // down before this call returns; the shard's own Down event is
  // swallowed by the closed_by_user flag.
  if (handler_ != nullptr) handler_->on_peer_down(peer);
}

std::size_t EpollReactor::open_connections() const { return peers_.size(); }

std::size_t EpollReactor::shard_connections(std::size_t shard) const {
  ICOLLECT_EXPECTS(shard < shards_.size());
  return shards_[shard]->nconns.load(std::memory_order_relaxed);
}

void EpollReactor::poll_once(double max_wait) {
  ev_local_.clear();
  {
    std::unique_lock<std::mutex> lock{ev_mu_};
    if (ev_queue_.empty()) {
      // Never oversleep the node-level wheel: its timers (gossip, pulls,
      // TTL) must keep firing even with no network events arriving.
      double wait = max_wait;
      if (wheel_.pending() > 0) wait = std::min(wait, opts_.tick_seconds);
      if (wait > 0.0) {
        ev_cv_.wait_for(lock, std::chrono::duration<double>(wait),
                        [this] { return !ev_queue_.empty(); });
      }
    }
    ev_local_.swap(ev_queue_);
  }
  for (Event& ev : ev_local_) {
    SharedRef& shared = ev.shared;
    const bool closed =
        shared->closed_by_user.load(std::memory_order_relaxed);
    switch (ev.kind) {
      case Event::Kind::kUp:
        if (closed) break;
        peers_.emplace(shared->id, shared);  // no-op for outbound conns
        if (handler_ != nullptr) handler_->on_peer_up(shared->id);
        break;
      case Event::Kind::kDown:
        if (closed) break;  // user already saw the down in close_peer
        peers_.erase(shared->id);
        if (handler_ != nullptr) handler_->on_peer_down(shared->id);
        break;
      case Event::Kind::kBytes:
        if (!closed && handler_ != nullptr) {
          handler_->on_bytes(shared->id, {ev.buf.data(), ev.len});
        }
        pool_.release(std::move(ev.buf));
        break;
    }
  }
  ev_local_.clear();  // drop ConnShared refs promptly
  wheel_.advance_to(now());
}

void EpollReactor::attach_metrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) {
  // Zero hot-path cost: counters are always maintained (relaxed atomic
  // adds); the registry reads them only at snapshot time through pull
  // gauges.
  const auto count = [&](const char* name,
                         const std::atomic<std::uint64_t>* v) {
    registry.gauge(prefix + name, [v] {
      return static_cast<double>(v->load(std::memory_order_relaxed));
    });
  };
  count("bytes_out", &bytes_sent_);
  count("bytes_in", &bytes_received_);
  count("sends", &sends_);
  count("accepts", &accepts_);
  count("connects_ok", &connects_ok_);
  count("connects_failed", &connects_failed_);
  count("connect_retries", &connect_retries_);
  count("queue_drops", &refusals_);
  count("closes", &closes_);
  count("reaps", &reaps_);
  count("partial_drains", &partial_drains_);
  count("wakeups", &wakeups_);
  count("events", &events_);
  count("writev_calls", &writev_calls_);
  count("batched_bytes", &batched_bytes_);
  registry.gauge(prefix + "events_per_wakeup", [this] {
    const auto w = wakeups_.load(std::memory_order_relaxed);
    const auto e = events_.load(std::memory_order_relaxed);
    return w == 0 ? 0.0
                  : static_cast<double>(e) / static_cast<double>(w);
  });
  registry.gauge(prefix + "conns", [this] {
    return static_cast<double>(open_connections());
  });
  registry.gauge(prefix + "outq_bytes", [this] {
    return static_cast<double>(outq_bytes_.load(std::memory_order_relaxed));
  });
  registry.gauge(prefix + "outq_hwm", [this] {
    return static_cast<double>(outq_hwm_.load(std::memory_order_relaxed));
  });
  registry.gauge(prefix + "pool_hits", [this] {
    return static_cast<double>(pool_.stats().hits);
  });
  registry.gauge(prefix + "pool_misses", [this] {
    return static_cast<double>(pool_.stats().misses);
  });
  registry.gauge(prefix + "pool_hit_rate", [this] { return pool_.hit_rate(); });
  registry.gauge(prefix + "pool_idle", [this] {
    return static_cast<double>(pool_.stats().idle);
  });
  registry.gauge(prefix + "pool_outstanding_hwm", [this] {
    return static_cast<double>(pool_.stats().outstanding_hwm);
  });
  registry.gauge(prefix + "shards", [this] {
    return static_cast<double>(shards_.size());
  });
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    registry.gauge(prefix + "shard" + std::to_string(i) + ".conns",
                   [this, i] {
                     return static_cast<double>(shard_connections(i));
                   });
  }
}

// ----------------------------------------------------------------------
// Cross-thread plumbing
// ----------------------------------------------------------------------

void EpollReactor::enqueue_command(std::uint32_t shard, Command&& cmd) {
  Shard& s = *shards_[shard];
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> lock{s.mu};
    s.mailbox.push_back(std::move(cmd));
    if (!s.signaled) {
      s.signaled = true;
      need_wake = true;
    }
  }
  if (need_wake) {
    const std::uint64_t one = 1;
    ssize_t rc;
    do {
      rc = ::write(s.wake_fd, &one, sizeof one);
    } while (rc < 0 && errno == EINTR);
  }
}

void EpollReactor::push_event(Event&& ev) {
  std::lock_guard<std::mutex> lock{ev_mu_};
  const bool was_empty = ev_queue_.empty();
  ev_queue_.push_back(std::move(ev));
  if (was_empty) ev_cv_.notify_one();
}

// ----------------------------------------------------------------------
// Shard threads
// ----------------------------------------------------------------------

void EpollReactor::shard_main(Shard& shard) {
  if (opts_.idle_timeout > 0.0) {
    // Periodic reaper; reschedules itself inside shard_reap_idle.
    shard.wheel.schedule_after(opts_.idle_timeout / 2.0,
                               [this, &shard] { shard_reap_idle(shard); });
  }
  std::array<epoll_event, 256> evs{};
  std::vector<Command> cmds;
  while (!stop_.load(std::memory_order_acquire)) {
    const int timeout_ms = shard.wheel.pending() > 0 ? 10 : 200;
    int n = ::epoll_wait(shard.epfd, evs.data(),
                         static_cast<int>(evs.size()), timeout_ms);
    if (n < 0) {
      if (errno != EINTR) break;
      n = 0;
    }
    if (n > 0) {
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      events_.fetch_add(static_cast<std::uint64_t>(n),
                        std::memory_order_relaxed);
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = evs[static_cast<std::size_t>(i)];
      if (ev.data.u64 == kWakeTag) {
        std::uint64_t drained = 0;
        ssize_t rc;
        do {
          rc = ::read(shard.wake_fd, &drained, sizeof drained);
        } while (rc < 0 && errno == EINTR);
        continue;
      }
      if (ev.data.u64 == kListenTag) {
        shard_accept(shard);
        continue;
      }
      auto* conn = static_cast<Conn*>(ev.data.ptr);
      if (conn->state == Conn::State::kClosed) continue;
      if ((ev.events & EPOLLOUT) != 0U) shard_writable(shard, *conn);
      if (conn->state != Conn::State::kClosed &&
          (ev.events & EPOLLIN) != 0U) {
        shard_readable(shard, *conn);
      }
      if (conn->state != Conn::State::kClosed &&
          (ev.events & (EPOLLERR | EPOLLHUP)) != 0U &&
          (ev.events & (EPOLLIN | EPOLLOUT)) == 0U) {
        // Pure error event (not delivered alongside IO we just handled).
        shard_close(shard, *conn);
      }
    }
    cmds.clear();
    {
      std::lock_guard<std::mutex> lock{shard.mu};
      cmds.swap(shard.mailbox);
      shard.signaled = false;
    }
    if (!cmds.empty()) shard_run_commands(shard, cmds);
    shard.wheel.advance_to(now());
    if (!shard.dead.empty()) {
      for (const NodeId id : shard.dead) shard.conns.erase(id);
      shard.dead.clear();
    }
  }
  for (auto& [id, conn] : shard.conns) {
    if (conn->fd >= 0) ::close(conn->fd);
    for (auto& out : conn->outq) pool_.release(std::move(out.buf));
  }
  shard.conns.clear();
  // Commands still in the mailbox may carry live fds (kListen/kAdopt
  // enqueued right before shutdown); close them or the sockets — and a
  // listening port — outlive the reactor.
  cmds.clear();
  {
    std::lock_guard<std::mutex> lock{shard.mu};
    cmds.swap(shard.mailbox);
  }
  for (Command& cmd : cmds) {
    if (cmd.fd >= 0) ::close(cmd.fd);
  }
}

void EpollReactor::shard_run_commands(Shard& shard,
                                      std::vector<Command>& cmds) {
  // Sends are appended first and flushed once per connection after the
  // whole mailbox is applied, so a burst of frames to one peer leaves
  // through a single writev instead of one syscall each.
  std::vector<Conn*> touched;
  for (Command& cmd : cmds) {
    switch (cmd.kind) {
      case Command::Kind::kListen: {
        shard.listen_fd = cmd.fd;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = kListenTag;
        ::epoll_ctl(shard.epfd, EPOLL_CTL_ADD, shard.listen_fd, &ev);
        break;
      }
      case Command::Kind::kConnect: {
        auto conn = std::make_unique<Conn>();
        conn->shared = std::move(cmd.shared);
        conn->outbound = true;
        conn->host = std::move(cmd.host);
        conn->port = cmd.port;
        conn->last_activity = now();
        Conn& ref = *conn;
        shard.conns.emplace(ref.shared->id, std::move(conn));
        shard.nconns.fetch_add(1, std::memory_order_relaxed);
        shard_connect_attempt(shard, ref);
        break;
      }
      case Command::Kind::kAdopt: {
        auto conn = std::make_unique<Conn>();
        conn->shared = std::move(cmd.shared);
        conn->fd = cmd.fd;
        conn->state = Conn::State::kUp;
        conn->last_activity = now();
        Conn& ref = *conn;
        shard.conns.emplace(ref.shared->id, std::move(conn));
        shard.nconns.fetch_add(1, std::memory_order_relaxed);
        shard_update_interest(shard, ref);
        Event up;
        up.kind = Event::Kind::kUp;
        up.shared = ref.shared;
        push_event(std::move(up));
        break;
      }
      case Command::Kind::kSend: {
        const auto it = shard.conns.find(cmd.shared->id);
        if (it == shard.conns.end() ||
            it->second->state == Conn::State::kClosed) {
          // Raced with a close: unwind the accounting done in send().
          const std::size_t n = cmd.buf.size();
          cmd.shared->queued.fetch_sub(n, std::memory_order_relaxed);
          outq_bytes_.fetch_sub(n, std::memory_order_relaxed);
          pool_.release(std::move(cmd.buf));
          break;
        }
        Conn& conn = *it->second;
        conn.outq.push_back(Conn::Out{std::move(cmd.buf), 0});
        if (conn.state == Conn::State::kUp && !conn.flush_pending) {
          conn.flush_pending = true;
          touched.push_back(&conn);
        }
        break;
      }
      case Command::Kind::kClose: {
        const auto it = shard.conns.find(cmd.shared->id);
        if (it == shard.conns.end()) break;
        Conn& conn = *it->second;
        if (conn.state == Conn::State::kUp) shard_flush(shard, conn);
        shard_close(shard, conn);
        break;
      }
    }
  }
  for (Conn* conn : touched) {
    conn->flush_pending = false;
    if (conn->state == Conn::State::kUp) shard_flush(shard, *conn);
  }
}

void EpollReactor::shard_accept(Shard& shard) {
  for (;;) {
    const int cfd = ::accept(shard.listen_fd, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or transient accept failure (EMFILE...)
    }
    if (!make_nonblocking(cfd)) {
      ::close(cfd);
      continue;
    }
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (opts_.so_sndbuf > 0) {
      ::setsockopt(cfd, SOL_SOCKET, SO_SNDBUF, &opts_.so_sndbuf,
                   sizeof opts_.so_sndbuf);
    }
    accepts_.fetch_add(1, std::memory_order_relaxed);
    const NodeId id = next_id_.fetch_add(1, std::memory_order_relaxed);
    auto shared = std::make_shared<ConnShared>();
    shared->id = id;
    shared->shard = static_cast<std::uint32_t>(id % shards_.size());
    Command cmd;
    cmd.kind = Command::Kind::kAdopt;
    cmd.shared = std::move(shared);
    cmd.fd = cfd;
    if (cmd.shared->shard == shard.index) {
      // Home shard is this one: adopt inline, skip the mailbox hop.
      std::vector<Command> inline_cmds;
      inline_cmds.push_back(std::move(cmd));
      shard_run_commands(shard, inline_cmds);
    } else {
      enqueue_command(cmd.shared->shard, std::move(cmd));
    }
  }
}

void EpollReactor::shard_connect_attempt(Shard& shard, Conn& conn) {
  ++conn.attempts;
  if (conn.attempts > 1) connect_retries_.fetch_add(1, std::memory_order_relaxed);
  sockaddr_in addr{};
  if (!resolve_ipv4(conn.host.empty() ? "localhost" : conn.host, conn.port,
                    addr)) {
    shard_fail_connect(shard, conn);
    return;
  }
  conn.fd = make_nonblocking_socket();
  if (conn.fd < 0) {
    shard_fail_connect(shard, conn);
    return;
  }
  if (opts_.so_sndbuf > 0) {
    ::setsockopt(conn.fd, SOL_SOCKET, SO_SNDBUF, &opts_.so_sndbuf,
                 sizeof opts_.so_sndbuf);
  }
  const int rc = ::connect(
      conn.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc == 0) {
    shard_finish_connect(shard, conn);
    return;
  }
  // EINTR: the connect proceeds asynchronously, exactly like EINPROGRESS.
  if (errno != EINPROGRESS && errno != EINTR) {
    ::close(conn.fd);
    conn.fd = -1;
    shard_fail_connect(shard, conn);
    return;
  }
  shard_update_interest(shard, conn);  // kConnecting => EPOLLOUT
  const NodeId id = conn.shared->id;
  conn.connect_timer = shard.wheel.schedule_after(
      opts_.connect_timeout, [this, &shard, id] {
        const auto it = shard.conns.find(id);
        if (it == shard.conns.end()) return;
        Conn& c = *it->second;
        c.connect_timer = TimerWheel::kInvalidTimer;
        if (c.state != Conn::State::kConnecting) return;
        if (c.fd >= 0) {
          ::close(c.fd);  // also drops it from the epoll set
          c.fd = -1;
          c.registered = false;
          c.interest = 0;
        }
        shard_fail_connect(shard, c);
      });
}

void EpollReactor::shard_fail_connect(Shard& shard, Conn& conn) {
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
    conn.registered = false;
    conn.interest = 0;
  }
  if (conn.connect_timer != TimerWheel::kInvalidTimer) {
    shard.wheel.cancel(conn.connect_timer);
    conn.connect_timer = TimerWheel::kInvalidTimer;
  }
  if (conn.attempts <= opts_.connect_retries) {
    const double delay = std::max(opts_.retry_backoff * conn.attempts,
                                  opts_.tick_seconds);
    const NodeId id = conn.shared->id;
    conn.connect_timer =
        shard.wheel.schedule_after(delay, [this, &shard, id] {
          const auto it = shard.conns.find(id);
          if (it == shard.conns.end()) return;
          Conn& c = *it->second;
          c.connect_timer = TimerWheel::kInvalidTimer;
          if (c.state != Conn::State::kConnecting) return;
          shard_connect_attempt(shard, c);
        });
    return;
  }
  connects_failed_.fetch_add(1, std::memory_order_relaxed);
  shard_close(shard, conn);
}

void EpollReactor::shard_finish_connect(Shard& shard, Conn& conn) {
  if (conn.connect_timer != TimerWheel::kInvalidTimer) {
    shard.wheel.cancel(conn.connect_timer);
    conn.connect_timer = TimerWheel::kInvalidTimer;
  }
  conn.state = Conn::State::kUp;
  conn.last_activity = now();
  connects_ok_.fetch_add(1, std::memory_order_relaxed);
  shard_update_interest(shard, conn);
  Event up;
  up.kind = Event::Kind::kUp;
  up.shared = conn.shared;
  push_event(std::move(up));
  if (!conn.outq.empty()) shard_flush(shard, conn);
}

void EpollReactor::shard_writable(Shard& shard, Conn& conn) {
  if (conn.state == Conn::State::kConnecting) {
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
        err != 0) {
      ::close(conn.fd);
      conn.fd = -1;
      conn.registered = false;
      conn.interest = 0;
      shard_fail_connect(shard, conn);
      return;
    }
    shard_finish_connect(shard, conn);
    return;
  }
  shard_flush(shard, conn);
}

void EpollReactor::shard_flush(Shard& shard, Conn& conn) {
  while (!conn.outq.empty()) {
    std::array<iovec, kMaxIov> iov;
    int cnt = 0;
    for (const Conn::Out& out : conn.outq) {
      if (cnt == kMaxIov) break;
      iov[static_cast<std::size_t>(cnt)] = {
          const_cast<std::uint8_t*>(out.buf.data()) + out.off,
          out.buf.size() - out.off};
      ++cnt;
    }
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = static_cast<std::size_t>(cnt);
    ssize_t sent;
    do {
      // sendmsg == writev + MSG_NOSIGNAL (no process-wide SIGPIPE fiddling)
      sent = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    } while (sent < 0 && errno == EINTR);
    if (sent > 0) {
      writev_calls_.fetch_add(1, std::memory_order_relaxed);
      batched_bytes_.fetch_add(static_cast<std::uint64_t>(sent),
                               std::memory_order_relaxed);
      bytes_sent_.fetch_add(static_cast<std::uint64_t>(sent),
                            std::memory_order_relaxed);
      outq_bytes_.fetch_sub(static_cast<std::size_t>(sent),
                            std::memory_order_relaxed);
      conn.shared->queued.fetch_sub(static_cast<std::size_t>(sent),
                                    std::memory_order_relaxed);
      conn.last_activity = now();
      std::size_t rem = static_cast<std::size_t>(sent);
      while (rem > 0) {
        Conn::Out& front = conn.outq.front();
        const std::size_t avail = front.buf.size() - front.off;
        if (rem >= avail) {
          rem -= avail;
          pool_.release(std::move(front.buf));
          conn.outq.pop_front();
        } else {
          front.off += rem;
          rem = 0;
        }
      }
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      partial_drains_.fetch_add(1, std::memory_order_relaxed);
      shard_update_interest(shard, conn);  // subscribe EPOLLOUT
      return;
    }
    shard_close(shard, conn);
    return;
  }
  shard_update_interest(shard, conn);  // outq empty: drop EPOLLOUT
}

void EpollReactor::shard_readable(Shard& shard, Conn& conn) {
  for (int round = 0; round < kMaxReadsPerEvent; ++round) {
    BufferPool::Buffer buf = pool_.acquire(opts_.read_chunk_bytes);
    buf.resize(opts_.read_chunk_bytes);  // no-op for a recycled read buffer
    ssize_t got;
    do {
      got = ::recv(conn.fd, buf.data(), buf.size(), 0);
    } while (got < 0 && errno == EINTR);
    if (got > 0) {
      conn.last_activity = now();
      bytes_received_.fetch_add(static_cast<std::uint64_t>(got),
                                std::memory_order_relaxed);
      Event ev;
      ev.kind = Event::Kind::kBytes;
      ev.shared = conn.shared;
      ev.len = static_cast<std::size_t>(got);
      ev.buf = std::move(buf);
      push_event(std::move(ev));
      if (static_cast<std::size_t>(got) < opts_.read_chunk_bytes) return;
      continue;  // chunk-full read: likely more buffered, drain on
    }
    pool_.release(std::move(buf));
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    shard_close(shard, conn);  // orderly EOF (0) or hard error
    return;
  }
  // Read cap hit: level-triggered epoll re-reports the fd next wakeup,
  // so the remaining bytes are picked up after other fds get a turn.
}

void EpollReactor::shard_close(Shard& shard, Conn& conn) {
  if (conn.state == Conn::State::kClosed) return;
  if (conn.connect_timer != TimerWheel::kInvalidTimer) {
    shard.wheel.cancel(conn.connect_timer);
    conn.connect_timer = TimerWheel::kInvalidTimer;
  }
  std::size_t abandoned = 0;
  for (auto& out : conn.outq) {
    abandoned += out.buf.size() - out.off;
    pool_.release(std::move(out.buf));
  }
  conn.outq.clear();
  if (abandoned > 0) {
    outq_bytes_.fetch_sub(abandoned, std::memory_order_relaxed);
    conn.shared->queued.fetch_sub(abandoned, std::memory_order_relaxed);
  }
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
  conn.state = Conn::State::kClosed;
  conn.registered = false;
  conn.interest = 0;
  closes_.fetch_add(1, std::memory_order_relaxed);
  shard.nconns.fetch_sub(1, std::memory_order_relaxed);
  shard.dead.push_back(conn.shared->id);
  Event down;
  down.kind = Event::Kind::kDown;
  down.shared = conn.shared;
  push_event(std::move(down));
}

void EpollReactor::shard_update_interest(Shard& shard, Conn& conn) {
  if (conn.fd < 0) return;
  std::uint32_t want = 0;
  if (conn.state == Conn::State::kConnecting) {
    want = EPOLLOUT;
  } else if (conn.state == Conn::State::kUp) {
    want = EPOLLIN;
    if (!conn.outq.empty()) want |= EPOLLOUT;
  } else {
    return;
  }
  if (conn.registered && want == conn.interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = &conn;
  const int op = conn.registered ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(shard.epfd, op, conn.fd, &ev) == 0) {
    conn.registered = true;
    conn.interest = want;
  }
}

void EpollReactor::shard_reap_idle(Shard& shard) {
  const double deadline = now() - opts_.idle_timeout;
  for (auto& [id, conn] : shard.conns) {
    if (conn->state != Conn::State::kUp) continue;
    if (conn->last_activity < deadline) {
      reaps_.fetch_add(1, std::memory_order_relaxed);
      shard_close(shard, *conn);  // erase deferred to the loop bottom
    }
  }
  shard.wheel.schedule_after(opts_.idle_timeout / 2.0,
                             [this, &shard] { shard_reap_idle(shard); });
}

}  // namespace icollect::net
