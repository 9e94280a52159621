#include "net/epoll_reactor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/assert.h"

namespace icollect::net {

namespace {

constexpr double kTickSeconds = 0.001;  ///< TimerWheel granularity
constexpr std::size_t kReadChunkBytes = 64U * 1024U;  ///< one recv
constexpr std::size_t kPoolMaxBuffers = 4096;  ///< idle send buffers kept
constexpr std::size_t kSendBufferBytes = 4096;  ///< least pooled capacity
constexpr int kSocketType = SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC;

// Frames per sendmsg; recvs per ready fd before the next fd gets a turn
// (fairness under level-triggered epoll); events per epoll_wait.
constexpr std::size_t kMaxIov = 64;
constexpr int kMaxReadsPerEvent = 16;
constexpr int kMaxEvents = 256;

void set_socket_options(int fd, int so_sndbuf) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (so_sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &so_sndbuf, sizeof so_sndbuf);
  }
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

struct EpollReactor::Conn {
  enum class State : std::uint8_t { kConnecting, kUp, kClosed };

  struct Out {
    BufferPool::Buffer buf;
    std::size_t off = 0;  ///< consumed prefix (partial sendmsg)
  };

  NodeId id = kInvalidNodeId;
  int fd = -1;
  State state = State::kConnecting;
  bool dirty = false;          ///< listed in dirty_
  bool want_write = false;     ///< last flush hit EAGAIN: wait for EPOLLOUT
  std::uint32_t interest = 0;  ///< epoll mask registered; 0 = not in the set
  std::string host;            ///< outbound only, for retries
  std::uint16_t port = 0;
  int attempts = 0;
  TimerWheel::TimerId connect_timer = TimerWheel::kInvalidTimer;
  std::deque<Out> outq;
  std::size_t queued = 0;  ///< unsent bytes in outq (cap accounting)
  double last_activity = 0.0;
};

EpollReactor::EpollReactor() : EpollReactor(Options{}) {}

EpollReactor::EpollReactor(Options opts)
    : opts_{opts},
      wheel_{kTickSeconds},
      epoch_{std::chrono::steady_clock::now()},
      pool_{BufferPool::Options{kPoolMaxBuffers, kSendBufferBytes, 1U << 20U}},
      read_buf_(kReadChunkBytes) {
  ICOLLECT_EXPECTS(opts.connect_timeout > 0.0);
  ICOLLECT_EXPECTS(opts.connect_retries >= 0);
  ICOLLECT_EXPECTS(opts.listen_backlog >= 0);
  ICOLLECT_EXPECTS(opts.so_sndbuf >= 0);
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw std::runtime_error("epoll: epoll_create1 failed");
  if (opts_.idle_timeout > 0.0) {
    wheel_.schedule_after(opts_.idle_timeout / 2.0, [this] { reap_idle(); });
  }
}

EpollReactor::~EpollReactor() {
  handler_ = nullptr;  // teardown reports nothing
  for (auto& [id, conn] : conns_) {
    // One non-blocking attempt: what the kernel takes now still reaches
    // the peer after close, so a process's last replies are not lost.
    if (conn->state == Conn::State::kUp) (void)flush(*conn);
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(epfd_);
}

double EpollReactor::now() const {
  const auto dt = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(dt).count();
}

std::uint16_t EpollReactor::listen(const std::string& host,
                                   std::uint16_t port) {
  ICOLLECT_EXPECTS(listen_fd_ < 0);
  sockaddr_in addr{};
  if (!resolve_ipv4(host, port, addr)) {
    throw std::runtime_error("epoll: cannot resolve listen host " + host);
  }
  const int fd = ::socket(AF_INET, kSocketType, 0);
  if (fd < 0) throw std::runtime_error("epoll: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  const int backlog =
      opts_.listen_backlog > 0 ? opts_.listen_backlog : SOMAXCONN;
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // the listener; every Conn* is non-null
  const char* failed = nullptr;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    failed = "bind";
  } else if (::listen(fd, backlog) < 0) {
    failed = "listen";
  } else if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    failed = "getsockname";
  } else if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    failed = "epoll_ctl";
  }
  if (failed != nullptr) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string{"epoll: "} + failed +
                             " failed: " + std::strerror(err));
  }
  listen_fd_ = fd;
  return ntohs(bound.sin_port);
}

NodeId EpollReactor::connect(const std::string& host, std::uint16_t port) {
  auto conn = std::make_unique<Conn>();
  conn->id = next_id_++;
  conn->host = host;
  conn->port = port;
  Conn& ref = *conn;
  conns_.emplace(ref.id, std::move(conn));
  ++open_;
  start_connect_attempt(ref);
  return ref.id;
}

void EpollReactor::start_connect_attempt(Conn& conn) {
  ++conn.attempts;
  if (conn.attempts > 1) ++connect_retries_;
  sockaddr_in addr{};
  bool started = resolve_ipv4(conn.host.empty() ? "localhost" : conn.host,
                              conn.port, addr);
  if (started) {
    conn.fd = ::socket(AF_INET, kSocketType, 0);
    started = conn.fd >= 0;
  }
  if (started) {
    set_socket_options(conn.fd, opts_.so_sndbuf);
    // A connect that completes at once still reports through EPOLLOUT;
    // EINTR proceeds asynchronously, exactly like EINPROGRESS.
    started = ::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr) == 0 ||
              errno == EINPROGRESS || errno == EINTR;
  }
  if (started) update_interest(conn);  // kConnecting => EPOLLOUT
  // The attempt ends on this timer — its timeout, or the next tick for
  // an attempt that could not start — so even an immediate failure is
  // reported from poll_once, never from connect().
  const NodeId id = conn.id;
  conn.connect_timer = wheel_.schedule_after(
      started ? opts_.connect_timeout : 0.0, [this, id] {
        Conn* c = find(id);
        if (c == nullptr || c->state != Conn::State::kConnecting) return;
        c->connect_timer = TimerWheel::kInvalidTimer;
        fail_connect(*c);
      });
}

void EpollReactor::fail_connect(Conn& conn) {
  if (conn.fd >= 0) {
    ::close(conn.fd);  // also drops it from the epoll set
    conn.fd = -1;
    conn.interest = 0;
  }
  wheel_.cancel(conn.connect_timer);
  conn.connect_timer = TimerWheel::kInvalidTimer;
  if (conn.attempts <= opts_.connect_retries) {
    const NodeId id = conn.id;
    conn.connect_timer = wheel_.schedule_after(
        std::max(opts_.retry_backoff * conn.attempts, kTickSeconds),
        [this, id] {
          Conn* c = find(id);
          if (c == nullptr || c->state != Conn::State::kConnecting) return;
          c->connect_timer = TimerWheel::kInvalidTimer;
          start_connect_attempt(*c);
        });
    return;
  }
  ++connects_failed_;
  close_conn(conn);
}

void EpollReactor::finish_connect(Conn& conn) {
  wheel_.cancel(conn.connect_timer);
  conn.connect_timer = TimerWheel::kInvalidTimer;
  conn.state = Conn::State::kUp;
  conn.last_activity = round_now_;
  ++connects_ok_;
  update_interest(conn);
  if (!conn.outq.empty()) {  // queued while connecting
    conn.dirty = true;
    dirty_.push_back(&conn);
  }
  if (handler_ != nullptr) handler_->on_peer_up(conn.id);
}

bool EpollReactor::send(NodeId peer, std::span<const std::uint8_t> bytes) {
  Conn* conn = find(peer);
  if (conn == nullptr || conn->state == Conn::State::kClosed) return false;
  const std::size_t n = bytes.size();
  if (conn->queued + n > opts_.send_queue_cap_bytes) {
    ++refusals_;
    return false;
  }
  BufferPool::Buffer buf = pool_.acquire(n);
  buf.assign(bytes.begin(), bytes.end());
  conn->outq.push_back(Conn::Out{std::move(buf), 0});
  conn->queued += n;
  outq_bytes_ += n;
  outq_hwm_ = std::max(outq_hwm_, outq_bytes_);
  ++sends_;
  // A connection waiting for EPOLLOUT is flushed by that event instead.
  if (conn->state == Conn::State::kUp && !conn->want_write && !conn->dirty) {
    conn->dirty = true;
    dirty_.push_back(conn);
  }
  return true;
}

void EpollReactor::close_peer(NodeId peer) {
  Conn* conn = find(peer);
  if (conn == nullptr || conn->state == Conn::State::kClosed) return;
  // Best effort: whatever the kernel takes now still reaches the peer.
  if (conn->state == Conn::State::kUp) (void)flush(*conn);
  close_conn(*conn);
}

void EpollReactor::poll_once(double max_wait) {
  flush_dirty();  // sends queued between rounds leave before the wait
  // Never oversleep the wheel: its timers (gossip, pulls, TTL, connect
  // timeouts) must keep firing even with no network events arriving.
  double wait = max_wait;
  if (wheel_.pending() > 0) wait = std::min(wait, kTickSeconds);
  const int timeout_ms =
      wait > 0.0 ? static_cast<int>(std::ceil(wait * 1000.0)) : 0;
  std::array<epoll_event, kMaxEvents> evs{};
  // EINTR (a signal such as the SIGUSR1 stats dump) is an empty round,
  // so the caller's loop gets to service the signal.
  const int n = std::max(0, ::epoll_wait(epfd_, evs.data(), kMaxEvents,
                                         timeout_ms));
  round_now_ = now();
  if (n > 0) {
    ++wakeups_;
    events_ += static_cast<std::uint64_t>(n);
  }
  for (int i = 0; i < n; ++i) {
    const epoll_event& ev = evs[static_cast<std::size_t>(i)];
    if (ev.data.ptr == nullptr) {
      accept_all();
      continue;
    }
    // A Conn closed earlier this round stays allocated until the round
    // ends, so its stale event is skipped here, never dereferenced freed.
    Conn& conn = *static_cast<Conn*>(ev.data.ptr);
    if (conn.state == Conn::State::kConnecting) {
      int err = 0;
      socklen_t len = sizeof err;
      if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
          err != 0) {
        fail_connect(conn);
      } else {
        finish_connect(conn);
      }
      continue;
    }
    if (conn.state != Conn::State::kUp) continue;
    if ((ev.events & EPOLLIN) != 0U) on_readable(conn);
    if (conn.state == Conn::State::kUp && (ev.events & EPOLLOUT) != 0U &&
        !flush(conn)) {
      close_conn(conn);
    }
    if (conn.state == Conn::State::kUp &&
        (ev.events & (EPOLLERR | EPOLLHUP)) != 0U &&
        (ev.events & (EPOLLIN | EPOLLOUT)) == 0U) {
      close_conn(conn);  // pure error event, not delivered alongside IO
    }
  }
  wheel_.advance_to(now());
  flush_dirty();
  for (const NodeId id : dead_) conns_.erase(id);
  dead_.clear();
}

void EpollReactor::accept_all() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient accept failure (EMFILE...)
    }
    set_socket_options(fd, opts_.so_sndbuf);
    auto conn = std::make_unique<Conn>();
    conn->id = next_id_++;
    conn->fd = fd;
    conn->state = Conn::State::kUp;
    conn->last_activity = round_now_;
    Conn& ref = *conn;
    conns_.emplace(ref.id, std::move(conn));
    ++open_;
    ++accepts_;
    update_interest(ref);
    if (handler_ != nullptr) handler_->on_peer_up(ref.id);
  }
}

void EpollReactor::on_readable(Conn& conn) {
  for (int round = 0; round < kMaxReadsPerEvent; ++round) {
    ssize_t got = 0;
    do {
      got = ::recv(conn.fd, read_buf_.data(), read_buf_.size(), 0);
    } while (got < 0 && errno == EINTR);
    if (got <= 0) {
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      close_conn(conn);  // orderly EOF (0) or hard error
      return;
    }
    const auto len = static_cast<std::size_t>(got);
    conn.last_activity = round_now_;
    bytes_received_ += len;
    if (handler_ != nullptr) {
      handler_->on_bytes(conn.id, {read_buf_.data(), len});
    }
    // The handler may have closed the connection in response.
    if (conn.state != Conn::State::kUp || len < read_buf_.size()) return;
  }
  // Read cap hit: level-triggered epoll re-reports the fd next round, so
  // the remaining bytes are picked up after other fds get a turn.
}

bool EpollReactor::flush(Conn& conn) {
  while (!conn.outq.empty()) {
    std::array<iovec, kMaxIov> iov{};
    std::size_t cnt = 0;
    for (const Conn::Out& out : conn.outq) {
      if (cnt == kMaxIov) break;
      iov[cnt++] = {const_cast<std::uint8_t*>(out.buf.data()) + out.off,
                    out.buf.size() - out.off};
    }
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = cnt;
    ssize_t sent = 0;
    do {
      // sendmsg == writev + MSG_NOSIGNAL (no process-wide SIGPIPE fiddling)
      sent = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    } while (sent < 0 && errno == EINTR);
    if (sent <= 0) {
      if (sent == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return false;
      ++partial_drains_;
      if (!conn.want_write) {
        conn.want_write = true;
        update_interest(conn);  // subscribe EPOLLOUT
      }
      return true;
    }
    auto rem = static_cast<std::size_t>(sent);
    ++writev_calls_;
    bytes_sent_ += rem;
    outq_bytes_ -= rem;
    conn.queued -= rem;
    conn.last_activity = round_now_;
    while (rem > 0) {
      Conn::Out& front = conn.outq.front();
      const std::size_t avail = front.buf.size() - front.off;
      if (rem < avail) {
        front.off += rem;
        break;
      }
      rem -= avail;
      pool_.release(std::move(front.buf));
      conn.outq.pop_front();
    }
  }
  if (conn.want_write) {
    conn.want_write = false;
    update_interest(conn);  // drained: drop EPOLLOUT
  }
  return true;
}

void EpollReactor::flush_dirty() {
  // By index: a failed flush closes its connection, and the handler may
  // queue to others from on_peer_down; those are flushed here too, so
  // dirty_ is empty whenever closed connections are erased.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    Conn& conn = *dirty_[i];
    conn.dirty = false;
    if (conn.state == Conn::State::kUp && !flush(conn)) close_conn(conn);
  }
  dirty_.clear();
}

void EpollReactor::close_conn(Conn& conn) {
  if (conn.state == Conn::State::kClosed) return;
  wheel_.cancel(conn.connect_timer);
  conn.connect_timer = TimerWheel::kInvalidTimer;
  for (Conn::Out& out : conn.outq) pool_.release(std::move(out.buf));
  conn.outq.clear();
  outq_bytes_ -= conn.queued;
  conn.queued = 0;
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
  conn.state = Conn::State::kClosed;
  ++closes_;
  --open_;
  dead_.push_back(conn.id);
  if (handler_ != nullptr) handler_->on_peer_down(conn.id);
}

void EpollReactor::update_interest(Conn& conn) {
  std::uint32_t want = EPOLLOUT;  // kConnecting
  if (conn.state == Conn::State::kUp) {
    want = EPOLLIN | (conn.want_write ? EPOLLOUT : 0U);
  }
  if (want == conn.interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = &conn;
  const int op = conn.interest == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
  if (::epoll_ctl(epfd_, op, conn.fd, &ev) == 0) conn.interest = want;
}

void EpollReactor::reap_idle() {
  const double deadline = now() - opts_.idle_timeout;
  // Collect first: on_peer_down may connect(), inserting into conns_.
  std::vector<NodeId> idle;
  for (const auto& [id, conn] : conns_) {
    if (conn->state == Conn::State::kUp && conn->last_activity < deadline) {
      idle.push_back(id);
    }
  }
  for (const NodeId id : idle) {
    Conn* conn = find(id);
    if (conn != nullptr && conn->state == Conn::State::kUp) {
      ++reaps_;
      close_conn(*conn);
    }
  }
  wheel_.schedule_after(opts_.idle_timeout / 2.0, [this] { reap_idle(); });
}

EpollReactor::Conn* EpollReactor::find(NodeId id) {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void EpollReactor::attach_metrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) {
  // Zero hot-path cost: counters are always maintained; the registry
  // reads them only at snapshot time through pull gauges.
  const auto count = [&](const char* name, const std::uint64_t* v) {
    registry.gauge(prefix + name, [v] { return static_cast<double>(*v); });
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
  count("batched_bytes", &bytes_sent_);  // every send is a sendmsg
  registry.gauge(prefix + "events_per_wakeup", [this] {
    return wakeups_ == 0 ? 0.0
                         : static_cast<double>(events_) /
                               static_cast<double>(wakeups_);
  });
  registry.gauge(prefix + "conns", [this] {
    return static_cast<double>(open_connections());
  });
  registry.gauge(prefix + "outq_bytes",
                 [this] { return static_cast<double>(outq_bytes_); });
  registry.gauge(prefix + "outq_hwm",
                 [this] { return static_cast<double>(outq_hwm_); });
  registry.gauge(prefix + "pool_hit_rate", [this] { return pool_.hit_rate(); });
  const auto pool_stat = [&](const char* name, auto BufferPool::Stats::*field) {
    registry.gauge(prefix + name, [this, field] {
      return static_cast<double>(pool_.stats().*field);
    });
  };
  pool_stat("pool_hits", &BufferPool::Stats::hits);
  pool_stat("pool_misses", &BufferPool::Stats::misses);
  pool_stat("pool_idle", &BufferPool::Stats::idle);
  pool_stat("pool_outstanding_hwm", &BufferPool::Stats::outstanding_hwm);
}

}  // namespace icollect::net
