/// \file epoll_reactor_test.cpp
/// The epoll reactor against real loopback sockets: the transport
/// contract (ephemeral listen / connect / bidirectional bytes / close
/// propagation / backpressure / retry exhaustion), socket-level
/// robustness (short sends on a tiny SO_SNDBUF, EINTR storms, a slow
/// reader that fills the send queue and gets reaped), and what is
/// reactor-specific — buffer-pool reuse, batching, lifecycle counters,
/// the callback contract (nothing re-enters the handler from connect()
/// or send()) and the flush on teardown. The reactor does all socket
/// work inside poll_once on the calling thread, so the recording handler
/// needs no locks.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/epoll_reactor.h"
#include "net/transport.h"
#include "obs/metrics_registry.h"

namespace icollect::net {
namespace {

class RecordingHandler final : public TransportHandler {
 public:
  void on_peer_up(NodeId peer) override { ups.push_back(peer); }
  void on_peer_down(NodeId peer) override { downs.push_back(peer); }
  void on_bytes(NodeId peer, std::span<const std::uint8_t> bytes) override {
    auto& stream = received[peer];
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }

  std::vector<NodeId> ups;
  std::vector<NodeId> downs;
  std::unordered_map<NodeId, std::vector<std::uint8_t>> received;
};

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

/// Pump both transports until `done` or the wall-clock deadline. All
/// socket work happens inside poll_once.
template <typename Pred>
bool pump(EpollReactor& a, EpollReactor& b, Pred done,
          double timeout = 10.0) {
  const double t0 = a.now();
  while (a.now() - t0 < timeout) {
    a.poll_once(0.01);
    b.poll_once(0.01);
    if (done()) return true;
  }
  return done();
}

/// A bare listening socket. The kernel completes TCP handshakes into
/// its backlog, and nothing sent to it is read until the test calls
/// accept_and_read() — on a helper thread when the writer must keep
/// polling meanwhile, or never, for a peer that does not read.
class SilentListener {
 public:
  SilentListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (fd_ >= 0 &&
        ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), len) == 0 &&
        ::listen(fd_, 8) == 0 &&
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port_ = ntohs(addr.sin_port);
    }
  }
  ~SilentListener() {
    if (conn_ >= 0) ::close(conn_);
    if (fd_ >= 0) ::close(fd_);
  }
  SilentListener(const SilentListener&) = delete;
  SilentListener& operator=(const SilentListener&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Accept the first queued connection and read `n` bytes from it
  /// (blocking, giving up after 10 s without data). Returns what came.
  std::vector<std::uint8_t> accept_and_read(std::size_t n) {
    std::vector<std::uint8_t> got;
    conn_ = ::accept(fd_, nullptr, nullptr);
    if (conn_ < 0) return got;
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(conn_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    std::vector<std::uint8_t> buf(64U * 1024U);
    while (got.size() < n) {
      const ssize_t r = ::recv(conn_, buf.data(), buf.size(), 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) break;
      got.insert(got.end(), buf.begin(), buf.begin() + r);
    }
    return got;
  }

 private:
  int fd_ = -1;
  int conn_ = -1;
  std::uint16_t port_ = 0;
};

TEST(EpollReactor, ConnectExchangeClose) {
  EpollReactor server;
  EpollReactor client;
  RecordingHandler hs;
  RecordingHandler hc;
  server.set_handler(&hs);
  client.set_handler(&hc);

  const std::uint16_t port = server.listen("127.0.0.1", 0);
  ASSERT_GT(port, 0);
  const NodeId conn = client.connect("127.0.0.1", port);
  ASSERT_TRUE(pump(server, client, [&] {
    return !hs.ups.empty() && !hc.ups.empty();
  })) << "connection did not establish";

  ASSERT_TRUE(client.send(conn, bytes_of("ping")));
  ASSERT_TRUE(pump(server, client, [&] {
    return hs.received[hs.ups[0]].size() >= 4;
  }));
  EXPECT_EQ(hs.received[hs.ups[0]], bytes_of("ping"));

  ASSERT_TRUE(server.send(hs.ups[0], bytes_of("pong!")));
  ASSERT_TRUE(pump(server, client, [&] {
    return hc.received[conn].size() >= 5;
  }));
  EXPECT_EQ(hc.received[conn], bytes_of("pong!"));
  EXPECT_EQ(server.accepts(), 1U);
  EXPECT_EQ(client.connects_ok(), 1U);
  EXPECT_GE(client.bytes_sent(), 4U);
  EXPECT_GE(server.bytes_received(), 4U);

  // Closing on one side surfaces on_peer_down on the other — and
  // close_peer itself notifies synchronously.
  client.close_peer(conn);
  EXPECT_EQ(hc.downs.size(), 1U);
  EXPECT_EQ(hc.downs[0], conn);
  ASSERT_TRUE(pump(server, client, [&] { return !hs.downs.empty(); }));
  EXPECT_EQ(hs.downs[0], hs.ups[0]);
}

TEST(EpollReactor, LargeTransferRecyclesBuffers) {
  // 1 MiB arrives intact through the chunked read path; afterwards the
  // sender's pool must show its send buffers reused.
  EpollReactor server;
  EpollReactor client;
  RecordingHandler hs;
  RecordingHandler hc;
  server.set_handler(&hs);
  client.set_handler(&hc);
  const std::uint16_t port = server.listen("127.0.0.1", 0);
  const NodeId conn = client.connect("127.0.0.1", port);
  ASSERT_TRUE(pump(server, client, [&] {
    return !hs.ups.empty() && !hc.ups.empty();
  }));

  std::vector<std::uint8_t> blob(1U << 20U);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 2654435761U >> 24U);
  }
  ASSERT_TRUE(client.send(conn, blob));
  ASSERT_TRUE(pump(server, client, [&] {
    return hs.received[hs.ups[0]].size() >= blob.size();
  }));
  EXPECT_EQ(hs.received[hs.ups[0]], blob);

  // Every read lands in the server's one read chunk; the blob's send
  // buffer went back to the client's pool once it drained, and the
  // follow-up send must reuse it.
  ASSERT_TRUE(client.send(conn, bytes_of("warm")));
  ASSERT_TRUE(pump(server, client, [&] {
    return hs.received[hs.ups[0]].size() >= blob.size() + 4;
  }));
  const auto pool = client.pool().stats();
  EXPECT_GT(pool.hits, 0U) << "send buffers never recycled";
  EXPECT_GT(server.wakeups(), 0U);
  EXPECT_GE(server.events_dispatched(), server.wakeups());
  EXPECT_GT(client.writev_calls(), 0U);
  EXPECT_GE(client.batched_bytes(), blob.size());
}

TEST(EpollReactor, BackpressureRefusesOverCap) {
  EpollReactor::Options opts;
  opts.send_queue_cap_bytes = 64;
  EpollReactor client{opts};
  EpollReactor server;
  RecordingHandler hs;
  RecordingHandler hc;
  server.set_handler(&hs);
  client.set_handler(&hc);
  const std::uint16_t port = server.listen("127.0.0.1", 0);
  const NodeId conn = client.connect("127.0.0.1", port);
  ASSERT_TRUE(pump(server, client, [&] {
    return !hs.ups.empty() && !hc.ups.empty();
  }));

  // Flood without pumping the client: send() only queues, so once >64
  // bytes sit unsent it must refuse rather than queue unboundedly.
  const std::vector<std::uint8_t> chunk(48, 0x5A);
  bool refused = false;
  for (int i = 0; i < 10000 && !refused; ++i) {
    refused = !client.send(conn, chunk);
  }
  EXPECT_TRUE(refused) << "cap never enforced";
  EXPECT_GT(client.backpressure_refusals(), 0U);
}

TEST(EpollReactor, ConnectToDeadPortFailsAfterRetries) {
  EpollReactor::Options opts;
  opts.connect_timeout = 0.2;
  opts.connect_retries = 1;
  opts.retry_backoff = 0.05;
  EpollReactor client{opts};
  RecordingHandler hc;
  client.set_handler(&hc);

  // Bind-then-close: the port was just proven free, so connecting gets
  // a fast RST rather than a timeout.
  std::uint16_t dead_port = 0;
  {
    EpollReactor probe;
    dead_port = probe.listen("127.0.0.1", 0);
  }
  const NodeId conn = client.connect("127.0.0.1", dead_port);
  EXPECT_NE(conn, kInvalidNodeId);

  const double t0 = client.now();
  while (client.now() - t0 < 10.0 && hc.downs.empty()) {
    client.poll_once(0.01);
  }
  ASSERT_EQ(hc.downs.size(), 1U);
  EXPECT_EQ(hc.downs[0], conn);
  EXPECT_TRUE(hc.ups.empty());
  EXPECT_EQ(client.connects_failed(), 1U);
  EXPECT_GE(client.connect_retries(), 1U);
}

TEST(EpollReactor, AttachMetricsExportsReactorGauges) {
  EpollReactor server;
  EpollReactor client;
  RecordingHandler hs;
  RecordingHandler hc;
  server.set_handler(&hs);
  client.set_handler(&hc);
  const std::uint16_t port = server.listen("127.0.0.1", 0);
  const NodeId conn = client.connect("127.0.0.1", port);
  ASSERT_TRUE(pump(server, client, [&] {
    return !hs.ups.empty() && !hc.ups.empty();
  }));
  ASSERT_TRUE(client.send(conn, bytes_of("hello metrics")));
  ASSERT_TRUE(pump(server, client, [&] {
    return !hs.received.empty() && hs.received[hs.ups[0]].size() >= 13;
  }));
  // More concurrent connections on the one epoll set: all come up and
  // the gauges count every one.
  constexpr std::size_t kConns = 8;
  for (std::size_t i = 1; i < kConns; ++i) {
    ASSERT_NE(client.connect("127.0.0.1", port), kInvalidNodeId);
  }
  ASSERT_TRUE(pump(server, client, [&] {
    return hs.ups.size() >= kConns && hc.ups.size() >= kConns;
  }));
  EXPECT_EQ(server.open_connections(), kConns);

  obs::MetricsRegistry registry;
  server.attach_metrics(registry, "epoll.");
  for (const char* name :
       {"epoll.accepts", "epoll.bytes_in", "epoll.wakeups",
        "epoll.events_per_wakeup", "epoll.conns", "epoll.pool_hit_rate"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  const auto* conns = registry.find_gauge("epoll.conns");
  ASSERT_NE(conns, nullptr);
  EXPECT_DOUBLE_EQ(conns->value(), static_cast<double>(kConns));
  const auto* accepts = registry.find_gauge("epoll.accepts");
  ASSERT_NE(accepts, nullptr);
  EXPECT_DOUBLE_EQ(accepts->value(), static_cast<double>(kConns));
}

TEST(EpollReactor, SendToUnknownConnRefused) {
  EpollReactor t;
  RecordingHandler h;
  t.set_handler(&h);
  EXPECT_FALSE(t.send(NodeId{424242}, bytes_of("nope")));
}

TEST(EpollReactor, EphemeralListenReturnsRealPort) {
  EpollReactor t;
  const std::uint16_t port = t.listen("127.0.0.1", 0);
  EXPECT_GT(port, 0);
}

TEST(EpollReactor, InstrumentationCountersTrackLifecycle) {
  EpollReactor server;
  EpollReactor client;
  RecordingHandler hs;
  RecordingHandler hc;
  server.set_handler(&hs);
  client.set_handler(&hc);

  obs::MetricsRegistry reg;
  client.attach_metrics(reg, "cli.");

  const std::uint16_t port = server.listen("127.0.0.1", 0);
  const NodeId conn = client.connect("127.0.0.1", port);
  ASSERT_TRUE(pump(server, client, [&] {
    return !hs.ups.empty() && !hc.ups.empty();
  }));
  EXPECT_EQ(client.connects_ok(), 1U);
  EXPECT_EQ(client.accepts(), 0U);
  EXPECT_EQ(server.accepts(), 1U);

  // The bytes leave in the client's next poll_once; wait until the peer
  // has them and the client's send accounting is settled.
  ASSERT_TRUE(client.send(conn, bytes_of("ping")));
  ASSERT_TRUE(pump(server, client, [&] {
    return hs.received[hs.ups[0]].size() >= 4 &&
           client.send_queue_bytes() == 0;
  }));
  EXPECT_EQ(client.sends(), 1U);
  EXPECT_GE(client.bytes_sent(), 4U);
  EXPECT_GE(client.send_queue_high_watermark(), 4U);

  // The registry gauges read the same live counters.
  EXPECT_DOUBLE_EQ(reg.find_gauge("cli.sends")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("cli.connects_ok")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("cli.outq_bytes")->value(), 0.0);
  EXPECT_GE(reg.find_gauge("cli.bytes_out")->value(), 4.0);

  // close_peer drops the handle and counts the close at once; pumping
  // afterwards changes neither.
  client.close_peer(conn);
  EXPECT_EQ(client.open_connections(), 0U);
  ASSERT_TRUE(pump(server, client, [&] { return client.closes() == 1; }));
  EXPECT_DOUBLE_EQ(reg.find_gauge("cli.closes")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("cli.conns")->value(), 0.0);
}

TEST(EpollReactor, ShortSendsDeliverIntact) {
  // A tiny socket send buffer and a peer that does not read yet force
  // the writev path into short writes and EAGAIN: every EAGAIN is a
  // partial drain that later resumes mid-buffer, and once the peer
  // reads, the stream must still arrive byte-exact.
  EpollReactor::Options opts;
  opts.so_sndbuf = 4096;  // kernel clamps to its minimum, still tiny
  EpollReactor client{opts};
  RecordingHandler hc;
  client.set_handler(&hc);
  SilentListener reader;
  ASSERT_GT(reader.port(), 0);
  const NodeId conn = client.connect("127.0.0.1", reader.port());
  const double t0 = client.now();
  while (client.now() - t0 < 10.0 && hc.ups.empty()) client.poll_once(0.01);
  ASSERT_EQ(hc.ups.size(), 1U);

  // Larger than the kernel buffers on both ends, so it cannot all leave
  // while nobody reads.
  std::vector<std::uint8_t> blob(512U * 1024U);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 40503U >> 8U);
  }
  ASSERT_TRUE(client.send(conn, blob));
  const double t1 = client.now();
  while (client.now() - t1 < 10.0 && client.partial_drains() == 0) {
    client.poll_once(0.01);
  }
  EXPECT_GT(client.partial_drains(), 0U);

  // The peer reads on a helper thread while this thread pumps the
  // reactor, which resumes the drain mid-buffer as the kernel takes more.
  std::vector<std::uint8_t> got;
  std::thread drain{[&] { got = reader.accept_and_read(blob.size()); }};
  const double t2 = client.now();
  while (client.now() - t2 < 10.0 && client.send_queue_bytes() > 0) {
    client.poll_once(0.01);
  }
  drain.join();
  EXPECT_EQ(got, blob);
  EXPECT_EQ(client.send_queue_bytes(), 0U);
  EXPECT_TRUE(hc.downs.empty());
}

/// Fires SIGALRM every 2 ms without SA_RESTART for its lifetime, so
/// blocking syscalls on every thread keep returning EINTR.
class SignalStorm {
 public:
  SignalStorm() {
    struct sigaction sa{};
    sa.sa_handler = [](int) {};
    sa.sa_flags = 0;  // deliberately NOT SA_RESTART
    sigemptyset(&sa.sa_mask);
    armed_ = sigaction(SIGALRM, &sa, &old_sa_) == 0;
    itimerval storm{};
    storm.it_interval.tv_usec = 2000;
    storm.it_value.tv_usec = 2000;
    armed_ = armed_ && setitimer(ITIMER_REAL, &storm, &old_timer_) == 0;
  }
  ~SignalStorm() {
    setitimer(ITIMER_REAL, &old_timer_, nullptr);
    sigaction(SIGALRM, &old_sa_, nullptr);
  }
  SignalStorm(const SignalStorm&) = delete;
  SignalStorm& operator=(const SignalStorm&) = delete;

  [[nodiscard]] bool armed() const { return armed_; }

 private:
  struct sigaction old_sa_{};
  itimerval old_timer_{};
  bool armed_ = false;
};

TEST(EpollReactor, TransferSurvivesSignalStorm) {
  // The storm interrupts the driving thread's syscalls: the reactor
  // must retry them, never drop bytes or surface a spurious close.
  const SignalStorm storm;
  ASSERT_TRUE(storm.armed());
  EpollReactor server;
  EpollReactor client;
  RecordingHandler hs;
  RecordingHandler hc;
  server.set_handler(&hs);
  client.set_handler(&hc);
  const std::uint16_t port = server.listen("127.0.0.1", 0);
  const NodeId conn = client.connect("127.0.0.1", port);
  ASSERT_TRUE(pump(server, client, [&] {
    return !hs.ups.empty() && !hc.ups.empty();
  }));
  std::vector<std::uint8_t> blob(1U << 20U);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 2246822519U >> 16U);
  }
  ASSERT_TRUE(client.send(conn, blob));
  ASSERT_TRUE(pump(server, client, [&] {
    return hs.received[hs.ups[0]].size() >= blob.size();
  }));
  EXPECT_EQ(hs.received[hs.ups[0]], blob);
  EXPECT_TRUE(hs.downs.empty());
  EXPECT_TRUE(hc.downs.empty());
}

TEST(EpollReactor, SlowReaderHitsQueueCapThenIdleReapStaysReconnectSafe) {
  // A scripted slow-reader peer: a bare listening socket that never
  // accepts, so nothing ever drains the connection while the writer
  // pumps poll_once. The writer must (1) absorb backpressure
  // into its bounded send queue, (2) refuse sends — not balloon — once
  // the cap is hit, and (3) reap the silent connection via the idle
  // timeout in a way that leaves the reactor reusable for a new
  // connect.
  EpollReactor::Options opts;
  opts.send_queue_cap_bytes = 32U * 1024U;
  opts.so_sndbuf = 4096;    // tiny kernel buffer: backpressure hits fast
  opts.idle_timeout = 2.0;  // no progress for 2s => reap
  EpollReactor client{opts};
  RecordingHandler hc;
  client.set_handler(&hc);
  const SilentListener reader;
  ASSERT_GT(reader.port(), 0);
  const NodeId conn = client.connect("127.0.0.1", reader.port());
  {
    const double t0 = client.now();
    while (client.now() - t0 < 10.0 && hc.ups.empty()) {
      client.poll_once(0.01);  // the kernel completes the handshake
    }
  }
  ASSERT_EQ(hc.ups.size(), 1U);

  // Pump frames at the unread connection until the cap refuses one.
  const std::vector<std::uint8_t> chunk(4096, 0xAB);
  const double t0 = client.now();
  while (client.now() - t0 < 10.0 && hc.downs.empty() &&
         client.backpressure_refusals() == 0) {
    (void)client.send(conn, chunk);
    client.poll_once(0.001);
  }
  ASSERT_GT(client.backpressure_refusals(), 0U);
  EXPECT_LE(client.send_queue_bytes(), opts.send_queue_cap_bytes);
  EXPECT_LE(client.send_queue_high_watermark(), opts.send_queue_cap_bytes);
  EXPECT_GT(client.partial_drains(), 0U);

  // The peer never reads: the idle timer reaps the connection.
  {
    const double t1 = client.now();
    while (client.now() - t1 < 10.0 && hc.downs.empty()) {
      client.poll_once(0.01);
    }
  }
  ASSERT_EQ(hc.downs.size(), 1U);
  EXPECT_EQ(hc.downs[0], conn);
  EXPECT_GE(client.idle_reaps(), 1U);
  EXPECT_EQ(client.open_connections(), 0U);
  EXPECT_EQ(client.send_queue_bytes(), 0U);  // reap released the queue
  EXPECT_FALSE(client.send(conn, chunk));    // dead handle refuses

  // Reconnect-safe: the same reactor dials a reading server, traffic
  // flows, and the idle timer stays quiet.
  EpollReactor server;
  RecordingHandler hs;
  server.set_handler(&hs);
  const std::uint16_t port = server.listen("127.0.0.1", 0);
  const NodeId conn2 = client.connect("127.0.0.1", port);
  ASSERT_TRUE(pump(server, client, [&] {
    return hc.ups.size() >= 2 && !hs.ups.empty();
  }));
  ASSERT_TRUE(client.send(conn2, bytes_of("alive")));
  ASSERT_TRUE(pump(server, client, [&] {
    return hs.received[hs.ups.back()].size() >= 5;
  }));
  EXPECT_EQ(hs.received[hs.ups.back()], bytes_of("alive"));
  EXPECT_EQ(hc.downs.size(), 1U);
}

TEST(EpollReactor, ConnectRetriesAreCounted) {
  std::uint16_t dead_port = 0;
  {
    EpollReactor probe;
    dead_port = probe.listen("127.0.0.1", 0);
  }
  EpollReactor::Options opts;
  opts.connect_timeout = 0.3;
  opts.connect_retries = 2;
  opts.retry_backoff = 0.02;
  EpollReactor client{opts};
  RecordingHandler hc;
  client.set_handler(&hc);
  client.connect("127.0.0.1", dead_port);
  const double t0 = client.now();
  while (client.now() - t0 < 10.0 && hc.downs.empty()) {
    client.poll_once(0.01);
  }
  ASSERT_EQ(hc.downs.size(), 1U);
  // The first attempt is not a retry; the two extra attempts are.
  EXPECT_EQ(client.connect_retries(), 2U);
  EXPECT_EQ(client.connects_failed(), 1U);
  EXPECT_EQ(client.connects_ok(), 0U);
}

/// Counts callbacks that fire while the test is inside a reactor call
/// that must never call the handler.
class ReentryHandler final : public TransportHandler {
 public:
  void on_peer_up(NodeId peer) override {
    note();
    ups.push_back(peer);
  }
  void on_peer_down(NodeId peer) override {
    note();
    downs.push_back(peer);
  }
  void on_bytes(NodeId /*peer*/,
                std::span<const std::uint8_t> /*bytes*/) override {
    note();
  }

  bool inside = false;
  int reentries = 0;
  std::vector<NodeId> ups;
  std::vector<NodeId> downs;

 private:
  void note() {
    if (inside) ++reentries;
  }
};

TEST(EpollReactor, NoCallbackFromConnectOrSend) {
  // connect() and send() only queue work. Every outcome — a connection
  // that comes up, an attempt that fails before any socket exists, a
  // refused send — reaches the handler from a later poll_once.
  EpollReactor server;
  RecordingHandler hs;
  server.set_handler(&hs);
  const std::uint16_t port = server.listen("127.0.0.1", 0);

  EpollReactor::Options opts;
  opts.connect_retries = 0;
  opts.send_queue_cap_bytes = 64;
  EpollReactor client{opts};
  ReentryHandler hc;
  client.set_handler(&hc);

  hc.inside = true;
  const NodeId good = client.connect("127.0.0.1", port);
  // Not an IPv4 literal: this attempt fails before it starts.
  const NodeId bad = client.connect("256.0.0.1", port);
  const std::vector<std::uint8_t> early = bytes_of("queued while connecting");
  EXPECT_TRUE(client.send(good, early));
  EXPECT_FALSE(client.send(good, std::vector<std::uint8_t>(65, 1)));
  hc.inside = false;
  EXPECT_TRUE(hc.ups.empty());
  EXPECT_TRUE(hc.downs.empty());

  ASSERT_TRUE(pump(server, client, [&] {
    return !hc.ups.empty() && !hc.downs.empty() && !hs.ups.empty();
  }));
  EXPECT_EQ(hc.ups, std::vector<NodeId>{good});
  EXPECT_EQ(hc.downs, std::vector<NodeId>{bad});
  EXPECT_EQ(client.connects_failed(), 1U);

  // Sends on the established connection stay silent too.
  hc.inside = true;
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(client.send(good, bytes_of("x")));
  hc.inside = false;
  ASSERT_TRUE(pump(server, client, [&] {
    return hs.received[hs.ups[0]].size() >= early.size() + 8;
  }));
  EXPECT_EQ(hs.received[hs.ups[0]],
            bytes_of("queued while connectingxxxxxxxx"));
  EXPECT_EQ(hc.reentries, 0);
}

TEST(EpollReactor, DestructorFlushesQueuedSends) {
  // Frames queued right before the reactor goes away still reach the
  // peer: the destructor makes one non-blocking flush attempt per open
  // connection before it closes the socket.
  SilentListener reader;
  ASSERT_GT(reader.port(), 0);
  std::vector<std::uint8_t> expected;
  {
    RecordingHandler hc;
    EpollReactor client;
    client.set_handler(&hc);
    const NodeId conn = client.connect("127.0.0.1", reader.port());
    const double t0 = client.now();
    while (client.now() - t0 < 10.0 && hc.ups.empty()) {
      client.poll_once(0.01);
    }
    ASSERT_EQ(hc.ups.size(), 1U);
    for (int i = 0; i < 32; ++i) {
      const auto frame = bytes_of("frame-" + std::to_string(i) + ";");
      ASSERT_TRUE(client.send(conn, frame));
      expected.insert(expected.end(), frame.begin(), frame.end());
    }
  }  // destroyed without another poll_once
  EXPECT_EQ(reader.accept_and_read(expected.size()), expected);
}

}  // namespace
}  // namespace icollect::net
