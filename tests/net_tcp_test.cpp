/// \file net_tcp_test.cpp
/// The stream-transport contract over real loopback TCP, driven through
/// the net::Transport seam the node layer uses (send / close_peer on a
/// `Transport&`): frames queued whole arrive in order, large transfers
/// arrive intact in both directions at once, an oversize send is refused
/// outright before the connection is even up, a connection that never
/// establishes refuses sends, and unknown handles are refused quietly.
/// The socket transport is the epoll reactor; its own internals (buffer
/// pool, batching, counters, callback contract) are covered by
/// epoll_reactor_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/epoll_reactor.h"
#include "net/transport.h"

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

/// Pump both transports until `done` or the wall-clock deadline.
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

std::vector<std::uint8_t> pattern(std::size_t n, std::uint32_t salt) {
  std::vector<std::uint8_t> blob(n);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>((i + salt) * 2654435761U >> 24U);
  }
  return blob;
}

TEST(Tcp, ConnectExchangeClose) {
  EpollReactor server;
  EpollReactor client;
  Transport& server_seam = server;
  Transport& client_seam = client;
  RecordingHandler hs;
  RecordingHandler hc;
  server_seam.set_handler(&hs);
  client_seam.set_handler(&hc);

  const std::uint16_t port = server.listen("127.0.0.1", 0);
  const NodeId conn = client.connect("127.0.0.1", port);
  ASSERT_TRUE(pump(server, client, [&] {
    return !hs.ups.empty() && !hc.ups.empty();
  })) << "connection did not establish";
  EXPECT_EQ(hc.ups[0], conn);

  // Client → server: three frames, each queued whole, arrive as one
  // ordered stream however the kernel slices it.
  ASSERT_TRUE(client_seam.send(conn, bytes_of("ping")));
  ASSERT_TRUE(client_seam.send(conn, bytes_of("-")));
  ASSERT_TRUE(client_seam.send(conn, bytes_of("again")));
  ASSERT_TRUE(pump(server, client, [&] {
    return hs.received[hs.ups[0]].size() >= 10;
  }));
  EXPECT_EQ(hs.received[hs.ups[0]], bytes_of("ping-again"));

  // Server → client over the accepted connection.
  ASSERT_TRUE(server_seam.send(hs.ups[0], bytes_of("pong!")));
  ASSERT_TRUE(pump(server, client, [&] {
    return hc.received[conn].size() >= 5;
  }));
  EXPECT_EQ(hc.received[conn], bytes_of("pong!"));

  // Closing on one side surfaces on_peer_down on the other, once; the
  // closed handle then refuses sends.
  client_seam.close_peer(conn);
  ASSERT_TRUE(pump(server, client, [&] { return !hs.downs.empty(); }));
  EXPECT_EQ(hs.downs.size(), 1U);
  EXPECT_EQ(hs.downs[0], hs.ups[0]);
  EXPECT_EQ(hc.downs.size(), 1U);
  EXPECT_FALSE(client_seam.send(conn, bytes_of("late")));
}

TEST(Tcp, LargeTransferSurvivesChunking) {
  // 1 MiB each way at the same time through real kernel buffers: both
  // streams arrive intact and in order, regardless of how recv() and
  // partial writes slice them.
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

  const std::vector<std::uint8_t> up = pattern(1U << 20U, 1);
  const std::vector<std::uint8_t> down = pattern(1U << 20U, 7);
  Transport& client_seam = client;
  Transport& server_seam = server;
  ASSERT_TRUE(client_seam.send(conn, up));
  ASSERT_TRUE(server_seam.send(hs.ups[0], down));
  ASSERT_TRUE(pump(server, client, [&] {
    return hs.received[hs.ups[0]].size() >= up.size() &&
           hc.received[conn].size() >= down.size();
  }));
  EXPECT_EQ(hs.received[hs.ups[0]], up);
  EXPECT_EQ(hc.received[conn], down);
}

TEST(Tcp, BackpressureRefusesOverCap) {
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

  // A send larger than the cap is refused outright — nothing is queued,
  // whatever the connection state (here: not yet established).
  EXPECT_FALSE(client.send(conn, std::vector<std::uint8_t>(65, 1)));
  EXPECT_EQ(client.backpressure_refusals(), 1U);
  EXPECT_EQ(client.send_queue_bytes(), 0U);

  // Within the cap it queues, flushes once established, and arrives.
  EXPECT_TRUE(client.send(conn, std::vector<std::uint8_t>(60, 2)));
  ASSERT_TRUE(pump(server, client, [&] {
    return !hs.ups.empty() && hs.received[hs.ups[0]].size() >= 60;
  }));
  EXPECT_EQ(hs.received[hs.ups[0]], std::vector<std::uint8_t>(60, 2));

  // Once drained, the cap admits another within-cap frame (the pump
  // retries the send until the reactor's flush has settled the queue).
  ASSERT_TRUE(pump(server, client, [&] {
    return client.send(conn, std::vector<std::uint8_t>(60, 3));
  }));
  ASSERT_TRUE(pump(server, client, [&] {
    return hs.received[hs.ups[0]].size() >= 120;
  }));
}

TEST(Tcp, ConnectToDeadPortFailsAfterRetries) {
  // Bind-then-close to get a port that is almost surely not listening.
  std::uint16_t dead_port = 0;
  {
    EpollReactor probe;
    dead_port = probe.listen("127.0.0.1", 0);
  }
  EpollReactor::Options opts;
  opts.connect_timeout = 0.5;
  opts.connect_retries = 1;
  opts.retry_backoff = 0.05;
  EpollReactor client{opts};
  RecordingHandler hc;
  client.set_handler(&hc);
  const NodeId conn = client.connect("127.0.0.1", dead_port);
  const double t0 = client.now();
  while (client.now() - t0 < 10.0 && hc.downs.empty()) {
    client.poll_once(0.01);
  }
  ASSERT_EQ(hc.downs.size(), 1U);
  EXPECT_EQ(hc.downs[0], conn);
  EXPECT_TRUE(hc.ups.empty());
  EXPECT_EQ(client.connects_failed(), 1U);

  // The dead connection refuses sends, and closing it again reports no
  // second down.
  Transport& seam = client;
  EXPECT_FALSE(seam.send(conn, bytes_of("x")));
  seam.close_peer(conn);
  EXPECT_EQ(hc.downs.size(), 1U);
}

TEST(Tcp, SendToUnknownConnRefused) {
  // No handler and no connection ever made: a made-up handle is refused
  // for sends, and closing it is a quiet no-op.
  EpollReactor t;
  Transport& seam = t;
  EXPECT_FALSE(seam.send(12345, bytes_of("x")));
  seam.close_peer(12345);
  EXPECT_EQ(t.open_connections(), 0U);
  EXPECT_EQ(t.sends(), 0U);
}

}  // namespace
}  // namespace icollect::net
