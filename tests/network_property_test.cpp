/// Randomized property sweep: across a grid of seeds and randomly drawn
/// protocol configurations, the engine's structural invariants and
/// conservation laws must hold. This is the failure-injection net that
/// catches interactions no hand-written scenario covers (tiny buffers,
/// extreme rates, sparse graphs, churn + counter fidelity, ...).

#include <gtest/gtest.h>

#include <unordered_map>

#include "p2p/network.h"

namespace icollect::p2p {
namespace {

ProtocolConfig random_config(common::Rng& rng) {
  ProtocolConfig cfg;
  cfg.num_peers = 20 + rng.uniform_index(80);
  cfg.lambda = rng.uniform(0.5, 25.0);
  cfg.segment_size = 1 + rng.uniform_index(20);
  cfg.mu = rng.uniform(0.0, 15.0);
  cfg.gamma = rng.uniform(0.3, 3.0);
  cfg.buffer_cap =
      cfg.segment_size + 1 + rng.uniform_index(100);  // >= s, maybe tiny
  cfg.num_servers = 1 + rng.uniform_index(6);
  cfg.set_normalized_capacity(rng.uniform(0.0, 12.0));
  cfg.fidelity = rng.bernoulli(0.5) ? CollectionFidelity::kStateCounter
                                    : CollectionFidelity::kRealCoding;
  const int topo = static_cast<int>(rng.uniform_index(3));
  cfg.topology = topo == 0   ? TopologyKind::kComplete
                 : topo == 1 ? TopologyKind::kErdosRenyi
                             : TopologyKind::kRandomRegular;
  if (cfg.topology != TopologyKind::kComplete) {
    cfg.mean_degree = 4 + rng.uniform_index(8);
    if (cfg.topology == TopologyKind::kRandomRegular &&
        (cfg.mean_degree * cfg.num_peers) % 2 != 0) {
      ++cfg.mean_degree;
    }
  }
  if (rng.bernoulli(0.5)) {
    cfg.churn.enabled = true;
    cfg.churn.mean_lifetime = rng.uniform(0.5, 8.0);
  }
  return cfg;
}

class NetworkPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkPropertyTest, InvariantsHoldOnRandomConfigs) {
  common::Rng meta{GetParam()};
  ProtocolConfig cfg = random_config(meta);
  cfg.seed = GetParam() * 7919 + 1;
  SCOPED_TRACE("N=" + std::to_string(cfg.num_peers) +
               " lambda=" + std::to_string(cfg.lambda) +
               " s=" + std::to_string(cfg.segment_size) +
               " mu=" + std::to_string(cfg.mu) +
               " gamma=" + std::to_string(cfg.gamma) +
               " B=" + std::to_string(cfg.buffer_cap) +
               " c=" + std::to_string(cfg.normalized_capacity()) +
               " topo=" + to_string(cfg.topology) + " fidelity=" +
               to_string(cfg.fidelity) +
               " churn=" + std::to_string(cfg.churn.enabled));

  Network net{cfg};
  net.run_until(8.0);

  // 1. Buffer caps respected; registry degrees match ground truth.
  std::unordered_map<coding::SegmentId, std::size_t> degrees;
  std::size_t blocks_in_network = 0;
  for (std::size_t slot = 0; slot < cfg.num_peers; ++slot) {
    const Peer& p = net.peer(slot);
    ASSERT_LE(p.buffer().size(), cfg.buffer_cap);
    blocks_in_network += p.buffer().size();
    for (const auto& seg : p.buffer().segments()) {
      const auto* sb = p.buffer().find(seg);
      ASSERT_NE(sb, nullptr);
      ASSERT_FALSE(sb->empty());
      degrees[seg] += sb->block_count();
    }
  }
  std::size_t live = 0;
  for (const auto& [id, info] : net.segment_registry()) {
    if (info.degree > 0) {
      ++live;
      const auto it = degrees.find(id);
      ASSERT_NE(it, degrees.end());
      ASSERT_EQ(it->second, info.degree);
    }
    ASSERT_LE(info.collected, info.segment_size);
    ASSERT_FALSE(info.decoded && info.lost);
  }
  ASSERT_EQ(live, degrees.size());

  // 2. Block conservation.
  const auto& m = net.metrics();
  ASSERT_EQ(m.blocks_injected + m.gossip_sent,
            m.ttl_expirations + m.blocks_lost_to_churn + blocks_in_network);

  // 3. Server accounting.
  const auto& srv = net.servers();
  ASSERT_EQ(srv.pulls(), srv.innovative_pulls() + srv.redundant_pulls());
  ASSERT_LE(srv.segments_decoded(), m.segments_injected);
  ASSERT_EQ(m.payload_crc_failures, 0u);

  // 4. Derived rates stay in physical ranges.
  ASSERT_GE(net.normalized_throughput(), 0.0);
  ASSERT_LE(net.normalized_throughput(), 1.0 + 1e-9);
  ASSERT_GE(net.mean_blocks_per_peer(), 0.0);
  ASSERT_LE(net.empty_peer_fraction(), 1.0 + 1e-9);

  // 5. Census coherence.
  const auto census = net.saved_data_census();
  ASSERT_LE(census.decodable_by_rank, census.decodable_by_degree);
  ASSERT_LE(census.decodable_by_degree, census.undecoded_live_segments);
  ASSERT_EQ(census.live_segments, live);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace icollect::p2p
