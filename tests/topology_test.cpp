/// Neighbor-graph tests for all three topology kinds.

#include <gtest/gtest.h>

#include <set>

#include "p2p/topology.h"

namespace icollect::p2p {
namespace {

TEST(TopologyComplete, DegreesAndNeighbors) {
  const Topology t = Topology::complete(6);
  EXPECT_EQ(t.kind(), TopologyKind::kComplete);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.edge_count(), 15u);
  EXPECT_TRUE(t.connected());
  for (std::size_t v = 0; v < 6; ++v) {
    EXPECT_EQ(t.degree(v), 5u);
    std::set<std::size_t> nbrs;
    for (std::size_t i = 0; i < t.degree(v); ++i) {
      const std::size_t u = t.neighbor(v, i);
      EXPECT_NE(u, v);
      EXPECT_LT(u, 6u);
      nbrs.insert(u);
    }
    EXPECT_EQ(nbrs.size(), 5u);  // all distinct
  }
}

TEST(TopologyComplete, TooSmallViolatesContract) {
  EXPECT_THROW((void)Topology::complete(1), icollect::ContractViolation);
}

TEST(TopologyComplete, RandomNeighborNeverSelf) {
  const Topology t = Topology::complete(4);
  common::Rng rng{31};
  for (int i = 0; i < 500; ++i) {
    EXPECT_NE(t.random_neighbor(2, rng), 2u);
  }
}

TEST(TopologyErdosRenyi, MeanDegreeApproximatelyTarget) {
  common::Rng rng{32};
  const Topology t = Topology::erdos_renyi(400, 20.0, rng);
  EXPECT_EQ(t.kind(), TopologyKind::kErdosRenyi);
  double total = 0.0;
  for (std::size_t v = 0; v < t.size(); ++v) {
    total += static_cast<double>(t.degree(v));
    EXPECT_GE(t.degree(v), 1u);  // isolated vertices were repaired
  }
  EXPECT_NEAR(total / 400.0, 20.0, 2.0);
}

TEST(TopologyErdosRenyi, SymmetricAdjacency) {
  common::Rng rng{33};
  const Topology t = Topology::erdos_renyi(60, 6.0, rng);
  for (std::size_t v = 0; v < t.size(); ++v) {
    for (std::size_t i = 0; i < t.degree(v); ++i) {
      const std::size_t u = t.neighbor(v, i);
      bool back = false;
      for (std::size_t j = 0; j < t.degree(u); ++j) {
        if (t.neighbor(u, j) == v) back = true;
      }
      EXPECT_TRUE(back) << v << "->" << u;
    }
  }
}

TEST(TopologyErdosRenyi, DenseEnoughIsConnected) {
  common::Rng rng{34};
  // mean degree 12 >> ln(200) ≈ 5.3, connected w.h.p.
  const Topology t = Topology::erdos_renyi(200, 12.0, rng);
  EXPECT_TRUE(t.connected());
}

TEST(TopologyRandomRegular, ExactDegreeUsually) {
  common::Rng rng{35};
  const Topology t = Topology::random_regular(100, 8, rng);
  EXPECT_EQ(t.kind(), TopologyKind::kRandomRegular);
  std::size_t exact = 0;
  for (std::size_t v = 0; v < t.size(); ++v) {
    EXPECT_GE(t.degree(v), 1u);
    if (t.degree(v) == 8u) ++exact;
  }
  // The pairing model with restarts yields exactly-regular graphs unless
  // it fell back; either way the bulk must be at the target degree.
  EXPECT_GE(exact, 80u);
}

TEST(TopologyRandomRegular, OddProductRejected) {
  common::Rng rng{36};
  EXPECT_THROW((void)Topology::random_regular(5, 3, rng),
               std::invalid_argument);
}

TEST(TopologyRandomRegular, NoSelfLoops) {
  common::Rng rng{37};
  const Topology t = Topology::random_regular(50, 4, rng);
  for (std::size_t v = 0; v < t.size(); ++v) {
    for (std::size_t i = 0; i < t.degree(v); ++i) {
      EXPECT_NE(t.neighbor(v, i), v);
    }
  }
}

TEST(TopologyBuild, DispatchesOnConfig) {
  common::Rng rng{38};
  ProtocolConfig cfg;
  cfg.num_peers = 30;
  cfg.topology = TopologyKind::kComplete;
  EXPECT_EQ(Topology::build(cfg, rng).kind(), TopologyKind::kComplete);
  cfg.topology = TopologyKind::kErdosRenyi;
  cfg.mean_degree = 6;
  EXPECT_EQ(Topology::build(cfg, rng).kind(), TopologyKind::kErdosRenyi);
  cfg.topology = TopologyKind::kRandomRegular;
  EXPECT_EQ(Topology::build(cfg, rng).kind(), TopologyKind::kRandomRegular);
}

TEST(TopologyBuild, DeterministicGivenSeed) {
  common::Rng rng1{55};
  common::Rng rng2{55};
  const Topology a = Topology::erdos_renyi(80, 8.0, rng1);
  const Topology b = Topology::erdos_renyi(80, 8.0, rng2);
  for (std::size_t v = 0; v < 80; ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v));
    for (std::size_t i = 0; i < a.degree(v); ++i) {
      ASSERT_EQ(a.neighbor(v, i), b.neighbor(v, i));
    }
  }
}

}  // namespace
}  // namespace icollect::p2p
