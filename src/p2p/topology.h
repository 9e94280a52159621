#pragma once

/// \file topology.h
/// Static neighbor graphs for gossip. "The neighbors of a peer are the
/// peers that maintain data connections with it" (Sec. 2); in P2P
/// streaming these partner graphs are well modeled as sparse random
/// graphs, while the paper's ODE analysis assumes uniform selection over
/// all peers — i.e. the complete graph — so both are provided (plus
/// random-regular, the usual middle ground).

#include <cstddef>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "p2p/config.h"

namespace icollect::p2p {

class Topology {
 public:
  /// Complete graph on n vertices (adjacency is implicit: O(1) memory).
  [[nodiscard]] static Topology complete(std::size_t n);

  /// Erdős–Rényi G(n, p) with p = mean_degree / (n-1). Isolated vertices
  /// are given one random edge so every peer can gossip.
  [[nodiscard]] static Topology erdos_renyi(std::size_t n,
                                            double mean_degree,
                                            common::Rng& rng);

  /// Random regular-ish graph via the pairing model (degree * n must be
  /// even); multi-edges/self-loops from the pairing are re-drawn, with a
  /// bounded number of restarts, then deduplicated (so the realized
  /// degree can occasionally be degree-1).
  [[nodiscard]] static Topology random_regular(std::size_t n,
                                               std::size_t degree,
                                               common::Rng& rng);

  /// Build per a ProtocolConfig.
  [[nodiscard]] static Topology build(const ProtocolConfig& cfg,
                                      common::Rng& rng);

  [[nodiscard]] TopologyKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Number of neighbors of vertex v.
  [[nodiscard]] std::size_t degree(std::size_t v) const;

  /// The idx-th neighbor of v (0 <= idx < degree(v)).
  [[nodiscard]] std::size_t neighbor(std::size_t v, std::size_t idx) const;

  /// Uniformly random neighbor of v. Precondition: degree(v) > 0.
  [[nodiscard]] std::size_t random_neighbor(std::size_t v,
                                            common::Rng& rng) const;

  /// True if the graph is connected (BFS).
  [[nodiscard]] bool connected() const;

  /// Total number of undirected edges.
  [[nodiscard]] std::size_t edge_count() const;

 private:
  Topology(TopologyKind kind, std::size_t n) : kind_{kind}, n_{n} {}

  TopologyKind kind_;
  std::size_t n_;
  std::vector<std::vector<std::size_t>> adj_;  // empty for kComplete
};

}  // namespace icollect::p2p
