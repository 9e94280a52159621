#include "p2p/topology.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace icollect::p2p {

Topology Topology::complete(std::size_t n) {
  ICOLLECT_EXPECTS(n >= 2);
  return Topology{TopologyKind::kComplete, n};
}

Topology Topology::erdos_renyi(std::size_t n, double mean_degree,
                               common::Rng& rng) {
  ICOLLECT_EXPECTS(n >= 2);
  ICOLLECT_EXPECTS(mean_degree > 0.0 &&
                   mean_degree < static_cast<double>(n));
  Topology t{TopologyKind::kErdosRenyi, n};
  t.adj_.assign(n, {});
  const double p = mean_degree / static_cast<double>(n - 1);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) {
        t.adj_[u].push_back(v);
        t.adj_[v].push_back(u);
      }
    }
  }
  // Give isolated vertices one random edge so all peers can participate.
  for (std::size_t u = 0; u < n; ++u) {
    if (t.adj_[u].empty()) {
      std::size_t v = rng.uniform_index(n - 1);
      if (v >= u) ++v;
      t.adj_[u].push_back(v);
      t.adj_[v].push_back(u);
    }
  }
  return t;
}

Topology Topology::random_regular(std::size_t n, std::size_t degree,
                                  common::Rng& rng) {
  ICOLLECT_EXPECTS(n >= 2);
  ICOLLECT_EXPECTS(degree >= 1 && degree < n);
  if ((n * degree) % 2 != 0) {
    throw std::invalid_argument("random_regular: n * degree must be even");
  }
  Topology t{TopologyKind::kRandomRegular, n};
  // Pairing (configuration) model with local swap-repair: when the next
  // pair would be a self-loop or multi-edge, swap its second stub with a
  // uniformly random later stub and retry. A bare restart-on-collision
  // policy would essentially never terminate (collision probability
  // approaches 1 for moderate degrees); swap-repair succeeds w.h.p.
  constexpr int kMaxRestarts = 50;
  for (int attempt = 0; attempt < kMaxRestarts; ++attempt) {
    std::vector<std::size_t> stubs;
    stubs.reserve(n * degree);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t k = 0; k < degree; ++k) stubs.push_back(v);
    }
    // Fisher-Yates shuffle with our deterministic Rng.
    for (std::size_t i = stubs.size(); i > 1; --i) {
      std::swap(stubs[i - 1], stubs[rng.uniform_index(i)]);
    }
    bool ok = true;
    std::vector<std::vector<std::size_t>> adj(n);
    auto is_bad = [&adj](std::size_t u, std::size_t v) {
      return u == v ||
             std::find(adj[u].begin(), adj[u].end(), v) != adj[u].end();
    };
    for (std::size_t i = 0; i + 1 < stubs.size() && ok; i += 2) {
      constexpr int kMaxSwaps = 400;
      int swaps = 0;
      while (is_bad(stubs[i], stubs[i + 1]) && swaps < kMaxSwaps) {
        const std::size_t remaining = stubs.size() - (i + 1);
        if (remaining <= 1) break;  // nothing left to swap with
        const std::size_t j = i + 1 + rng.uniform_index(remaining);
        std::swap(stubs[i + 1], stubs[j]);
        ++swaps;
      }
      if (is_bad(stubs[i], stubs[i + 1])) {
        ok = false;
        break;
      }
      adj[stubs[i]].push_back(stubs[i + 1]);
      adj[stubs[i + 1]].push_back(stubs[i]);
    }
    if (ok) {
      t.adj_ = std::move(adj);
      return t;
    }
  }
  // Fall back to Erdős–Rényi at the same mean degree rather than spin:
  // the gossip protocol only needs a well-mixed sparse graph.
  Topology fallback =
      erdos_renyi(n, static_cast<double>(degree), rng);
  fallback.kind_ = TopologyKind::kRandomRegular;
  return fallback;
}

Topology Topology::build(const ProtocolConfig& cfg, common::Rng& rng) {
  switch (cfg.topology) {
    case TopologyKind::kComplete:
      return complete(cfg.num_peers);
    case TopologyKind::kErdosRenyi:
      return erdos_renyi(cfg.num_peers,
                         static_cast<double>(cfg.mean_degree), rng);
    case TopologyKind::kRandomRegular:
      return random_regular(cfg.num_peers, cfg.mean_degree, rng);
  }
  throw std::invalid_argument("unknown topology kind");
}

std::size_t Topology::degree(std::size_t v) const {
  ICOLLECT_EXPECTS(v < n_);
  if (kind_ == TopologyKind::kComplete) return n_ - 1;
  return adj_[v].size();
}

std::size_t Topology::neighbor(std::size_t v, std::size_t idx) const {
  ICOLLECT_EXPECTS(v < n_);
  ICOLLECT_EXPECTS(idx < degree(v));
  if (kind_ == TopologyKind::kComplete) return idx < v ? idx : idx + 1;
  return adj_[v][idx];
}

std::size_t Topology::random_neighbor(std::size_t v, common::Rng& rng) const {
  const std::size_t d = degree(v);
  ICOLLECT_EXPECTS(d > 0);
  return neighbor(v, rng.uniform_index(d));
}

bool Topology::connected() const {
  if (kind_ == TopologyKind::kComplete) return true;
  std::vector<char> seen(n_, 0);
  std::queue<std::size_t> frontier;
  frontier.push(0);
  seen[0] = 1;
  std::size_t visited = 1;
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop();
    for (const std::size_t v : adj_[u]) {
      if (seen[v] == 0) {
        seen[v] = 1;
        ++visited;
        frontier.push(v);
      }
    }
  }
  return visited == n_;
}

std::size_t Topology::edge_count() const {
  if (kind_ == TopologyKind::kComplete) return n_ * (n_ - 1) / 2;
  std::size_t total = 0;
  for (const auto& nb : adj_) total += nb.size();
  return total / 2;
}

}  // namespace icollect::p2p
