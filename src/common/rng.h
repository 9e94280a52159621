#pragma once

/// \file rng.h
/// Deterministic, seedable randomness shared by every layer.
///
/// Every stochastic ingredient of the paper's model flows through this
/// class: exponential inter-event times (Poisson injection at rate λ/s,
/// gossip at μ, TTL expiry at γ, server pulls at c_s, churn lifetimes),
/// uniform-at-random peer / segment / neighbor selection, and uniformly
/// random GF(2^8) coding coefficients. A single seed therefore reproduces
/// an entire simulation run — or a loopback cluster run — bit-for-bit.
///
/// Lives in common/ (not sim/) because the protocol core (src/proto/)
/// draws from the same stream type while staying independent of the
/// discrete-event kernel.

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/assert.h"
#include "gf/gf256.h"

namespace icollect::common {

/// SplitMix64 finalizer (Steele/Lea/Flood; the mixer of
/// std::philox-free seeding folklore): a bijective avalanche on 64 bits.
/// This is the primitive every derived seed in the codebase flows
/// through — runner::SeedSequence builds its per-cell / per-replica
/// stream tree out of it, so two distinct derivation paths never yield
/// correlated mt19937_64 seeds.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seedable random source. Thin, inlined wrapper over std::mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine_);
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    ICOLLECT_EXPECTS(lo <= hi);
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Uniform integer in [0, n). Precondition: n > 0.
  [[nodiscard]] std::size_t uniform_index(std::size_t n) {
    ICOLLECT_EXPECTS(n > 0);
    return std::uniform_int_distribution<std::size_t>{0, n - 1}(engine_);
  }

  /// Exponentially distributed waiting time with the given rate
  /// (mean 1/rate). Precondition: rate > 0.
  [[nodiscard]] double exponential(double rate) {
    ICOLLECT_EXPECTS(rate > 0.0);
    return std::exponential_distribution<double>{rate}(engine_);
  }

  /// Poisson-distributed count with the given mean.
  [[nodiscard]] int poisson(double mean) {
    ICOLLECT_EXPECTS(mean >= 0.0);
    if (mean == 0.0) return 0;
    return std::poisson_distribution<int>{mean}(engine_);
  }

  /// Bernoulli trial with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p) {
    ICOLLECT_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }

  /// Uniformly random GF(2^8) element (0 allowed).
  [[nodiscard]] gf::Element gf_element() {
    return static_cast<gf::Element>(engine_() & 0xFFU);
  }

  /// Uniformly random *non-zero* GF(2^8) element. Used for the leading
  /// coefficient of fresh coded blocks so a combination is never trivially
  /// the zero vector.
  [[nodiscard]] gf::Element gf_nonzero() {
    return static_cast<gf::Element>(1 + uniform_index(255));
  }

  /// Fill a span with uniformly random GF(2^8) elements.
  void fill_gf(std::span<gf::Element> out) {
    for (auto& e : out) e = gf_element();
  }

  /// Pick a uniformly random item from a non-empty vector.
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& items) {
    ICOLLECT_EXPECTS(!items.empty());
    return items[uniform_index(items.size())];
  }

  /// Derive an independent child stream (for sub-components that should
  /// not perturb the parent's sequence when their draw counts change).
  [[nodiscard]] Rng fork() { return Rng{engine_() ^ 0x9E3779B97F4A7C15ULL}; }

  /// Access to the raw engine, for std distributions not wrapped here.
  [[nodiscard]] std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace icollect::common
