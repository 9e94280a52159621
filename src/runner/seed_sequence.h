#pragma once

/// \file seed_sequence.h
/// Hierarchical seed derivation for Monte-Carlo experiments.
///
/// Every stochastic experiment in the repo used to invent its own seed
/// arithmetic (`42 + s`, `seed * 1000003 + r`, ...), which correlates
/// replicas across sweep cells and reuses streams between curve
/// parameters. SeedSequence replaces all of that with one scheme:
///
///   root ──child(cell)──▶ cell sequence ──stream(replica)──▶ u64 seed
///
/// Each edge is a SplitMix64 avalanche over (state, index), so
///   * identical (root, path) always yields the identical seed — the
///     determinism contract of the replica engine, independent of how
///     many worker threads execute the replicas;
///   * distinct paths yield statistically independent seeds (the
///     finalizer is bijective; collisions across 10^4-scale stream
///     populations are birthday-bounded at ~5e-12).
///
/// The derivation is pure arithmetic: sequences are freely copyable and
/// never mutated by drawing, so there is no shared RNG state to race on.

#include <cstdint>

#include "common/rng.h"

namespace icollect::runner {

class SeedSequence {
 public:
  /// A sequence rooted at a user-chosen seed (CLI --seed, bench root).
  explicit constexpr SeedSequence(std::uint64_t root) noexcept
      : state_{common::splitmix64(root)} {}

  /// Sub-sequence for a named domain (sweep cell, bench figure, ...).
  /// child(a).child(b) != child(b).child(a) by construction.
  [[nodiscard]] constexpr SeedSequence child(std::uint64_t index) const
      noexcept {
    return SeedSequence{Derived{}, mix(index, kChildLane)};
  }

  /// Concrete 64-bit stream seed: feed this to common::Rng / mt19937_64.
  /// Derived in a different lane than child(), so a sequence's internal
  /// state never doubles as one of its emitted seeds.
  [[nodiscard]] constexpr std::uint64_t stream(std::uint64_t index) const
      noexcept {
    return mix(index, kStreamLane);
  }

  /// Shorthand for the canonical replica-engine layout:
  /// root -> cell -> replica.
  [[nodiscard]] constexpr std::uint64_t replica_seed(
      std::uint64_t cell, std::uint64_t replica) const noexcept {
    return child(cell).stream(replica);
  }

  /// The internal state (for diagnostics / tests only).
  [[nodiscard]] constexpr std::uint64_t state() const noexcept {
    return state_;
  }

 private:
  struct Derived {};

  // Distinct odd multipliers keep the child and stream derivations in
  // separate lanes (child(i).state() != stream(i)), and the +1 offset
  // keeps index 0 from passing state_ through the finalizer unperturbed.
  static constexpr std::uint64_t kChildLane = 0xD1B54A32D192ED03ULL;
  static constexpr std::uint64_t kStreamLane = 0x9E3779B97F4A7C15ULL;

  constexpr SeedSequence(Derived, std::uint64_t state) noexcept
      : state_{state} {}

  [[nodiscard]] constexpr std::uint64_t mix(std::uint64_t index,
                                            std::uint64_t lane) const
      noexcept {
    return common::splitmix64(state_ ^ (index + 1) * lane);
  }

  std::uint64_t state_;
};

}  // namespace icollect::runner
