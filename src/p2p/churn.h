#pragma once

/// \file churn.h
/// Peer-lifetime sampling for the replacement churn model.
///
/// The paper simulates exponential lifetimes (Sec. 4, after [7], [8]).
/// Measurement studies — including [7] (Leonard, Rai, Loguinov,
/// SIGMETRICS'05), the very reference the paper takes the replacement
/// model from — find real P2P lifetimes heavy-tailed, so the library
/// also offers Pareto lifetimes with the same mean: many short-lived
/// peers plus a persistent minority, which stresses the collection
/// pipeline quite differently from the memoryless case.

#include <cmath>

#include "common/assert.h"
#include "common/rng.h"
#include "p2p/config.h"

namespace icollect::p2p {

/// Draw one lifetime according to the churn configuration.
/// Precondition: cfg.enabled and cfg.mean_lifetime > 0.
[[nodiscard]] inline double sample_lifetime(const ChurnConfig& cfg,
                                            common::Rng& rng) {
  ICOLLECT_EXPECTS(cfg.enabled);
  ICOLLECT_EXPECTS(cfg.mean_lifetime > 0.0);
  switch (cfg.distribution) {
    case LifetimeDistribution::kExponential:
      return rng.exponential(1.0 / cfg.mean_lifetime);
    case LifetimeDistribution::kPareto: {
      // Pareto(x_m, α) has mean x_m·α/(α−1) for α > 1; choose x_m so the
      // configured mean is preserved. Inverse-CDF sampling.
      const double alpha = cfg.pareto_shape;
      ICOLLECT_EXPECTS(alpha > 1.0);
      const double x_m = cfg.mean_lifetime * (alpha - 1.0) / alpha;
      double u;
      do {
        u = rng.uniform();
      } while (u <= 0.0);  // guard the open interval
      return x_m * std::pow(u, -1.0 / alpha);
    }
    case LifetimeDistribution::kLogNormal: {
      // LogNormal(μ, σ) has mean exp(μ + σ²/2); derive μ so the
      // configured mean is preserved. Box-Muller from two uniforms —
      // exactly two draws per lifetime, keeping the shared stream's
      // draw count deterministic (common::Rng has no normal()).
      const double sigma = cfg.lognormal_sigma;
      ICOLLECT_EXPECTS(sigma > 0.0);
      const double mu_log =
          std::log(cfg.mean_lifetime) - 0.5 * sigma * sigma;
      double u1;
      do {
        u1 = rng.uniform();
      } while (u1 <= 0.0);  // log(0) guard
      const double u2 = rng.uniform();
      constexpr double kTwoPi = 6.283185307179586476925286766559;
      const double z =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
      return std::exp(mu_log + sigma * z);
    }
  }
  ICOLLECT_EXPECTS(false);  // unreachable
  return cfg.mean_lifetime;
}

}  // namespace icollect::p2p
