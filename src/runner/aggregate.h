#pragma once

/// \file aggregate.h
/// Order-independent aggregation of Monte-Carlo replica outcomes.
///
/// An AggregateReport folds R CollectionReports (one per replica) into
/// per-metric {mean, stddev, 95% CI half-width, min, max} via Welford's
/// online algorithm (stats::Summary). The CI uses the two-sided Student-t
/// 0.975 quantile at R-1 degrees of freedom, so small replica counts get
/// honestly wide intervals instead of the optimistic normal z = 1.96.
///
/// Determinism contract: add() must be called in replica-index order
/// (0..R-1). The runners guarantee this by parking each replica's report
/// in a pre-assigned slot and reducing sequentially after the parallel
/// fan-out — which is why identical (seed, grid, replicas) produce
/// byte-identical to_json() output for any worker count.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/report.h"
#include "stats/summary.h"

namespace icollect::runner {

/// Two-sided Student-t critical value t_{0.975, df} (df >= 1). Exact
/// table through df = 30, the normal limit 1.96 beyond.
[[nodiscard]] double student_t975(std::uint64_t df);

/// Half-width of the 95% confidence interval on the mean of `s`
/// (0 when fewer than two samples).
[[nodiscard]] double ci95_half_width(const stats::Summary& s);

/// One metric's replica aggregate as a JSON object:
/// {"mean":..,"stddev":..,"ci95":..,"min":..,"max":..}.
[[nodiscard]] std::string summary_json(const stats::Summary& s);

/// Named metric summaries for replica loops whose metrics are not a
/// CollectionReport (the bench-table generators). Rows keep insertion
/// order, so to_json() is byte-stable across runs with the same seed.
class MetricTable {
 public:
  /// Fold one replica's value into the row `name`, creating the row at
  /// the end of the table on first use.
  void add(std::string_view name, double value);

  /// The row's summary, or nullptr if `name` was never added.
  [[nodiscard]] const stats::Summary* find(std::string_view name) const;

  /// {"<name>":<summary_json>,...} in insertion order.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<std::pair<std::string, stats::Summary>> rows_;
};

/// The scalar metrics extracted from each CollectionReport, in the fixed
/// order they aggregate and serialize in.
inline constexpr std::array<std::string_view, 22> kReportMetricNames{
    "throughput",
    "normalized_throughput",
    "goodput",
    "normalized_goodput",
    "mean_block_delay",
    "mean_segment_delay",
    "max_segment_delay",
    "mean_blocks_per_peer",
    "storage_overhead",
    "empty_peer_fraction",
    "redundancy_fraction",
    "segments_injected",
    "segments_decoded",
    "segments_lost",
    "blocks_injected",
    "original_blocks_recovered",
    "server_pulls",
    "redundant_pulls",
    "peers_departed",
    "blocks_lost_to_churn",
    "saved_original_blocks_degree",
    "saved_original_blocks_rank",
};

class AggregateReport {
 public:
  static constexpr std::size_t kMetricCount = kReportMetricNames.size();

  /// Fold one replica's report in. Call in replica-index order.
  void add(const CollectionReport& report);

  [[nodiscard]] std::uint64_t replicas() const noexcept {
    return metrics_[0].count();
  }

  /// Aggregate for one metric by index (see kReportMetricNames).
  [[nodiscard]] const stats::Summary& metric(std::size_t i) const {
    return metrics_.at(i);
  }

  /// Aggregate by name; throws std::out_of_range on unknown names.
  [[nodiscard]] const stats::Summary& metric(std::string_view name) const;

  [[nodiscard]] double mean(std::string_view name) const {
    return metric(name).mean();
  }
  [[nodiscard]] double ci95(std::string_view name) const {
    return ci95_half_width(metric(name));
  }

  /// {"replicas":R,"metrics":{"<name>":{"mean":..,"stddev":..,
  ///  "ci95":..,"min":..,"max":..},...}} — the byte-comparison surface
  /// of the determinism tests and the per-cell payload of sweep JSONL.
  [[nodiscard]] std::string to_json() const;

 private:
  std::array<stats::Summary, kMetricCount> metrics_{};
};

/// The metric vector of one report, in kReportMetricNames order.
[[nodiscard]] std::array<double, AggregateReport::kMetricCount>
report_metric_values(const CollectionReport& report);

}  // namespace icollect::runner
