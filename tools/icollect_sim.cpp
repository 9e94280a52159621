/// \file icollect_sim.cpp
/// Command-line driver: run one indirect-collection session (and,
/// optionally, the fluid model and the direct baseline) for an arbitrary
/// key=value configuration and print the full report.
///
///   icollect_sim [key=value ...] [warm=T] [measure=T] [ode=0|1] [direct=0|1]
///                [--metrics-out=DIR] [--metrics-interval=T]
///                [--trace-out[=FILE]] [--trace-filter=k1,k2,...]
///                [--profile] [--progress]
///
/// Examples:
///   icollect_sim peers=300 lambda=20 s=20 mu=10 c=5
///   icollect_sim lambda=8 s=1 c=2 churn=2 fidelity=real-coding ode=0
///   icollect_sim peers=100 --metrics-out=run1 --trace-out --profile

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config_args.h"
#include "core/icollect.h"
#include "gf/kernels.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "p2p/network_telemetry.h"
#include "workload/trace_replay.h"

int main(int argc, char** argv) {
  using namespace icollect;

  double warm = 10.0;
  double measure = 30.0;
  bool run_ode = true;
  bool run_direct = false;
  std::string trace_path;
  std::string scenario_arg;
  obs::TelemetryOptions topts;
  bool trace_out_requested = false;
  std::optional<p2p::PullPolicy> pull_policy_override;

  // Split driver options from protocol key=values.
  std::vector<std::string_view> cfg_args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg == "-h" || arg == "--help") {
      std::printf(
          "usage: %s [key=value ...]\nprotocol keys:\n%s"
          "driver keys:\n  warm=T measure=T ode=0|1 direct=0|1 "
          "trace=FILE.csv\n"
          "  --pull-policy=uniform|all|rarest|deficit  (server pull "
          "scheduling)\n"
          "telemetry flags:\n"
          "  --metrics-out=DIR      write a telemetry bundle (config.json,\n"
          "                         snapshots.jsonl/.csv, summary.json)\n"
          "  --metrics-interval=T   snapshot spacing in virtual time "
          "(default 0.5)\n"
          "  --trace-out[=FILE]     protocol event trace JSONL (default\n"
          "                         <metrics-dir>/trace.jsonl)\n"
          "  --trace-filter=a,b,..  keep only these trace kinds "
          "(default all)\n"
          "  --profile              per-event-type wall-clock profile\n"
          "  --progress             progress line per snapshot (stderr)\n"
          "  --gf-kernel=K          GF(2^8) kernel: scalar|ssse3|avx2|auto\n"
          "                         (default auto; env ICOLLECT_GF_KERNEL)\n"
          "scenario pack (docs/SCENARIOS.md):\n"
          "  --scenario=SPEC        hostile scenario, class:key=value,...\n"
          "                         byzantine:fraction=,strategy=,checks=\n"
          "                         faults:fraction=,at=,heal=\n"
          "                         trace:amplitude=,period=,burst=,\n"
          "                               burst-at=,burst-len=,sigma=,"
          "lifetime=\n",
          argv[0], config_args_help());
      return 0;
    }
    if (arg.rfind("warm=", 0) == 0) {
      warm = std::strtod(argv[i] + 5, nullptr);
    } else if (arg.rfind("measure=", 0) == 0) {
      measure = std::strtod(argv[i] + 8, nullptr);
    } else if (arg.rfind("ode=", 0) == 0) {
      run_ode = std::strtol(argv[i] + 4, nullptr, 10) != 0;
    } else if (arg.rfind("direct=", 0) == 0) {
      run_direct = std::strtol(argv[i] + 7, nullptr, 10) != 0;
    } else if (arg.rfind("trace=", 0) == 0) {
      trace_path = std::string{arg.substr(6)};
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      topts.metrics_dir = std::string{arg.substr(14)};
    } else if (arg.rfind("--metrics-interval=", 0) == 0) {
      topts.metrics_interval = std::strtod(argv[i] + 19, nullptr);
    } else if (arg == "--trace-out") {
      trace_out_requested = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out_requested = true;
      topts.trace_path = std::string{arg.substr(12)};
    } else if (arg.rfind("--trace-filter=", 0) == 0) {
      topts.trace_filter = std::string{arg.substr(15)};
    } else if (arg == "--profile") {
      topts.profile = true;
    } else if (arg.rfind("--profile=", 0) == 0) {
      topts.profile = std::strtol(argv[i] + 10, nullptr, 10) != 0;
    } else if (arg == "--progress") {
      topts.progress = true;
    } else if (arg.rfind("--scenario=", 0) == 0) {
      scenario_arg = std::string{arg.substr(11)};
    } else if (arg.rfind("--pull-policy=", 0) == 0) {
      // Shared cross-driver flag name; equivalent to the pull= config key
      // but with the CLI-wide usage-error contract (exit 2).
      const std::string_view name = arg.substr(14);
      pull_policy_override = p2p::parse_pull_policy(name);
      if (!pull_policy_override) {
        std::fprintf(stderr,
                     "--pull-policy=%.*s: unknown policy "
                     "(choices: uniform|all|rarest|deficit)\n",
                     static_cast<int>(name.size()), name.data());
        return 2;
      }
    } else if (arg.rfind("--gf-kernel=", 0) == 0) {
      const std::string_view kernel = arg.substr(12);
      if (!gf::Kernels::select_by_name(kernel)) {
        std::fprintf(stderr,
                     "--gf-kernel=%.*s: unknown or unsupported on this CPU "
                     "(choices: scalar|ssse3|avx2|auto)\n",
                     static_cast<int>(kernel.size()), kernel.data());
        return 1;
      }
    } else {
      cfg_args.push_back(arg);
    }
  }
  if (trace_out_requested && topts.trace_path.empty()) {
    if (topts.metrics_dir.empty()) {
      std::fprintf(stderr,
                   "--trace-out without a file needs --metrics-out=DIR "
                   "to place trace.jsonl in\n");
      return 1;
    }
    topts.trace_path = topts.metrics_dir + "/trace.jsonl";
  }
  if (topts.metrics_interval <= 0.0) {
    std::fprintf(stderr, "--metrics-interval must be > 0\n");
    return 1;
  }

  p2p::ProtocolConfig cfg;
  try {
    apply_config_args(cfg, cfg_args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\nprotocol keys:\n%s", e.what(),
                 config_args_help());
    return 1;
  }
  if (pull_policy_override) cfg.pull_policy = *pull_policy_override;

  // A scenario adjusts the config before the system is built; fault
  // windows and arrival profiles attach right after construction.
  std::unique_ptr<workload::ScenarioSpec> scenario;
  if (!scenario_arg.empty()) {
    try {
      scenario = std::make_unique<workload::ScenarioSpec>(
          workload::ScenarioSpec::parse(scenario_arg));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    using Kind = workload::ScenarioSpec::Kind;
    switch (scenario->kind) {
      case Kind::kByzantine:
        cfg.adversary.dishonest_fraction = scenario->dishonest_fraction;
        cfg.adversary.strategy = scenario->strategy;
        cfg.adversary.integrity_checks = scenario->integrity_checks;
        // Pollution needs bytes to pollute; give the blocks a payload
        // when the base config runs coefficients-only.
        if (cfg.payload_bytes == 0) cfg.payload_bytes = 32;
        break;
      case Kind::kFaults:
        break;  // attached to the network below
      case Kind::kTrace:
        if (scenario->mean_lifetime > 0.0) {
          cfg.churn.enabled = true;
          cfg.churn.mean_lifetime = scenario->mean_lifetime;
          cfg.churn.distribution = p2p::LifetimeDistribution::kLogNormal;
          cfg.churn.lognormal_sigma = scenario->lognormal_sigma;
        }
        break;
    }
  }

  std::printf("config: %s gf-kernel=%s\n", describe(cfg).c_str(),
              gf::Kernels::active().name);
  std::printf("running: warm-up %.1f, measure %.1f ...\n\n", warm, measure);

  CollectionSystem system{cfg};
  std::unique_ptr<workload::ArrivalProfile> arrival;
  if (scenario) {
    using Kind = workload::ScenarioSpec::Kind;
    if (scenario->kind == Kind::kFaults) {
      system.network().set_isolation_window(scenario->partition_fraction,
                                            scenario->partition_at,
                                            scenario->heal_at);
    } else if (scenario->kind == Kind::kTrace) {
      arrival = scenario->make_arrival_profile(cfg.lambda);
      system.network().set_arrival_profile(arrival.get());
    }
  }
  std::unique_ptr<obs::Telemetry> telemetry;
  if (topts.any_enabled()) {
    try {
      telemetry = std::make_unique<obs::Telemetry>(topts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "telemetry: %s\n", e.what());
      return 1;
    }
    system.attach_telemetry(*telemetry);
  }
  std::unique_ptr<stats::CsvWriter> trace_csv;
  if (!trace_path.empty()) {
    trace_csv = std::make_unique<stats::CsvWriter>(trace_path);
    trace_csv->write_row(
        {"t", "event", "slot", "segment_origin", "segment_seq", "aux"});
    // The legacy CSV trace chains in front of the telemetry ring so both
    // sinks see every event.
    system.network().set_trace_sink([&](const proto::TraceEvent& ev) {
      trace_csv->row()
          .add(ev.at)
          .add(proto::to_string(ev.kind))
          .add(ev.slot)
          .add(static_cast<std::uint64_t>(ev.segment.origin))
          .add(static_cast<std::uint64_t>(ev.segment.seq))
          .add(ev.aux)
          .end();
      if (telemetry) telemetry->trace().record(ev);
    });
  }
  system.warm_up(warm);
  system.run(measure);
  if (trace_csv) {
    trace_csv->flush();
    std::printf("trace: %zu events written to %s\n",
                trace_csv->rows_written() - 1, trace_path.c_str());
  }
  const CollectionReport r = system.report();

  std::printf("-- indirect collection --\n");
  std::printf("throughput (useful blocks/t)  %10.2f   normalized %.4f\n",
              r.throughput, r.normalized_throughput);
  std::printf("goodput (decoded blocks/t)    %10.2f   normalized %.4f\n",
              r.goodput, r.normalized_goodput);
  std::printf("capacity bound (c/lambda)     %10.4f\n", r.capacity_bound);
  std::printf("block delay                   %10.4f   segment delay %.4f "
              "(max %.3f)\n",
              r.mean_block_delay, r.mean_segment_delay, r.max_segment_delay);
  std::printf("blocks/peer (rho)             %10.3f   overhead %.3f "
              "(bound %.1f)\n",
              r.mean_blocks_per_peer, r.storage_overhead, r.overhead_bound);
  std::printf("segments injected/decoded/lost %llu / %llu / %llu\n",
              static_cast<unsigned long long>(r.segments_injected),
              static_cast<unsigned long long>(r.segments_decoded),
              static_cast<unsigned long long>(r.segments_lost));
  std::printf("pulls %llu (redundant %.1f%%)   CRC failures %llu\n",
              static_cast<unsigned long long>(r.server_pulls),
              100.0 * r.redundancy_fraction(),
              static_cast<unsigned long long>(r.payload_crc_failures));
  std::printf("saved for future delivery     %10.0f blocks (rank-exact)\n",
              r.saved.saved_original_blocks_rank);
  if (cfg.churn.enabled) {
    const auto dep = system.network().departed_data_stats();
    std::printf("departed peers %llu, their data recovered %.1f%%\n",
                static_cast<unsigned long long>(dep.departed_origins),
                100.0 * dep.recovery_fraction());
  }

  if (scenario) {
    // Machine-readable scenario summary (only with --scenario, so the
    // default output — and its golden pins — stays byte-identical).
    const auto& m = system.network().metrics();
    obs::JsonObject sj;
    sj.field_raw("spec", scenario->to_json())
        .field("dishonest_peers", system.network().dishonest_count())
        .field("blocks_corrupted", m.blocks_corrupted)
        .field("blocks_quarantined", m.blocks_quarantined)
        .field("polluted_pulls", m.polluted_pulls)
        .field("gossip_blocked_isolated", m.gossip_blocked_isolated)
        .field("pulls_blocked_isolated", m.pulls_blocked_isolated)
        .field("segments_injected", r.segments_injected)
        .field("segments_decoded", r.segments_decoded)
        .field("normalized_throughput", r.normalized_throughput);
    std::printf("\n-- scenario --\n%s\n", sj.str().c_str());
  }

  if (cfg.pull_policy != p2p::PullPolicy::kUniformNonEmpty &&
      cfg.pull_policy != p2p::PullPolicy::kUniformAll) {
    // Machine-readable scheduling summary (only for the feedback-driven
    // policies, so default output — and its golden pins — is untouched).
    obs::JsonObject pj;
    pj.field_str("policy", to_string(cfg.pull_policy))
        .field("pulls", r.server_pulls)
        .field("redundant_fraction", r.redundancy_fraction())
        .field("segments_injected", r.segments_injected)
        .field("segments_decoded", r.segments_decoded);
    if (const auto* trk = system.network().pull_tracker()) {
      pj.field("open_segments", trk->open_count())
          .field("suspended_segments", trk->suspended_count());
    }
    std::printf("\n-- pull-policy --\n%s\n", pj.str().c_str());
  }

  if (telemetry) {
    telemetry->write_summary(to_json(r));
    std::printf("\n-- telemetry --\n");
    if (telemetry->snapshots_enabled()) {
      std::printf("bundle: %s (%zu snapshots every %.3g)\n",
                  telemetry->options().metrics_dir.c_str(),
                  telemetry->snapshotter().samples(),
                  telemetry->snapshotter().interval());
    }
    if (!telemetry->options().trace_path.empty()) {
      std::printf("trace: %llu events to %s (%llu filtered out, "
                  "%llu overwritten in ring)\n",
                  static_cast<unsigned long long>(
                      telemetry->trace().accepted()),
                  telemetry->options().trace_path.c_str(),
                  static_cast<unsigned long long>(
                      telemetry->trace().filtered_out()),
                  static_cast<unsigned long long>(
                      telemetry->trace().overwritten()));
    }
    if (telemetry->profiler() != nullptr) {
      std::printf("%s", telemetry->profiler()->table().c_str());
    }
  }

  if (run_ode) {
    const auto sol = CollectionSystem::analyze(cfg);
    std::printf("\n-- fluid model (Sec. 3 ODEs) --\n");
    std::printf("converged=%d  residual=%.2e\n",
                static_cast<int>(sol.convergence.converged),
                sol.convergence.residual);
    std::printf("rho %.3f | eta %.4f | normalized thr %.4f | delay %.4f | "
                "saved/peer %.2f\n",
                sol.rho(), sol.collection_efficiency(),
                sol.normalized_throughput(), sol.block_delay(),
                sol.saved_blocks_per_peer());
  }

  if (run_direct) {
    p2p::DirectCollector dc{cfg};
    // The baseline shares the bundle directory under a "direct_" file
    // prefix, so one run yields a directly comparable pair of series.
    std::unique_ptr<obs::Telemetry> direct_tel;
    if (telemetry && telemetry->snapshots_enabled()) {
      obs::TelemetryOptions dopts;
      dopts.metrics_dir = topts.metrics_dir;
      dopts.metrics_interval = topts.metrics_interval;
      dopts.profile = topts.profile;
      dopts.file_prefix = "direct_";
      direct_tel = std::make_unique<obs::Telemetry>(dopts);
      p2p::register_direct_collector_metrics(direct_tel->registry(), dc);
      if (direct_tel->profiler() != nullptr) {
        dc.set_profiler(direct_tel->profiler());
      }
      direct_tel->snapshotter().start(dc.now());
    }
    auto run_direct_until = [&](double end) {
      if (!direct_tel) {
        dc.run_until(end);
        return;
      }
      auto& snap = direct_tel->snapshotter();
      while (true) {
        dc.run_until(std::min(end, snap.next_due()));
        snap.sample_if_due(dc.now());
        if (dc.now() >= end) break;
      }
    };
    run_direct_until(warm);
    dc.warm_up(dc.now());
    run_direct_until(dc.now() + measure);
    std::printf("\n-- direct baseline (Fig. 1a) --\n");
    std::printf("normalized throughput %.4f | delay %.4f | loss %.4f\n",
                dc.normalized_throughput(), dc.mean_delay(),
                dc.loss_fraction());
    if (direct_tel) {
      obs::JsonObject summary;
      summary.field("throughput", dc.throughput())
          .field("normalized_throughput", dc.normalized_throughput())
          .field("mean_delay", dc.mean_delay())
          .field("loss_fraction", dc.loss_fraction())
          .field("backlog", dc.backlog_size())
          .field("departed_recovery_fraction",
                 dc.departed_data_stats().recovery_fraction());
      direct_tel->write_summary(summary.str());
      std::printf("telemetry: %zu direct snapshots in %s\n",
                  direct_tel->snapshotter().samples(),
                  topts.metrics_dir.c_str());
    }
  }
  return 0;
}
