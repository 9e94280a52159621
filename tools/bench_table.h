#pragma once

/// \file bench_table.h
/// Command line and output file shared by the bench-table generators
/// (icollect_pulls, icollect_scenarios). Each generator runs R seeded
/// replicas per point, serially with seeds base_seed + r, folds them
/// into a runner::MetricTable, and writes one JSON document:
///
///   {
///     "schema": "...",
///     "replicas": R,
///     "base_seed": S,
///     "<table>": {
///       "config": {...},
///       "points": [
///         {...},
///         ...
///       ]
///     },
///     ...
///   }
///
/// with one point per line, so a committed BENCH_*.json diffs point by
/// point.
///
///   <tool> [--replicas R] [--seed S] [--out FILE] [--quick]

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "cli_args.h"

namespace icollect::tools {

struct TableOptions {
  std::uint64_t replicas = 0;
  std::uint64_t seed = 1;
  std::string out_path;  // empty: write to stdout
  bool quick = false;    // 2 replicas and a smaller grid, for CI smoke
};

/// One top-level table of the document: its config object and one
/// rendered JSON object per point.
struct Table {
  std::string name;
  std::string config_json;
  std::vector<std::string> points;
};

/// Parse the shared flags. Prints usage and exits 0 on -h/--help; exits
/// 2 with a message on any malformed or unknown argument.
inline TableOptions parse_table_options(int argc, char** argv,
                                        std::uint64_t default_replicas,
                                        const char* quick_help) {
  const auto usage = [&] {
    std::printf(
        "usage: %s [options]\n"
        "  --replicas R   seeded replicas per point (default %llu)\n"
        "  --seed S       base seed (default 1)\n"
        "  --out FILE     write JSON to FILE (default stdout)\n"
        "  --quick        %s\n",
        argv[0], static_cast<unsigned long long>(default_replicas),
        quick_help);
  };
  TableOptions opts;
  opts.replicas = default_replicas;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-h" || arg == "--help") {
      usage();
      std::exit(0);
    } else if (arg == "--replicas") {
      opts.replicas =
          parse_count(argv[0], "--replicas", value("--replicas"));
    } else if (arg == "--seed") {
      opts.seed = parse_count(argv[0], "--seed", value("--seed"));
    } else if (arg == "--out") {
      opts.out_path = value("--out");
    } else if (arg == "--quick") {
      opts.quick = true;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                   std::string{arg}.c_str());
      usage();
      std::exit(2);
    }
  }
  if (opts.quick) opts.replicas = 2;
  if (opts.replicas == 0) {
    std::fprintf(stderr, "%s: --replicas must be >= 1\n", argv[0]);
    std::exit(2);
  }
  return opts;
}

/// The whole document for `tables`, in the layout of the file comment.
inline std::string render_tables(std::string_view schema,
                                 const TableOptions& opts,
                                 const std::vector<Table>& tables) {
  std::string body;
  body += "{\n";
  body += "  \"schema\": \"" + std::string{schema} + "\",\n";
  body += "  \"replicas\": " + std::to_string(opts.replicas) + ",\n";
  body += "  \"base_seed\": " + std::to_string(opts.seed) + ",\n";
  for (std::size_t t = 0; t < tables.size(); ++t) {
    body += "  \"" + tables[t].name + "\": {\n";
    body += "    \"config\": " + tables[t].config_json + ",\n";
    body += "    \"points\": [\n";
    for (std::size_t p = 0; p < tables[t].points.size(); ++p) {
      if (p > 0) body += ",\n";
      body += "      " + tables[t].points[p];
    }
    body += t + 1 < tables.size() ? "\n    ]\n  },\n" : "\n    ]\n  }\n";
  }
  body += "}\n";
  return body;
}

/// Write `body` to stdout, or to opts.out_path with a one-line note on
/// stdout. Returns the process exit code (2 if the file cannot be
/// opened).
inline int write_document(const char* argv0, const TableOptions& opts,
                          const std::string& body) {
  if (opts.out_path.empty()) {
    std::fputs(body.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(opts.out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s: %s\n", argv0,
                 opts.out_path.c_str(), std::strerror(errno));
    return 2;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu bytes)\n", opts.out_path.c_str(), body.size());
  return 0;
}

}  // namespace icollect::tools
