/// Micro-benchmarks (google-benchmark) for the GF(2^8) arithmetic layer:
/// the per-byte cost that bounds every coding operation in the system.
///
/// The bulk primitives (add_assign / scale_assign / add_scaled / dot) are
/// registered once per kernel the CPU supports — "BM_AddScaled<avx2>/4096"
/// vs "BM_AddScaled<scalar>/4096" — so one run yields the full
/// scalar/SSSE3/AVX2 speedup matrix. scripts/run_bench.py consumes the
/// JSON output and distills it into BENCH_gf_kernels.json.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "gf/gf256.h"
#include "gf/kernels.h"

namespace {

using namespace icollect;
using gf::Kernels;

void BM_ScalarMul(benchmark::State& state) {
  common::Rng rng{1};
  std::vector<gf::Element> a(4096), b(4096);
  rng.fill_gf(a);
  rng.fill_gf(b);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::GF256::mul(a[i & 4095], b[i & 4095]));
    ++i;
  }
}
BENCHMARK(BM_ScalarMul);

void BM_ScalarInv(benchmark::State& state) {
  std::size_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gf::GF256::inv(static_cast<gf::Element>(1 + (i & 254))));
    ++i;
  }
}
BENCHMARK(BM_ScalarInv);

/// Run `state` with `kind` active, restoring auto-dispatch afterwards.
class KernelGuard {
 public:
  explicit KernelGuard(Kernels::Kind kind) { Kernels::select(kind); }
  ~KernelGuard() { Kernels::select(Kernels::Kind::kAuto); }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;
};

void BM_AddScaled(benchmark::State& state, Kernels::Kind kind) {
  const KernelGuard guard{kind};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  common::Rng rng{2};
  std::vector<gf::Element> dst(n), src(n);
  rng.fill_gf(dst);
  rng.fill_gf(src);
  gf::Element c = 1;
  for (auto _ : state) {
    Kernels::active().add_scaled(dst.data(), src.data(), c, n);
    benchmark::DoNotOptimize(dst.data());
    c = static_cast<gf::Element>(c + 1) == 0
            ? 1
            : static_cast<gf::Element>(c + 1);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_ScaleAssign(benchmark::State& state, Kernels::Kind kind) {
  const KernelGuard guard{kind};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  common::Rng rng{6};
  std::vector<gf::Element> dst(n);
  rng.fill_gf(dst);
  gf::Element c = 2;
  for (auto _ : state) {
    Kernels::active().scale_assign(dst.data(), c, n);
    benchmark::DoNotOptimize(dst.data());
    c = static_cast<gf::Element>(c + 1) < 2 ? 2
                                            : static_cast<gf::Element>(c + 1);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_AddAssign(benchmark::State& state, Kernels::Kind kind) {
  const KernelGuard guard{kind};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  common::Rng rng{7};
  std::vector<gf::Element> dst(n), src(n);
  rng.fill_gf(dst);
  rng.fill_gf(src);
  for (auto _ : state) {
    Kernels::active().add_assign(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_Dot(benchmark::State& state, Kernels::Kind kind) {
  const KernelGuard guard{kind};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  common::Rng rng{3};
  std::vector<gf::Element> a(n), b(n);
  rng.fill_gf(a);
  rng.fill_gf(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Kernels::active().dot(a.data(), b.data(), n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void register_kernel_benchmarks() {
  const Kernels::Kind kinds[] = {Kernels::Kind::kScalar,
                                 Kernels::Kind::kSsse3,
                                 Kernels::Kind::kAvx2};
  for (const auto kind : kinds) {
    if (!Kernels::supported(kind)) continue;
    const std::string tag = std::string("<") + Kernels::name(kind) + ">";
    benchmark::RegisterBenchmark(("BM_AddScaled" + tag).c_str(),
                                 BM_AddScaled, kind)
        ->Arg(64)
        ->Arg(256)
        ->Arg(1024)
        ->Arg(4096);
    benchmark::RegisterBenchmark(("BM_ScaleAssign" + tag).c_str(),
                                 BM_ScaleAssign, kind)
        ->Arg(1024)
        ->Arg(4096);
    benchmark::RegisterBenchmark(("BM_AddAssign" + tag).c_str(),
                                 BM_AddAssign, kind)
        ->Arg(1024)
        ->Arg(4096);
    benchmark::RegisterBenchmark(("BM_Dot" + tag).c_str(), BM_Dot, kind)
        ->Arg(64)
        ->Arg(1024);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_kernel_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
