// Microbenchmarks (google-benchmark) for the kernels the renderers are
// built from: RLE encoding, scanline compositing, warping, prefix sums and
// partition search. These quantify the constants behind the figure-level
// results (e.g. §4.3's claim that the cumulative-profile partition search
// is cheap).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/classify.hpp"
#include "core/compositor.hpp"
#include "core/reference.hpp"
#include "core/renderer.hpp"
#include "parallel/partition.hpp"
#include "phantom/phantom.hpp"
#include "util/rng.hpp"

namespace psw {
namespace {

struct KernelScene {
  ClassifiedVolume classified;
  EncodedVolume encoded;
  Factorization fact;

  explicit KernelScene(int n = 96) {
    const DensityVolume density = make_mri_brain(n, n, n);
    classified = classify(density, TransferFunction::mri_preset());
    encoded = EncodedVolume::build(classified, ClassifyOptions{}.alpha_threshold);
    fact = factorize(Camera::orbit({n, n, n}, 0.55, 0.35), {n, n, n});
  }
};

KernelScene& scene() {
  static KernelScene s;
  return s;
}

void BM_RleEncode(benchmark::State& state) {
  const auto& vol = scene().classified;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RleVolume::encode(vol, 2, 12));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(vol.size()));
}
BENCHMARK(BM_RleEncode)->Unit(benchmark::kMillisecond);

void BM_CompositeFrame(benchmark::State& state) {
  const auto& s = scene();
  const RleVolume& rle = s.encoded.for_axis(s.fact.principal_axis);
  IntermediateImage img(s.fact.intermediate_width, s.fact.intermediate_height);
  for (auto _ : state) {
    img.clear();
    CompositeStats stats;
    for (int v = 0; v < img.height(); ++v) composite_scanline(rle, s.fact, v, img, nullptr, &stats);
    benchmark::DoNotOptimize(stats.voxels_composited);
  }
  state.SetLabel("run-based");
}
BENCHMARK(BM_CompositeFrame)->Unit(benchmark::kMillisecond);

// The acceptance kernel: segment-batched SIMD fast path, no hook, no stats
// — what a real-time render pays per frame for the compositing phase.
void BM_CompositeScanline(benchmark::State& state) {
  const auto& s = scene();
  const RleVolume& rle = s.encoded.for_axis(s.fact.principal_axis);
  IntermediateImage img(s.fact.intermediate_width, s.fact.intermediate_height);
  for (auto _ : state) {
    img.clear();
    uint32_t work = 0;
    for (int v = 0; v < img.height(); ++v) {
      work += composite_scanline_segmented(rle, s.fact, v, img);
    }
    benchmark::DoNotOptimize(work);
  }
  state.SetLabel("segment-batched fast path");
}
BENCHMARK(BM_CompositeScanline)->Unit(benchmark::kMillisecond);

// The seed kernel: per-pixel probing, hook policy compiled away (NullHook).
void BM_CompositeScanlineReference(benchmark::State& state) {
  const auto& s = scene();
  const RleVolume& rle = s.encoded.for_axis(s.fact.principal_axis);
  IntermediateImage img(s.fact.intermediate_width, s.fact.intermediate_height);
  for (auto _ : state) {
    img.clear();
    uint32_t work = 0;
    for (int v = 0; v < img.height(); ++v) {
      work += composite_scanline_reference(rle, s.fact, v, img);
    }
    benchmark::DoNotOptimize(work);
  }
  state.SetLabel("per-pixel reference kernel (NullHook)");
}
BENCHMARK(BM_CompositeScanlineReference)->Unit(benchmark::kMillisecond);

// The traced kernel: per-pixel with a live hook, the simulator's workload
// generator. The gap to the reference kernel is the cost of reporting.
void BM_CompositeScanlineHooked(benchmark::State& state) {
  struct CountingHook final : MemoryHook {
    uint64_t accesses = 0;
    void access(const void*, uint32_t, bool) override { ++accesses; }
  };
  const auto& s = scene();
  const RleVolume& rle = s.encoded.for_axis(s.fact.principal_axis);
  IntermediateImage img(s.fact.intermediate_width, s.fact.intermediate_height);
  CountingHook hook;
  for (auto _ : state) {
    img.clear();
    uint32_t work = 0;
    for (int v = 0; v < img.height(); ++v) {
      work += composite_scanline(rle, s.fact, v, img, &hook);
    }
    benchmark::DoNotOptimize(work);
    benchmark::DoNotOptimize(hook.accesses);
  }
  state.SetLabel("per-pixel kernel, SimHook attached");
}
BENCHMARK(BM_CompositeScanlineHooked)->Unit(benchmark::kMillisecond);

void BM_CompositeFrameDenseReference(benchmark::State& state) {
  const auto& s = scene();
  IntermediateImage img(s.fact.intermediate_width, s.fact.intermediate_height);
  for (auto _ : state) {
    img.clear();
    reference_composite(s.classified, s.fact, ClassifyOptions{}.alpha_threshold, img);
    benchmark::DoNotOptimize(img.pixel(0, 0));
  }
  state.SetLabel("dense (no RLE) — the coherence structures' advantage");
}
BENCHMARK(BM_CompositeFrameDenseReference)->Unit(benchmark::kMillisecond);

void BM_WarpFrame(benchmark::State& state) {
  const auto& s = scene();
  const RleVolume& rle = s.encoded.for_axis(s.fact.principal_axis);
  IntermediateImage img(s.fact.intermediate_width, s.fact.intermediate_height);
  for (int v = 0; v < img.height(); ++v) composite_scanline(rle, s.fact, v, img);
  ImageU8 out(s.fact.final_width, s.fact.final_height);
  for (auto _ : state) {
    benchmark::DoNotOptimize(warp_frame(img, s.fact, out).pixels_written);
  }
}
BENCHMARK(BM_WarpFrame)->Unit(benchmark::kMillisecond);

// The same frame through the per-pixel reference warp kernel (NullHook).
void BM_WarpFrameReference(benchmark::State& state) {
  const auto& s = scene();
  const RleVolume& rle = s.encoded.for_axis(s.fact.principal_axis);
  IntermediateImage img(s.fact.intermediate_width, s.fact.intermediate_height);
  for (int v = 0; v < img.height(); ++v) composite_scanline(rle, s.fact, v, img);
  ImageU8 out(s.fact.final_width, s.fact.final_height);
  const Affine2D inv = s.fact.warp.inverse();
  for (auto _ : state) {
    WarpStats stats;
    for (int y = 0; y < out.height(); ++y) {
      warp_scanline_reference(img, s.fact, inv, y, 0, out.width(), out, nullptr, &stats);
    }
    benchmark::DoNotOptimize(stats.pixels_written);
  }
  state.SetLabel("per-pixel reference kernel (NullHook)");
}
BENCHMARK(BM_WarpFrameReference)->Unit(benchmark::kMillisecond);

void BM_FullSerialRender(benchmark::State& state) {
  const auto& s = scene();
  SerialRenderer renderer;
  ImageU8 out;
  const Camera cam = Camera::orbit({96, 96, 96}, 0.55, 0.35);
  for (auto _ : state) {
    benchmark::DoNotOptimize(renderer.render(s.encoded, cam, &out).total_ms);
  }
}
BENCHMARK(BM_FullSerialRender)->Unit(benchmark::kMillisecond);

void BM_PrefixSum(benchmark::State& state) {
  SplitMix64 rng(1);
  std::vector<uint32_t> cost(state.range(0));
  for (auto& c : cost) c = static_cast<uint32_t>(rng.below(10000));
  for (auto _ : state) benchmark::DoNotOptimize(prefix_sum(cost));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PrefixSum)->Arg(326)->Arg(4096);

void BM_BalancedPartitionSearch(benchmark::State& state) {
  SplitMix64 rng(2);
  std::vector<uint32_t> cost(1024);
  for (auto& c : cost) c = static_cast<uint32_t>(rng.below(10000));
  const auto cum = prefix_sum(cost);
  for (auto _ : state) benchmark::DoNotOptimize(balanced_partition(cum, 32));
  state.SetLabel("32-way partition of 1024 scanlines");
}
BENCHMARK(BM_BalancedPartitionSearch);

void BM_ScanlineProvablyEmpty(benchmark::State& state) {
  const auto& s = scene();
  const RleVolume& rle = s.encoded.for_axis(s.fact.principal_axis);
  for (auto _ : state) {
    int empties = 0;
    for (int v = 0; v < s.fact.intermediate_height; ++v) {
      empties += scanline_provably_empty(rle, s.fact, v);
    }
    benchmark::DoNotOptimize(empties);
  }
}
BENCHMARK(BM_ScanlineProvablyEmpty)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace psw

// `kernels --json <path>` writes the google-benchmark JSON report to <path>
// (the BENCH_kernels.json artifact) on top of the console output; all other
// flags pass through to the benchmark library untouched.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, fmt_flag;
  for (size_t i = 1; i < args.size(); ++i) {
    if (std::string(args[i]) == "--json" && i + 1 < args.size()) {
      out_flag = std::string("--benchmark_out=") + args[i + 1];
      fmt_flag = "--benchmark_out_format=json";
      args.erase(args.begin() + i, args.begin() + i + 2);
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
      break;
    }
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
