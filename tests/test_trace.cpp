#include <gtest/gtest.h>

#include "core/classify.hpp"
#include "parallel/new_renderer.hpp"
#include "parallel/old_renderer.hpp"
#include "phantom/phantom.hpp"
#include "trace/sink.hpp"

namespace psw {
namespace {

TEST(TraceRecord, PacksAndUnpacks) {
  const TraceRecord r(0x7fff12345678ULL, 16, true);
  EXPECT_EQ(r.addr(), 0x7fff12345678ULL);
  EXPECT_EQ(r.size(), 16u);
  EXPECT_TRUE(r.is_write());
  const TraceRecord r2(0x1000, 4, false);
  EXPECT_FALSE(r2.is_write());
  EXPECT_EQ(r2.size(), 4u);
}

// Regression: the size field is 10 bits; accesses of 32+ bytes used to wrap
// modulo 32 through a 5-bit field, silently corrupting traced sizes.
TEST(TraceRecord, WideAccessesDoNotTruncate) {
  const TraceRecord r32(0x2000, 32, true);
  EXPECT_EQ(r32.size(), 32u);
  const TraceRecord r512(0x3000, 512, false);
  EXPECT_EQ(r512.size(), 512u);
  const TraceRecord rmax(0x7ffffffff000ULL, TraceRecord::kMaxSize, true);
  EXPECT_EQ(rmax.size(), TraceRecord::kMaxSize);
  EXPECT_EQ(rmax.addr(), 0x7ffffffff000ULL);
  EXPECT_TRUE(rmax.is_write());
}

TEST(TraceSet, RecordsSyncEvents) {
  TraceSet set(2);
  set.begin_interval("a");  // barrier boundary
  int x = 0;
  set.hook(0)->access(&x, 4, true);
  set.begin_interval("b", /*barrier=*/false);  // label only
  set.sync_release(0, 3);
  set.sync_acquire(1, 3);
  ASSERT_EQ(set.sync_events().size(), 3u);
  EXPECT_EQ(set.sync_events()[0].kind, SyncEvent::Kind::kBarrier);
  EXPECT_EQ(set.sync_events()[1].kind, SyncEvent::Kind::kRelease);
  EXPECT_EQ(set.sync_events()[1].a, 0);
  EXPECT_EQ(set.sync_events()[1].pos[0], 1u);
  EXPECT_EQ(set.sync_events()[2].kind, SyncEvent::Kind::kAcquire);
  EXPECT_EQ(set.intervals(), 2);  // the non-barrier boundary still labels
}

TEST(TraceSet, HooksRecordPerProcessor) {
  TraceSet set(3);
  set.begin_interval("a");
  int x = 0;
  set.hook(0)->access(&x, 4, false);
  set.hook(2)->access(&x, 4, true);
  set.hook(2)->access(&x, 8, false);
  EXPECT_EQ(set.stream(0).records.size(), 1u);
  EXPECT_EQ(set.stream(1).records.size(), 0u);
  EXPECT_EQ(set.stream(2).records.size(), 2u);
  EXPECT_TRUE(set.stream(2).records[0].is_write());
  EXPECT_EQ(set.stream(0).records[0].addr(), reinterpret_cast<uint64_t>(&x));
}

TEST(TraceSet, IntervalsSegmentStreams) {
  TraceSet set(2);
  int x = 0;
  set.begin_interval("composite");
  set.hook(0)->access(&x, 4, false);
  set.hook(0)->access(&x, 4, false);
  set.hook(1)->access(&x, 4, false);
  set.begin_interval("warp");
  set.hook(0)->access(&x, 4, true);
  ASSERT_EQ(set.intervals(), 2);
  EXPECT_EQ(set.interval_name(0), "composite");
  const auto [b0, e0] = set.interval_range(0, 0);
  EXPECT_EQ(e0 - b0, 2u);
  const auto [b1, e1] = set.interval_range(0, 1);
  EXPECT_EQ(e1 - b1, 1u);
  const auto [b1p1, e1p1] = set.interval_range(1, 1);
  EXPECT_EQ(e1p1 - b1p1, 0u);
}

struct TraceScene {
  EncodedVolume encoded;
  std::array<int, 3> dims;
};

const TraceScene& trace_scene() {
  static const TraceScene scene = [] {
    TraceScene s;
    const int n = 32;
    const DensityVolume density = make_mri_brain(n, n, n);
    const ClassifiedVolume classified = classify(density, TransferFunction::mri_preset());
    s.encoded = EncodedVolume::build(classified, ClassifyOptions{}.alpha_threshold);
    s.dims = {n, n, n};
    return s;
  }();
  return scene;
}

TEST(TracingExecutor, CapturesRendererReferences) {
  TracingExecutor exec(4);
  OldParallelRenderer renderer;
  ImageU8 img;
  ParallelRenderStats stats;
  renderer.render(trace_scene().encoded, Camera::orbit(trace_scene().dims, 0.5, 0.2),
                  exec, &img, &stats);
  const TraceSet& traces = exec.traces();
  EXPECT_EQ(traces.intervals(), 2);  // composite, warp
  EXPECT_GT(traces.total_records(), 1000u);
  // Every processor composites and warps something for this workload.
  for (int p = 0; p < 4; ++p) {
    const auto [cb, ce] = traces.interval_range(p, 0);
    const auto [wb, we] = traces.interval_range(p, 1);
    EXPECT_GT(ce - cb, 0u) << "proc " << p << " composite empty";
    EXPECT_GT(we - wb, 0u) << "proc " << p << " warp empty";
  }
}

TEST(TracingExecutor, TracedRenderMatchesUntraced) {
  TracingExecutor traced(3);
  SerialExecutor plain(3);
  OldParallelRenderer r1, r2;
  ImageU8 img1, img2;
  ParallelRenderStats stats;
  const Camera cam = Camera::orbit(trace_scene().dims, 1.1, -0.2);
  r1.render(trace_scene().encoded, cam, traced, &img1, &stats);
  r2.render(trace_scene().encoded, cam, plain, &img2, &stats);
  ASSERT_EQ(img1.pixel_count(), img2.pixel_count());
  for (size_t i = 0; i < img1.pixel_count(); ++i) {
    ASSERT_EQ(img1.data()[i].r, img2.data()[i].r);
    ASSERT_EQ(img1.data()[i].a, img2.data()[i].a);
  }
}

// The compositing phase reads volume data; the warp phase must not (it
// reads only the intermediate image). This is the interface property the
// paper's analysis hinges on (§3.4.2).
TEST(TracingExecutor, WarpPhaseNeverTouchesVolumeData) {
  TracingExecutor exec(2);
  OldParallelRenderer renderer;
  ImageU8 img;
  ParallelRenderStats stats;
  renderer.render(trace_scene().encoded, Camera::orbit(trace_scene().dims, 0.7, 0.3),
                  exec, &img, &stats);
  const TraceSet& traces = exec.traces();

  // Volume address range: spanned by the per-axis encodings.
  const RleVolume& rle = trace_scene().encoded.for_axis(2);
  const uint64_t vox_lo = reinterpret_cast<uint64_t>(rle.voxels_at(0, 0));
  const uint64_t vox_hi = vox_lo + rle.voxel_count() * sizeof(ClassifiedVoxel);
  for (int p = 0; p < 2; ++p) {
    const auto [wb, we] = traces.interval_range(p, 1);
    for (size_t i = wb; i < we; ++i) {
      const uint64_t a = traces.stream(p).records[i].addr();
      ASSERT_FALSE(a >= vox_lo && a < vox_hi) << "warp read voxel data";
    }
  }
}

// New renderer under tracing: the intermediate-image scanlines a processor
// warps from are (mostly) the ones it composited — the paper's key
// locality property (§4.1). We verify >80% of warp-phase intermediate
// reads hit the processor's own partition.
TEST(TracingExecutor, NewRendererWarpReadsOwnPartition) {
  ParallelOptions opt;
  opt.fused_phases = false;
  NewParallelRenderer renderer(opt);
  TracingExecutor exec(4);
  ImageU8 img;
  const Camera cam = Camera::orbit(trace_scene().dims, 0.5, 0.25);
  // Two frames: second uses the profiled partition.
  ParallelRenderStats stats;
  renderer.render(trace_scene().encoded, cam, exec, &img, &stats);
  renderer.render(trace_scene().encoded, cam, exec, &img, &stats);

  const IntermediateImage& inter = renderer.intermediate();
  const uint64_t row_bytes = static_cast<uint64_t>(inter.width()) * sizeof(Rgba);
  const uint64_t base = reinterpret_cast<uint64_t>(&inter.pixel(0, 0));
  const uint64_t img_hi =
      base + static_cast<uint64_t>(inter.height()) * row_bytes;

  const TraceSet& traces = exec.traces();
  // Frame 2's warp is the last interval.
  const int warp_interval = traces.intervals() - 1;
  uint64_t own = 0, other = 0;
  for (int p = 0; p < 4; ++p) {
    const auto [wb, we] = traces.interval_range(p, warp_interval);
    for (size_t i = wb; i < we; ++i) {
      const TraceRecord& r = traces.stream(p).records[i];
      if (r.is_write() || r.addr() < base || r.addr() >= img_hi) continue;
      const int v = static_cast<int>((r.addr() - base) / row_bytes);
      if (v >= stats.bounds[p] && v < stats.bounds[p + 1] + 1) {
        ++own;  // +1: the shared boundary scanline read is expected
      } else {
        ++other;
      }
    }
  }
  ASSERT_GT(own + other, 0u);
  EXPECT_GT(static_cast<double>(own) / (own + other), 0.8);
}

}  // namespace
}  // namespace psw
