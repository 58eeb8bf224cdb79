#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "core/classify.hpp"
#include "core/renderer.hpp"
#include "parallel/animation.hpp"
#include "parallel/new_renderer.hpp"
#include "parallel/old_renderer.hpp"
#include "phantom/phantom.hpp"

namespace psw {
namespace {

constexpr double kPi = 3.14159265358979323846;

struct Scene {
  EncodedVolume encoded;
  std::array<int, 3> dims;
};

const Scene& test_scene() {
  static const Scene scene = [] {
    Scene s;
    const int n = 40;
    const DensityVolume density = make_mri_brain(n, n, n);
    const ClassifiedVolume classified = classify(density, TransferFunction::mri_preset());
    s.encoded = EncodedVolume::build(classified, ClassifyOptions{}.alpha_threshold);
    s.dims = {n, n, n};
    return s;
  }();
  return scene;
}

void expect_images_identical(const ImageU8& a, const ImageU8& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  for (size_t i = 0; i < a.pixel_count(); ++i) {
    ASSERT_EQ(a.data()[i].r, b.data()[i].r) << "pixel " << i;
    ASSERT_EQ(a.data()[i].g, b.data()[i].g) << "pixel " << i;
    ASSERT_EQ(a.data()[i].b, b.data()[i].b) << "pixel " << i;
    ASSERT_EQ(a.data()[i].a, b.data()[i].a) << "pixel " << i;
  }
}

ImageU8 serial_reference(const Camera& cam) {
  SerialRenderer renderer;
  ImageU8 img;
  renderer.render(test_scene().encoded, cam, &img);
  return img;
}

// ---- Old parallel renderer ----

class OldRendererProcs : public ::testing::TestWithParam<int> {};

TEST_P(OldRendererProcs, SerialExecutorMatchesSerialRenderer) {
  const int P = GetParam();
  const Camera cam = Camera::orbit(test_scene().dims, 0.8, 0.3);
  const ImageU8 want = serial_reference(cam);
  SerialExecutor exec(P);
  OldParallelRenderer renderer;
  ImageU8 got;
  ParallelRenderStats stats;
  renderer.render(test_scene().encoded, cam, exec, &got, &stats);
  expect_images_identical(want, got);
}

TEST_P(OldRendererProcs, ThreadedMatchesSerialRenderer) {
  const int P = GetParam();
  const Camera cam = Camera::orbit(test_scene().dims, 2.1, -0.5);
  const ImageU8 want = serial_reference(cam);
  ThreadedExecutor exec(P);
  OldParallelRenderer renderer;
  ImageU8 got;
  ParallelRenderStats stats;
  for (int round = 0; round < 3; ++round) {  // repeat to shake out races
    renderer.render(test_scene().encoded, cam, exec, &got, &stats);
    expect_images_identical(want, got);
  }
}

INSTANTIATE_TEST_SUITE_P(Procs, OldRendererProcs, ::testing::Values(1, 2, 3, 5, 8, 16));

TEST(OldRenderer, ChunkSizeDoesNotChangeImage) {
  const Camera cam = Camera::orbit(test_scene().dims, 1.0, 0.2);
  const ImageU8 want = serial_reference(cam);
  for (int chunk : {1, 2, 7, 64}) {
    ParallelOptions opt;
    opt.chunk_scanlines = chunk;
    OldParallelRenderer renderer(opt);
    SerialExecutor exec(4);
    ImageU8 got;
    ParallelRenderStats stats;
    renderer.render(test_scene().encoded, cam, exec, &got, &stats);
    expect_images_identical(want, got);
  }
}

TEST(OldRenderer, TileSizeDoesNotChangeImage) {
  const Camera cam = Camera::orbit(test_scene().dims, 1.0, 0.2);
  const ImageU8 want = serial_reference(cam);
  for (int tile : {8, 16, 33, 128}) {
    ParallelOptions opt;
    opt.warp_tile = tile;
    OldParallelRenderer renderer(opt);
    SerialExecutor exec(4);
    ImageU8 got;
    ParallelRenderStats stats;
    renderer.render(test_scene().encoded, cam, exec, &got, &stats);
    expect_images_identical(want, got);
  }
}

TEST(OldRenderer, StealingOccursUnderThreads) {
  const Camera cam = Camera::orbit(test_scene().dims, 0.4, 0.1);
  ParallelOptions opt;
  opt.chunk_scanlines = 1;
  OldParallelRenderer renderer(opt);
  ThreadedExecutor exec(8);
  ImageU8 got;
  ParallelRenderStats stats;
  uint64_t lock_ops = 0;
  for (int round = 0; round < 3; ++round) {
    renderer.render(test_scene().encoded, cam, exec, &got, &stats);
    lock_ops += stats.lock_ops;
  }
  EXPECT_GT(lock_ops, 0u);
}

TEST(OldRenderer, WorkAccountingCoversAllScanlines) {
  const Camera cam = Camera::orbit(test_scene().dims, 0.8, 0.3);
  SerialExecutor exec(4);
  OldParallelRenderer renderer;
  ImageU8 got;
  ParallelRenderStats stats;
  renderer.render(test_scene().encoded, cam, exec, &got, &stats);
  SerialRenderer serial;
  ImageU8 simg;
  const RenderStats sstats = serial.render(test_scene().encoded, cam, &simg);
  EXPECT_EQ(stats.composite.voxels_composited, sstats.composite.voxels_composited);
  EXPECT_EQ(stats.composite.pixels_visited, sstats.composite.pixels_visited);
}

// ---- New parallel renderer ----

struct NewRendererCase {
  int procs;
  bool fused;
  bool stealing;
};

// "P4FT": procs, Fused or Split phases, sTealing or No stealing.
std::string case_name(const NewRendererCase& c) {
  std::string name = "P";
  name += std::to_string(c.procs);
  name += c.fused ? 'F' : 'S';
  name += c.stealing ? 'T' : 'N';
  return name;
}

// Without a printer gtest names each case by a byte dump of the struct,
// padding included, so the test names would change from build to build.
void PrintTo(const NewRendererCase& c, std::ostream* os) { *os << case_name(c); }

class NewRendererConfig : public ::testing::TestWithParam<NewRendererCase> {};

TEST_P(NewRendererConfig, ThreadedMatchesSerialAcrossAnimation) {
  const auto param = GetParam();
  ParallelOptions opt;
  opt.fused_phases = param.fused;
  opt.stealing = param.stealing;
  opt.profile_every = 3;
  NewParallelRenderer renderer(opt);
  ThreadedExecutor exec(param.procs);
  ParallelRenderStats stats;
  for (int frame = 0; frame < 5; ++frame) {
    const Camera cam = Camera::orbit(test_scene().dims, 0.25 * frame, 0.3);
    const ImageU8 want = serial_reference(cam);
    ImageU8 got;
    renderer.render(test_scene().encoded, cam, exec, &got, &stats);
    expect_images_identical(want, got);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, NewRendererConfig,
    ::testing::Values(NewRendererCase{1, true, true}, NewRendererCase{2, true, true},
                      NewRendererCase{4, true, true}, NewRendererCase{8, true, true},
                      NewRendererCase{4, false, true}, NewRendererCase{4, true, false},
                      NewRendererCase{16, true, true}, NewRendererCase{3, false, false}),
    [](const auto& info) { return case_name(info.param); });

TEST(NewRenderer, SerialExecutorMatchesSerialRenderer) {
  for (int P : {1, 2, 4, 8, 32}) {
    NewParallelRenderer renderer;
    SerialExecutor exec(P);
    ParallelRenderStats stats;
    for (int frame = 0; frame < 3; ++frame) {
      const Camera cam = Camera::orbit(test_scene().dims, 0.4 * frame + 0.2, -0.3);
      const ImageU8 want = serial_reference(cam);
      ImageU8 got;
      renderer.render(test_scene().encoded, cam, exec, &got, &stats);
      expect_images_identical(want, got);
    }
  }
}

TEST(NewRenderer, FirstFrameProfilesThenReuses) {
  ParallelOptions opt;
  opt.profile_every = 100;
  NewParallelRenderer renderer(opt);
  SerialExecutor exec(4);
  ImageU8 img;
  const Camera cam = Camera::orbit(test_scene().dims, 0.5, 0.2);
  ParallelRenderStats stats;
  renderer.render(test_scene().encoded, cam, exec, &img, &stats);
  EXPECT_TRUE(stats.profiled);
  renderer.render(test_scene().encoded, cam, exec, &img, &stats);
  EXPECT_FALSE(stats.profiled);
}

TEST(NewRenderer, ProfileIntervalReprofiles) {
  ParallelOptions opt;
  opt.profile_every = 2;
  NewParallelRenderer renderer(opt);
  SerialExecutor exec(2);
  ImageU8 img;
  ParallelRenderStats stats;
  int profiled = 0;
  for (int frame = 0; frame < 7; ++frame) {
    const Camera cam = Camera::orbit(test_scene().dims, 0.1 * frame, 0.2);
    renderer.render(test_scene().encoded, cam, exec, &img, &stats);
    profiled += stats.profiled;
  }
  EXPECT_GE(profiled, 2);
  EXPECT_LT(profiled, 7);
}

TEST(NewRenderer, PartitionsAreContiguousAndCover) {
  NewParallelRenderer renderer;
  SerialExecutor exec(8);
  ImageU8 img;
  const Camera cam = Camera::orbit(test_scene().dims, 0.8, 0.4);
  ParallelRenderStats stats;
  renderer.render(test_scene().encoded, cam, exec, &img, &stats);
  // Render a second frame so the profiled partition is exercised.
  renderer.render(test_scene().encoded, cam, exec, &img, &stats);
  ASSERT_EQ(stats.bounds.size(), 9u);
  EXPECT_EQ(stats.bounds.front(), 0);
  for (size_t p = 1; p < stats.bounds.size(); ++p) {
    EXPECT_GE(stats.bounds[p], stats.bounds[p - 1]);
  }
}

TEST(NewRenderer, ProfiledPartitionImprovesBalance) {
  ParallelOptions opt;
  opt.stealing = false;  // isolate the initial-assignment balance
  opt.profile_every = 100;
  NewParallelRenderer renderer(opt);
  SerialExecutor exec(8);
  ImageU8 img;
  const Camera cam = Camera::orbit(test_scene().dims, 0.8, 0.4);
  ParallelRenderStats first, second;
  renderer.render(test_scene().encoded, cam, exec, &img, &first);  // uniform partition
  renderer.render(test_scene().encoded, cam, exec, &img, &second);  // profiled partition
  EXPECT_LT(second.work_imbalance(), first.work_imbalance() + 1e-9);
  EXPECT_LT(second.work_imbalance(), 0.35);
}

TEST(NewRenderer, ActiveRegionExcludesEmptyMargins) {
  NewParallelRenderer renderer;
  SerialExecutor exec(4);
  ImageU8 img;
  const Camera cam = Camera::orbit(test_scene().dims, 0.3, 0.2);
  ParallelRenderStats stats;
  renderer.render(test_scene().encoded, cam, exec, &img, &stats);
  // The brain phantom leaves empty margins: the active region must be a
  // proper sub-range (Figure 10's observation).
  EXPECT_GT(stats.active_lo, 0);
  EXPECT_LT(stats.active_hi, renderer.intermediate().height());
  EXPECT_LT(stats.active_lo, stats.active_hi);
}

// The renderers size their output with ImageU8::resize_for_reuse, which
// keeps stale pixels, so every warp must write every final pixel: a frame
// rendered over a 0xDD-poisoned image must equal one rendered into a fresh
// image. Covers the serial renderer, both parallel renderers on the traced
// and threaded executors, an all-transparent volume (no active rows) and
// more processors than active rows.
TEST(Renderers, PoisonedOutputIsFullyOverwritten) {
  const int n = 24;
  const EncodedVolume empty =
      EncodedVolume::build(ClassifiedVolume(n, n, n), ClassifyOptions{}.alpha_threshold);
  const auto poisoned = [](const ImageU8& like) {
    ImageU8 img(like.width(), like.height());
    std::fill(img.data(), img.data() + img.pixel_count(), Pixel8{0xDD, 0xDD, 0xDD, 0xDD});
    return img;
  };
  struct Case {
    const EncodedVolume* volume;
    std::array<int, 3> dims;
  };
  for (const Case& c : {Case{&test_scene().encoded, test_scene().dims},
                        Case{&empty, {n, n, n}}}) {
    for (const double yaw : {0.4, 2.3}) {
      const Camera cam = Camera::orbit(c.dims, yaw, 0.3);
      ImageU8 want;
      SerialRenderer().render(*c.volume, cam, &want);

      ImageU8 got = poisoned(want);
      SerialRenderer().render(*c.volume, cam, &got);
      expect_images_identical(want, got);

      SerialExecutor traced(64);
      ThreadedExecutor threaded(3);
      for (Executor* exec : {static_cast<Executor*>(&traced), static_cast<Executor*>(&threaded)}) {
        ParallelRenderStats stats;
        got = poisoned(want);
        NewParallelRenderer().render(*c.volume, cam, *exec, &got, &stats);
        if (c.volume == &test_scene().encoded && exec == &traced) {
          EXPECT_GT(exec->procs(), stats.active_hi - stats.active_lo);
        }
        expect_images_identical(want, got);
        got = poisoned(want);
        OldParallelRenderer().render(*c.volume, cam, *exec, &got, &stats);
        expect_images_identical(want, got);
      }
    }
  }
}

TEST(NewRenderer, ResetForgetsProfile) {
  NewParallelRenderer renderer;
  SerialExecutor exec(2);
  ImageU8 img;
  const Camera cam = Camera::orbit(test_scene().dims, 0.5, 0.2);
  ParallelRenderStats stats;
  renderer.render(test_scene().encoded, cam, exec, &img, &stats);
  renderer.reset();
  renderer.render(test_scene().encoded, cam, exec, &img, &stats);
  EXPECT_TRUE(stats.profiled);
}

TEST(NewRenderer, IntermediateSizeChangeAcrossFramesIsHandled) {
  // Rotating sweeps the intermediate size through many values, including
  // principal-axis switches; profiles must rescale without breaking.
  NewParallelRenderer renderer;
  ThreadedExecutor exec(4);
  ImageU8 img;
  ParallelRenderStats stats;
  for (int frame = 0; frame < 10; ++frame) {
    const Camera cam = Camera::orbit(test_scene().dims, frame * (kPi / 10), 0.35);
    const ImageU8 want = serial_reference(cam);
    renderer.render(test_scene().encoded, cam, exec, &img, &stats);
    expect_images_identical(want, img);
  }
}

TEST(NewRenderer, EdgeClearSkipsFullyActivePartitions) {
  // Edge clearing touches exactly the rows outside the active band: a
  // partition fully inside [active_lo, active_hi) clears nothing, and the
  // stats pin the exact row count so a regression to clear-everything (or
  // clear-nothing) fails here rather than only in the allocation bench.
  NewParallelRenderer renderer;
  SerialExecutor exec(4);
  ImageU8 img;
  ParallelRenderStats stats;
  const Camera cam = Camera::orbit(test_scene().dims, 0.3, 0.2);
  renderer.render(test_scene().encoded, cam, exec, &img, &stats);
  ASSERT_GE(stats.bounds.size(), 2u);
  uint64_t expected = 0;
  bool fully_active_partition = false;
  for (size_t p = 0; p + 1 < stats.bounds.size(); ++p) {
    const int lo = stats.bounds[p], hi = stats.bounds[p + 1];
    expected += static_cast<uint64_t>(
        std::max(0, std::min(hi, stats.active_lo) - lo));
    expected += static_cast<uint64_t>(
        std::max(0, hi - std::max(lo, stats.active_hi)));
    if (lo >= stats.active_lo && hi <= stats.active_hi) fully_active_partition = true;
  }
  EXPECT_EQ(stats.edge_rows_cleared, expected);
  // The brain phantom leaves empty margins, so some rows clear...
  EXPECT_GT(stats.edge_rows_cleared, 0u);
  // ...but at least one interior partition is fully active and skips.
  EXPECT_TRUE(fully_active_partition);
  // And the cleared margins really read as transparent through the warp.
  expect_images_identical(serial_reference(cam), img);
}

TEST(NewRenderer, StaleMarginsAreReclearedAcrossFrames) {
  // The intermediate image is reused without zeroing between frames. Frames
  // whose active band covers a row leave composited colour behind; when a
  // later orientation turns that row back into margin, the edge clear must
  // erase it or the warp would read a stale scanline. Swinging the pitch
  // back and forth moves the active band up and down through one renderer.
  NewParallelRenderer renderer;
  ThreadedExecutor exec(4);
  ImageU8 img;
  ParallelRenderStats stats;
  for (int frame = 0; frame < 9; ++frame) {
    const Camera cam =
        Camera::orbit(test_scene().dims, 0.25 * frame, 0.45 * ((frame % 3) - 1));
    const ImageU8 want = serial_reference(cam);
    renderer.render(test_scene().encoded, cam, exec, &img, &stats);
    expect_images_identical(want, img);
  }
}

TEST(NewRenderer, ScratchReuseAcrossChangingProcsAndDims) {
  // One renderer whose frame scratch survives procs growing, shrinking and
  // regrowing while the output image dims wobble the same way: every frame
  // must stay bit-identical to the serial reference at those dims.
  NewParallelRenderer renderer;
  ImageU8 img;
  ParallelRenderStats stats;
  const int procs_seq[] = {2, 8, 3, 16, 1, 8};
  const int size_seq[] = {64, 96, 48, 128, 64, 96};
  for (int frame = 0; frame < 6; ++frame) {
    ThreadedExecutor exec(procs_seq[frame]);
    Camera cam = Camera::orbit(test_scene().dims, 0.35 * frame, 0.25);
    cam.image_width = size_seq[frame];
    cam.image_height = size_seq[frame];
    const ImageU8 want = serial_reference(cam);
    renderer.render(test_scene().encoded, cam, exec, &img, &stats);
    ASSERT_EQ(static_cast<int>(stats.bounds.size()), procs_seq[frame] + 1);
    expect_images_identical(want, img);
  }
}

TEST(OldRenderer, ScratchReuseAcrossChangingProcsAndDims) {
  // The chunk/steal renderer's scratch (steal queues, per-worker stats)
  // must survive the same procs/dims churn bit-identically.
  OldParallelRenderer renderer;
  ImageU8 img;
  ParallelRenderStats stats;
  const int procs_seq[] = {3, 16, 2, 8, 1, 16};
  const int size_seq[] = {96, 48, 128, 64, 96, 48};
  for (int frame = 0; frame < 6; ++frame) {
    ThreadedExecutor exec(procs_seq[frame]);
    Camera cam = Camera::orbit(test_scene().dims, 0.3 * frame + 0.1, -0.2);
    cam.image_width = size_seq[frame];
    cam.image_height = size_seq[frame];
    const ImageU8 want = serial_reference(cam);
    renderer.render(test_scene().encoded, cam, exec, &img, &stats);
    expect_images_identical(want, img);
  }
}

TEST(WarpXInterval, TelescopesAcrossPartitions) {
  Affine2D warp;
  warp.a00 = 0.9;
  warp.a01 = 0.45;
  warp.a10 = -0.4;
  warp.a11 = 1.1;
  warp.bx = 12;
  warp.by = -3;
  const Affine2D inv = warp.inverse();
  const int W = 200;
  const std::vector<double> bounds{-1e15, 40.0, 80.5, 120.0, 1e15};
  for (int y = 0; y < 150; y += 7) {
    std::vector<bool> covered(W, false);
    for (size_t p = 0; p + 1 < bounds.size(); ++p) {
      int x0, x1;
      warp_x_interval(inv, y, bounds[p], bounds[p + 1], W, &x0, &x1);
      for (int x = x0; x < x1; ++x) {
        ASSERT_FALSE(covered[x]) << "x=" << x << " y=" << y << " double-owned";
        covered[x] = true;
      }
    }
    for (int x = 0; x < W; ++x) ASSERT_TRUE(covered[x]) << "x=" << x << " y=" << y;
  }
}

TEST(WarpXInterval, OwnershipMatchesInverseWarp) {
  Affine2D warp;
  warp.a00 = 1.2;
  warp.a01 = -0.3;
  warp.a10 = 0.5;
  warp.a11 = 0.9;
  warp.bx = 5;
  warp.by = 2;
  const Affine2D inv = warp.inverse();
  const double v_lo = 25.0, v_hi = 60.0;
  for (int y = 0; y < 100; y += 9) {
    int x0, x1;
    warp_x_interval(inv, y, v_lo, v_hi, 300, &x0, &x1);
    for (int x = 0; x < 300; ++x) {
      const double v = inv.apply(x, y).y;
      const bool inside = v >= v_lo && v < v_hi;
      const bool owned = x >= x0 && x < x1;
      ASSERT_EQ(inside, owned) << "x=" << x << " y=" << y << " v=" << v;
    }
  }
}

TEST(Animation, SummaryAggregates) {
  AnimationPath path;
  path.dims = test_scene().dims;
  path.frames = 4;
  path.degrees_per_frame = 5.0;
  NewParallelRenderer renderer;
  SerialExecutor exec(2);
  ImageU8 img;
  ParallelRenderStats stats;
  const AnimationSummary summary =
      run_animation(path, [&](int, const Camera& cam) {
        renderer.render(test_scene().encoded, cam, exec, &img, &stats);
        return stats;
      });
  EXPECT_EQ(summary.frames, 4);
  EXPECT_GT(summary.total_ms, 0.0);
  EXPECT_GE(summary.profiled_frames, 1);
  EXPECT_EQ(path.profile_interval(), 3);
}

}  // namespace
}  // namespace psw
