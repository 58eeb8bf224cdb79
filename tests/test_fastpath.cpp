// Bit-exactness and trace tests for the compositing kernel (see DESIGN.md
// "Kernel dispatch and fast path"):
//
//  * the segment-batched SIMD kernel must produce byte-identical pixels,
//    stats and work counts to the per-pixel seed kernel of
//    bench/seed_kernels.hpp and to the dense reference renderer, on every
//    principal axis and off-axis views;
//  * its traced (SimHook) instantiation must render exactly what the
//    hook-free one does, in the serial and both parallel renderers, and
//    report only accesses to the renderer's registered structures;
//  * golden counts pin the whole-frame traces (both parallel algorithms and
//    the serial renderer).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "analyze/race_check.hpp"
#include "bench/seed_kernels.hpp"
#include "core/compositor.hpp"
#include "core/reference.hpp"
#include "core/renderer.hpp"
#include "memsim/experiment.hpp"
#include "parallel/new_renderer.hpp"
#include "parallel/old_renderer.hpp"
#include "phantom/phantom.hpp"
#include "trace/sink.hpp"

namespace psw {
namespace {

constexpr double kPi = 3.14159265358979323846;

struct Scene {
  ClassifiedVolume classified;
  EncodedVolume encoded;
  std::array<int, 3> dims;
  uint8_t alpha_threshold;
};

Scene mri_scene(int n) {
  const ClassifyOptions copt;
  Scene s{classify(make_mri_brain(n, n, n), TransferFunction::mri_preset(), copt),
          {},
          {n, n, n},
          copt.alpha_threshold};
  s.encoded = EncodedVolume::build(s.classified, copt.alpha_threshold);
  return s;
}

bool images_identical(const IntermediateImage& a, const IntermediateImage& b) {
  if (a.width() != b.width() || a.height() != b.height()) return false;
  for (int v = 0; v < a.height(); ++v) {
    for (int u = 0; u < a.width(); ++u) {
      if (std::memcmp(&a.pixel(u, v), &b.pixel(u, v), sizeof(Rgba)) != 0) return false;
    }
  }
  return true;
}

// Composites a full frame per-scanline through `kernel`, returning the
// total work so kernels can be compared on that too.
template <class Kernel>
uint64_t frame_with(const RleVolume& rle, const Factorization& f,
                    IntermediateImage& img, CompositeStats* stats, Kernel&& kernel) {
  img.resize(f.intermediate_width, f.intermediate_height);
  img.clear_rows(0, img.height());
  uint64_t work = 0;
  for (int v = 0; v < img.height(); ++v) work += kernel(rle, f, v, img, stats);
  return work;
}

// The camera set covers all three principal axes plus off-axis views with
// nonzero shear on both intermediate-image axes.
struct View {
  double yaw, pitch;
};
constexpr View kViews[] = {
    {0.0, 0.0},        // principal axis 2
    {kPi / 2, 0.0},    // principal axis 0
    {0.1, kPi / 2 - 0.05},  // principal axis 1 (looking down)
    {0.55, 0.35},      // off-axis (the workload's steady-state view)
    {2.3, -0.7},       // off-axis, negative pitch
};

TEST(FastPath, MatchesReferenceKernelOnAllAxes) {
  const Scene scene = mri_scene(40);
  std::set<int> axes_seen;
  for (const View& view : kViews) {
    const Camera cam = Camera::orbit(scene.dims, view.yaw, view.pitch);
    const Factorization f = factorize(cam, scene.dims);
    axes_seen.insert(f.principal_axis);
    const RleVolume& rle = scene.encoded.for_axis(f.principal_axis);

    IntermediateImage ref_img, fast_img;
    CompositeStats ref_stats, fast_stats;
    const uint64_t ref_work =
        frame_with(rle, f, ref_img, &ref_stats,
                   [](const RleVolume& r, const Factorization& ff, int v,
                      IntermediateImage& img, CompositeStats* s) {
                     return bench::seed::composite_scanline(r, ff, v, img, s);
                   });
    const uint64_t fast_work =
        frame_with(rle, f, fast_img, &fast_stats,
                   [](const RleVolume& r, const Factorization& ff, int v,
                      IntermediateImage& img, CompositeStats* s) {
                     return composite_scanline(r, ff, v, img, nullptr, s);
                   });

    EXPECT_TRUE(images_identical(ref_img, fast_img))
        << "yaw=" << view.yaw << " pitch=" << view.pitch;
    EXPECT_EQ(ref_work, fast_work);
    EXPECT_EQ(ref_stats.voxels_composited, fast_stats.voxels_composited);
    EXPECT_EQ(ref_stats.pixels_visited, fast_stats.pixels_visited);
    EXPECT_EQ(ref_stats.slices_touched, fast_stats.slices_touched);
    EXPECT_EQ(ref_stats.scanlines, fast_stats.scanlines);
  }
  EXPECT_EQ(axes_seen, (std::set<int>{0, 1, 2})) << "views must cover all axes";
}

TEST(FastPath, MatchesDenseReferenceRenderer) {
  const Scene scene = mri_scene(32);
  for (const View& view : kViews) {
    const Camera cam = Camera::orbit(scene.dims, view.yaw, view.pitch);
    const Factorization f = factorize(cam, scene.dims);
    const RleVolume& rle = scene.encoded.for_axis(f.principal_axis);

    IntermediateImage fast_img;
    frame_with(rle, f, fast_img, nullptr,
               [](const RleVolume& r, const Factorization& ff, int v,
                  IntermediateImage& img, CompositeStats* s) {
                 return composite_scanline(r, ff, v, img, nullptr, s);
               });

    IntermediateImage dense_img(f.intermediate_width, f.intermediate_height);
    reference_composite(scene.classified, f, scene.alpha_threshold, dense_img);

    EXPECT_TRUE(images_identical(dense_img, fast_img))
        << "yaw=" << view.yaw << " pitch=" << view.pitch;
  }
}

// The production dispatcher with no hook (whatever kernel it picks) and
// with a hook attached must produce the same pixels.
TEST(FastPath, HookedAndHookFreeDispatchAgree) {
  const Scene scene = mri_scene(32);
  for (const View& view : kViews) {
    const Camera cam = Camera::orbit(scene.dims, view.yaw, view.pitch);
    const Factorization f = factorize(cam, scene.dims);
    const RleVolume& rle = scene.encoded.for_axis(f.principal_axis);

    IntermediateImage plain_img;
    frame_with(rle, f, plain_img, nullptr,
               [](const RleVolume& r, const Factorization& ff, int v,
                  IntermediateImage& img, CompositeStats* s) {
                 return composite_scanline(r, ff, v, img, nullptr, s);
               });

    TraceSet traces(1);
    IntermediateImage hooked_img;
    frame_with(rle, f, hooked_img, nullptr,
               [&](const RleVolume& r, const Factorization& ff, int v,
                   IntermediateImage& img, CompositeStats* s) {
                 return composite_scanline(r, ff, v, img, traces.hook(0), s);
               });

    EXPECT_TRUE(images_identical(plain_img, hooked_img));
    EXPECT_GT(traces.stream(0).records.size(), 0u);
  }
}

// The traced instantiation of each kernel must be the hook-free one plus
// reporting: every renderer, traced and hook-free, renders the same final
// pixels from the same per-scanline work and stats; every traced record
// lies inside a structure the renderer registers for the analyzers; and
// the records account for the work the stats count (one read per
// composited voxel, one read and one write per composited pixel, one write
// per final pixel).
bool final_images_identical(const ImageU8& a, const ImageU8& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.data(), b.data(), a.pixel_count() * sizeof(Pixel8)) == 0;
}

void expect_same_composite(const CompositeStats& a, const CompositeStats& b,
                           const std::string& what) {
  EXPECT_EQ(a.voxels_composited, b.voxels_composited) << what;
  EXPECT_EQ(a.pixels_visited, b.pixels_visited) << what;
  EXPECT_EQ(a.slices_touched, b.slices_touched) << what;
  EXPECT_EQ(a.scanlines, b.scanlines) << what;
}

struct Accesses {
  uint64_t reads = 0, writes = 0;
};

// Traced records per registered structure; every record must lie wholly
// inside one.
std::map<std::string, Accesses> accesses_by_region(const TraceSet& traces,
                                                   const RegionRegistry& regions,
                                                   const std::string& what) {
  std::map<std::string, Accesses> by_region;
  for (int p = 0; p < traces.procs(); ++p) {
    for (const TraceRecord& r : traces.stream(p).records) {
      const std::string& region = regions.classify(r.addr());
      EXPECT_NE(region, "unregistered") << what << " proc " << p << " addr " << r.addr();
      EXPECT_EQ(regions.classify(r.addr() + r.size() - 1), region) << what;
      Accesses& a = by_region[region];
      (r.is_write() ? a.writes : a.reads)++;
    }
  }
  return by_region;
}

void expect_trace_accounts(const TraceSet& traces, const RegionRegistry& regions,
                           const CompositeStats& composite, uint64_t final_pixels,
                           const std::string& what) {
  auto by_region = accesses_by_region(traces, regions, what);
  EXPECT_EQ(by_region["voxel data"].reads, composite.voxels_composited) << what;
  EXPECT_EQ(by_region["intermediate image"].writes, composite.pixels_visited) << what;
  EXPECT_GE(by_region["intermediate image"].reads, composite.pixels_visited) << what;
  EXPECT_EQ(by_region["final image"].writes, final_pixels) << what;
  EXPECT_GT(by_region["volume runs"].reads, 0u) << what;
  EXPECT_GT(by_region["skip links"].reads, 0u) << what;
  for (const char* read_only : {"voxel data", "volume runs"}) {
    EXPECT_EQ(by_region[read_only].writes, 0u) << what << " " << read_only;
  }
  EXPECT_EQ(by_region["final image"].reads, 0u) << what;
}

TEST(FastPath, TracedRendersMatchHookFreeRenders) {
  for (const std::string kind : {"mri", "ct"}) {
    const Dataset data = make_dataset(kind, kind + "48", 48, 48, 48);
    const Camera cams[2] = {Camera::orbit(data.dims, 0.55, 0.35),
                            Camera::orbit(data.dims, 0.6, 0.3)};

    SerialRenderer serial_plain, serial_traced;
    for (int frame = 0; frame < 2; ++frame) {
      const std::string what = kind + " serial frame " + std::to_string(frame);
      ImageU8 plain, traced;
      TraceSet traces(1);
      const RenderStats a = serial_plain.render(data.volume, cams[frame], &plain);
      const RenderStats b =
          serial_traced.render(data.volume, cams[frame], &traced, traces.hook(0));
      EXPECT_TRUE(final_images_identical(plain, traced)) << what;
      expect_same_composite(a.composite, b.composite, what);
      EXPECT_EQ(a.warp.pixels_written, b.warp.pixels_written) << what;
      EXPECT_EQ(a.warp.samples, b.warp.samples) << what;
      RegionRegistry regions;
      register_render_regions(&regions, data.volume, serial_traced.intermediate(), traced,
                              nullptr);
      expect_trace_accounts(traces, regions, b.composite, b.warp.pixels_written, what);

      // Compositing alone, scanline by scanline: the same pixels and work
      // per scanline, and exactly one pixel read per composited pixel.
      const Factorization f = factorize(cams[frame], data.dims);
      const RleVolume& rle = data.volume.for_axis(f.principal_axis);
      IntermediateImage img_plain(f.intermediate_width, f.intermediate_height);
      IntermediateImage img_traced(f.intermediate_width, f.intermediate_height);
      TraceSet scan_traces(1);
      CompositeStats scan_plain, scan_traced;
      for (int v = 0; v < f.intermediate_height; ++v) {
        ASSERT_EQ(composite_scanline(rle, f, v, img_plain, nullptr, &scan_plain),
                  composite_scanline(rle, f, v, img_traced, scan_traces.hook(0),
                                     &scan_traced))
            << what << " scanline " << v;
      }
      EXPECT_TRUE(images_identical(img_plain, img_traced)) << what;
      expect_same_composite(scan_plain, scan_traced, what);
      RegionRegistry scan_regions;
      register_render_regions(&scan_regions, data.volume, img_traced, ImageU8{}, nullptr);
      auto scan = accesses_by_region(scan_traces, scan_regions, what);
      EXPECT_EQ(scan["intermediate image"].reads, scan_traced.pixels_visited) << what;
      EXPECT_EQ(scan["voxel data"].reads, scan_traced.voxels_composited) << what;
    }

    for (int procs : {1, 4, 16}) {
      OldParallelRenderer old_plain, old_traced;
      NewParallelRenderer new_plain, new_traced;
      SerialExecutor exec(procs);
      for (int frame = 0; frame < 2; ++frame) {
        const std::string what = kind + " P=" + std::to_string(procs) + " frame " +
                                  std::to_string(frame);
        ImageU8 plain, traced;
        ParallelRenderStats a, b;

        TracingExecutor old_exec(procs);
        old_plain.render(data.volume, cams[frame], exec, &plain, &a);
        old_traced.render(data.volume, cams[frame], old_exec, &traced, &b);
        EXPECT_TRUE(final_images_identical(plain, traced)) << "old " << what;
        expect_same_composite(a.composite, b.composite, "old " + what);
        EXPECT_EQ(a.composite_work, b.composite_work) << "old " << what;
        EXPECT_EQ(a.warp_pixels, b.warp_pixels) << "old " << what;
        RegionRegistry old_regions;
        register_render_regions(&old_regions, data.volume, old_traced.intermediate(),
                                traced, nullptr);
        expect_trace_accounts(
            old_exec.traces(), old_regions, b.composite,
            std::accumulate(b.warp_pixels.begin(), b.warp_pixels.end(), uint64_t{0}),
            "old " + what);

        TracingExecutor new_exec(procs);
        new_plain.render(data.volume, cams[frame], exec, &plain, &a);
        new_traced.render(data.volume, cams[frame], new_exec, &traced, &b);
        EXPECT_TRUE(final_images_identical(plain, traced)) << "new " << what;
        expect_same_composite(a.composite, b.composite, "new " + what);
        EXPECT_EQ(a.composite_work, b.composite_work) << "new " << what;
        EXPECT_EQ(a.warp_pixels, b.warp_pixels) << "new " << what;
        EXPECT_EQ(a.bounds, b.bounds) << "new " << what;
        EXPECT_EQ(new_plain.profile().cost(), new_traced.profile().cost()) << "new " << what;
        RegionRegistry new_regions;
        register_render_regions(&new_regions, data.volume, new_traced.intermediate(),
                                traced, &new_traced.profile());
        expect_trace_accounts(
            new_exec.traces(), new_regions, b.composite,
            std::accumulate(b.warp_pixels.begin(), b.warp_pixels.end(), uint64_t{0}),
            "new " + what);
      }
    }
  }
}

// Golden whole-frame trace counts of the segment-batched compositing and
// interior-tap warp kernels. Record, read/write and byte counts are
// address-independent, so they pin the simulated access streams
// (compositing AND warp, both parallel algorithms AND the serial renderer)
// across refactors of the kernels.
struct GoldenStream {
  uint64_t records, reads, writes, bytes;
};

void expect_stream(const TraceStream& s, const GoldenStream& g, const char* what) {
  uint64_t reads = 0, writes = 0, bytes = 0;
  for (const TraceRecord& r : s.records) {
    (r.is_write() ? writes : reads)++;
    bytes += r.size();
  }
  EXPECT_EQ(s.records.size(), g.records) << what;
  EXPECT_EQ(reads, g.reads) << what;
  EXPECT_EQ(writes, g.writes) << what;
  EXPECT_EQ(bytes, g.bytes) << what;
}

TEST(FastPath, GoldenTraceCounts) {
  const Dataset data = make_dataset("mri", "mri48", 48, 48, 48);

  const GoldenStream golden_old[4] = {
      {66262, 54596, 11666, 588248},
      {52752, 43338, 9414, 457724},
      {39980, 32834, 7146, 287196},
      {52222, 42990, 9232, 409688},
  };
  const GoldenStream golden_new[4] = {
      {51232, 40788, 10444, 411064},
      {48244, 40056, 8188, 362428},
      {50054, 41538, 8516, 380992},
      {49956, 39646, 10310, 400692},
  };

  const TraceSet told = trace_frame(Algo::kOld, data, 4);
  ASSERT_EQ(told.procs(), 4);
  for (int p = 0; p < 4; ++p) expect_stream(told.stream(p), golden_old[p], "old");

  const TraceSet tnew = trace_frame(Algo::kNew, data, 4);
  ASSERT_EQ(tnew.procs(), 4);
  for (int p = 0; p < 4; ++p) expect_stream(tnew.stream(p), golden_new[p], "new");

  TraceSet serial(1);
  SerialRenderer r;
  ImageU8 out;
  const Camera cam = Camera::orbit(data.dims, 0.55, 0.35);
  r.render(data.volume, cam, &out, serial.hook(0));
  expect_stream(serial.stream(0), {105608, 86879, 18729, 871428}, "serial");
}

// End-to-end: a full serial render (composite + warp) with and without a
// hook attached produces the same final image, i.e. the two instantiations
// of each kernel agree through quantization.
TEST(FastPath, SerialRenderIdenticalWithAndWithoutHook) {
  const Dataset data = make_dataset("mri", "mri48", 48, 48, 48);
  const Camera cam = Camera::orbit(data.dims, 0.55, 0.35);

  SerialRenderer r1, r2;
  ImageU8 plain, hooked;
  r1.render(data.volume, cam, &plain);
  TraceSet traces(1);
  r2.render(data.volume, cam, &hooked, traces.hook(0));

  ASSERT_EQ(plain.width(), hooked.width());
  ASSERT_EQ(plain.height(), hooked.height());
  for (int y = 0; y < plain.height(); ++y) {
    ASSERT_EQ(std::memcmp(plain.row(y), hooked.row(y),
                          plain.width() * sizeof(Pixel8)),
              0)
        << "row " << y;
  }
}

}  // namespace
}  // namespace psw
