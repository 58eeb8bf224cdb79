// Bit-exactness and trace-preservation tests for the run-level compositing
// fast path (see DESIGN.md "Kernel dispatch and fast path"):
//
//  * the segment-batched SIMD kernel must produce byte-identical pixels,
//    stats and work counts to the per-pixel reference kernel and to the
//    dense reference renderer, on every principal axis and off-axis views;
//  * hook templating must leave the simulated reference streams untouched:
//    the SimHook instantiation replays the seed kernel's access sequence
//    record-for-record, so cache miss counts are unchanged;
//  * golden counts pin the whole-frame traces (both parallel algorithms and
//    the serial renderer) to the values the seed emitted.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "core/compositor.hpp"
#include "core/reference.hpp"
#include "core/renderer.hpp"
#include "memsim/cache.hpp"
#include "memsim/experiment.hpp"
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

// --- In-test verbatim copy of the seed's per-pixel compositing kernel. ---
// Built against public APIs only (RunCursorT, skip-link queries, hook_read/
// hook_write), so it compiles unchanged against today's headers. Running it
// and the production hooked kernel on the SAME buffers must yield identical
// reference streams; that is the hook-templating invariant.

struct SeedSliceGeom {
  int base;
  float w;
  static SeedSliceGeom from_offset(double offset) {
    const int base = static_cast<int>(std::ceil(offset));
    return {base, static_cast<float>(base - offset)};
  }
};

uint32_t seed_composite_scanline(const RleVolume& rle, const Factorization& f, int v,
                                 IntermediateImage& img, MemoryHook* hook,
                                 CompositeStats* stats) {
  uint32_t work = 0;
  const int width = img.width();
  const float inv255 = 1.0f / 255.0f;

  for (int t = 0; t < f.nk; ++t) {
    const int k = f.slice(t);
    const double off_u = f.offset_u(k);
    const double off_v = f.offset_v(k);

    const SeedSliceGeom gv = SeedSliceGeom::from_offset(off_v);
    const int j0 = v - gv.base;
    if (j0 < -1 || j0 >= f.nj) continue;
    const float wv = gv.w;

    RunCursorT<SimHook> c0(rle, k, j0, SimHook{hook});
    RunCursorT<SimHook> c1(rle, k, j0 + 1, SimHook{hook});
    if ((c0.null() || c0.empty()) && (c1.null() || c1.empty())) continue;

    if (img.fully_opaque_from(v, 0, hook)) break;

    const SeedSliceGeom gu = SeedSliceGeom::from_offset(off_u);
    const float wu = gu.w;
    const float w00 = (1.0f - wu) * (1.0f - wv);
    const float w10 = wu * (1.0f - wv);
    const float w01 = (1.0f - wu) * wv;
    const float w11 = wu * wv;

    int u = std::max(0, static_cast<int>(std::floor(off_u - 1.0)) + 1);
    const int u_end = std::min(width, static_cast<int>(std::ceil(off_u + rle.ni())));

    ++work;
    if (stats) ++stats->slices_touched;

    while (u < u_end) {
      u = img.next_writable(v, u, hook);
      if (u >= u_end) break;
      const int i0 = u - gu.base;

      const ClassifiedVoxel* v00 = c0.at(i0);
      const ClassifiedVoxel* v10 = c0.at(i0 + 1);
      const ClassifiedVoxel* v01 = c1.at(i0);
      const ClassifiedVoxel* v11 = c1.at(i0 + 1);

      if (!v00 && !v10 && !v01 && !v11) {
        const int m = std::min(c0.next_nontransparent(i0 + 2),
                               c1.next_nontransparent(i0 + 2));
        if (m >= rle.ni()) break;
        u = std::max(u + 1, m - 1 + gu.base);
        continue;
      }

      float sa = 0.0f, sr = 0.0f, sg = 0.0f, sb = 0.0f;
      auto accumulate = [&](const ClassifiedVoxel* cv, float w) {
        if (!cv) return;
        const float a = w * (cv->a * inv255);
        sa += a;
        sr += a * (cv->r * inv255);
        sg += a * (cv->g * inv255);
        sb += a * (cv->b * inv255);
        ++work;
        if (stats) ++stats->voxels_composited;
      };
      accumulate(v00, w00);
      accumulate(v10, w10);
      accumulate(v01, w01);
      accumulate(v11, w11);

      Rgba& px = img.pixel(u, v);
      hook_read(hook, &px, sizeof(Rgba));
      const float transmit = 1.0f - px.a;
      px.r += transmit * sr;
      px.g += transmit * sg;
      px.b += transmit * sb;
      px.a += transmit * sa;
      hook_write(hook, &px, sizeof(Rgba));
      ++work;
      if (stats) ++stats->pixels_visited;

      if (px.a >= IntermediateImage::kOpaqueAlpha) img.mark_opaque(u, v, hook);
      ++u;
    }
  }
  if (stats) ++stats->scanlines;
  return work;
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
                     return composite_scanline_reference(r, ff, v, img, nullptr, s);
                   });
    const uint64_t fast_work =
        frame_with(rle, f, fast_img, &fast_stats,
                   [](const RleVolume& r, const Factorization& ff, int v,
                      IntermediateImage& img, CompositeStats* s) {
                     return composite_scanline_segmented(r, ff, v, img, s);
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
                 return composite_scanline_segmented(r, ff, v, img, s);
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

// Hook templating must not change the simulated reference stream: the seed
// kernel and the production hooked kernel, run over the same buffers, must
// emit identical record sequences — and therefore identical cache misses.
TEST(FastPath, HookedKernelEmitsSeedReferenceStream) {
  const Scene scene = mri_scene(40);
  const Camera cam = Camera::orbit(scene.dims, 0.55, 0.35);
  const Factorization f = factorize(cam, scene.dims);
  const RleVolume& rle = scene.encoded.for_axis(f.principal_axis);

  // One image object, so the two runs touch the same addresses.
  IntermediateImage img;
  CompositeStats seed_stats, prod_stats;

  TraceSet seed_traces(1);
  const uint64_t seed_work =
      frame_with(rle, f, img, &seed_stats,
                 [&](const RleVolume& r, const Factorization& ff, int v,
                     IntermediateImage& im, CompositeStats* s) {
                   return seed_composite_scanline(r, ff, v, im, seed_traces.hook(0), s);
                 });

  TraceSet prod_traces(1);
  const uint64_t prod_work =
      frame_with(rle, f, img, &prod_stats,
                 [&](const RleVolume& r, const Factorization& ff, int v,
                     IntermediateImage& im, CompositeStats* s) {
                   return composite_scanline(r, ff, v, im, prod_traces.hook(0), s);
                 });

  EXPECT_EQ(seed_work, prod_work);
  EXPECT_EQ(seed_stats.voxels_composited, prod_stats.voxels_composited);
  EXPECT_EQ(seed_stats.pixels_visited, prod_stats.pixels_visited);

  const auto& a = seed_traces.stream(0).records;
  const auto& b = prod_traces.stream(0).records;
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 1000u);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].addr(), b[i].addr()) << "record " << i;
    ASSERT_EQ(a[i].size(), b[i].size()) << "record " << i;
    ASSERT_EQ(a[i].is_write(), b[i].is_write()) << "record " << i;
  }

  // Identical streams imply identical miss counts; simulate anyway so a
  // regression in the record encoding can't slip through unnoticed.
  auto misses = [](const std::vector<TraceRecord>& recs) {
    SetAssocCache cache(64 * 1024, 64, 4);
    uint64_t m = 0;
    for (const TraceRecord& r : recs) {
      if (!cache.access(r.addr() / 64).hit) ++m;
    }
    return m;
  };
  EXPECT_EQ(misses(a), misses(b));
}

// Golden whole-frame trace counts, captured from the seed revision. Record,
// read/write and byte counts are address-independent, so they pin the
// simulated access streams (compositing AND warp, both parallel algorithms
// AND the serial renderer) across refactors of the kernels.
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

TEST(FastPath, GoldenTraceCountsUnchangedFromSeed) {
  const Dataset data = make_dataset("mri", "mri48", 48, 48, 48);

  const GoldenStream golden_old[4] = {
      {67658, 55982, 11676, 589880},
      {54196, 44778, 9418, 459296},
      {41686, 34530, 7156, 290732},
      {53690, 44454, 9236, 413304},
  };
  const GoldenStream golden_new[4] = {
      {52848, 42402, 10446, 415084},
      {48998, 40806, 8192, 364176},
      {50864, 42330, 8534, 382960},
      {51664, 41350, 10314, 404896},
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
  expect_stream(serial.stream(0), {108615, 89872, 18743, 876606}, "serial");
}

// End-to-end: a full serial render (composite + warp) with and without a
// hook attached produces the same final image, i.e. the fast path and the
// traced path agree through quantization.
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
