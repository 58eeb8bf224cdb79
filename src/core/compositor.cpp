#include "core/compositor.hpp"

#include <algorithm>
#include <climits>
#include <cmath>

#include "util/simd.hpp"

namespace psw {

namespace {

// Per-slice resampling geometry: voxel i of the slice lands at
// u = i + offset; pixel u therefore resamples voxels i0 = u - base and
// i0 + 1 with weight `w` on the upper neighbour, where base = ceil(offset)
// and w = base - offset in [0, 1).
struct SliceGeom {
  int base;
  float w;

  static SliceGeom from_offset(double offset) {
    const int base = static_cast<int>(std::ceil(offset));
    return {base, static_cast<float>(base - offset)};
  }
};

// ---------------------------------------------------------------------------
// Per-pixel reference kernel, templated on the hook policy. The SimHook
// instantiation reproduces the historical reference stream access for
// access; the NullHook instantiation compiles the hook calls away.
// ---------------------------------------------------------------------------

template <bool kTraversalOnly, class Hook>
uint32_t composite_scanline_impl(const RleVolume& rle, const Factorization& f, int v,
                                 IntermediateImage& img, Hook hook,
                                 CompositeStats* stats) {
  uint32_t work = 0;
  const int width = img.width();
  const float inv255 = 1.0f / 255.0f;

  for (int t = 0; t < f.nk; ++t) {
    const int k = f.slice(t);
    const double off_u = f.offset_u(k);
    const double off_v = f.offset_v(k);

    // Which voxel scanlines feed intermediate scanline v in this slice.
    const SliceGeom gv = SliceGeom::from_offset(off_v);
    const int j0 = v - gv.base;  // lower voxel scanline; j0+1 is the upper
    if (j0 < -1 || j0 >= f.nj) continue;
    const float wv = gv.w;

    RunCursorT<Hook> c0(rle, k, j0, hook);
    RunCursorT<Hook> c1(rle, k, j0 + 1, hook);
    if ((c0.null() || c0.empty()) && (c1.null() || c1.empty())) continue;

    // Early scanline termination: if everything is already opaque, no
    // later slice can contribute either.
    if (img.fully_opaque_from(v, 0, hook)) break;

    const SliceGeom gu = SliceGeom::from_offset(off_u);
    const float wu = gu.w;
    const float w00 = (1.0f - wu) * (1.0f - wv);  // (i0,   j0)
    const float w10 = wu * (1.0f - wv);           // (i0+1, j0)
    const float w01 = (1.0f - wu) * wv;           // (i0,   j0+1)
    const float w11 = wu * wv;                    // (i0+1, j0+1)

    // Pixel range receiving any contribution: i_real = u - off_u in
    // (-1, ni).
    int u = std::max(0, static_cast<int>(std::floor(off_u - 1.0)) + 1);
    const int u_end =
        std::min(width, static_cast<int>(std::ceil(off_u + rle.ni())));

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
        // Skip to the next pixel whose 2x2 footprint can contain a
        // non-transparent voxel.
        const int m = std::min(c0.next_nontransparent(i0 + 2),
                               c1.next_nontransparent(i0 + 2));
        if (m >= rle.ni()) break;  // nothing further in this slice
        u = std::max(u + 1, m - 1 + gu.base);
        continue;
      }

      if constexpr (!kTraversalOnly) {
        // Opacity-weighted (premultiplied) bilinear resampling, in a fixed
        // term order so the dense reference renderer is bit-identical.
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
        hook.read(&px, sizeof(Rgba));
        const float transmit = 1.0f - px.a;
        px.r += transmit * sr;
        px.g += transmit * sg;
        px.b += transmit * sb;
        px.a += transmit * sa;
        hook.write(&px, sizeof(Rgba));
        ++work;
        if (stats) ++stats->pixels_visited;

        if (px.a >= IntermediateImage::kOpaqueAlpha) img.mark_opaque(u, v, hook);
      } else {
        // Touch the voxel pointers so the traversal cost is realistic but
        // do no compositing arithmetic.
        work += (v00 != nullptr) + (v10 != nullptr) + (v01 != nullptr) +
                (v11 != nullptr) + 1;
        if (stats) ++stats->pixels_visited;
      }
      ++u;
    }
  }
  if (stats) ++stats->scanlines;
  return work;
}

// ---------------------------------------------------------------------------
// Segment-batched SIMD fast path. Traversal is restructured around the
// maximal non-transparent segments of the two source scanlines: within a
// stretch where the 2x2 tap pattern is constant, the inner loop over the
// image's writable runs is branch-free — four stride-0/1 voxel pointers
// (inactive taps read a shared zero voxel, contributing exactly +0.0f to
// every sum, which leaves non-negative float accumulators bit-unchanged)
// and a fixed-order 4-tap accumulation, so pixels, stats and work counts
// are bit-identical to the reference kernel.
// ---------------------------------------------------------------------------

constexpr ClassifiedVoxel kZeroVoxel{};

// S += (w * a_n) * (r_n, g_n, b_n, 1) for one resampling tap, matching the
// reference kernel's term order exactly.
inline simd::f32x4 tap(simd::f32x4 S, const ClassifiedVoxel* p, simd::f32x4 w,
                       simd::f32x4 inv255) {
  const simd::f32x4 argb = simd::mul(simd::from_u8x4(&p->a), inv255);
  const simd::f32x4 aw = simd::mul(w, simd::broadcast0(argb));
  return simd::add(S, simd::mul(aw, simd::rgb1_from_argb(argb)));
}

}  // namespace

uint32_t composite_scanline_segmented(const RleVolume& rle, const Factorization& f,
                                      int v, IntermediateImage& img,
                                      CompositeStats* stats) {
  uint32_t work = 0;
  const int width = img.width();
  const simd::f32x4 inv255 = simd::set1(1.0f / 255.0f);
  static_assert(sizeof(Rgba) == 4 * sizeof(float));

  for (int t = 0; t < f.nk; ++t) {
    const int k = f.slice(t);
    const double off_u = f.offset_u(k);
    const double off_v = f.offset_v(k);

    const SliceGeom gv = SliceGeom::from_offset(off_v);
    const int j0 = v - gv.base;  // lower voxel scanline; j0+1 is the upper
    if (j0 < -1 || j0 >= f.nj) continue;
    const float wv = gv.w;

    SegmentCursor s0(rle, k, j0);
    SegmentCursor s1(rle, k, j0 + 1);
    VoxelSegment g0, g1;
    bool has0 = s0.next(&g0);
    bool has1 = s1.next(&g1);
    if (!has0 && !has1) continue;  // both scanlines empty or out of range

    if (img.fully_opaque_from(v, 0, NullHook{})) break;

    const SliceGeom gu = SliceGeom::from_offset(off_u);
    const int base = gu.base;
    const float wu = gu.w;
    const simd::f32x4 w00 = simd::set1((1.0f - wu) * (1.0f - wv));
    const simd::f32x4 w10 = simd::set1(wu * (1.0f - wv));
    const simd::f32x4 w01 = simd::set1((1.0f - wu) * wv);
    const simd::f32x4 w11 = simd::set1(wu * wv);

    int u = std::max(0, static_cast<int>(std::floor(off_u - 1.0)) + 1);
    const int u_end =
        std::min(width, static_cast<int>(std::ceil(off_u + rle.ni())));

    ++work;
    if (stats) ++stats->slices_touched;

    while (u < u_end) {
      const int i0 = u - base;
      // Drop segments entirely behind the current footprint.
      while (has0 && g0.end <= i0) has0 = s0.next(&g0);
      while (has1 && g1.end <= i0) has1 = s1.next(&g1);
      if (!has0 && !has1) break;  // nothing further in this slice

      // A segment [s, e) contributes to pixels with i0 in [s-1, e).
      int next_on = INT_MAX;
      if (has0) next_on = std::min(next_on, g0.start - 1);
      if (has1) next_on = std::min(next_on, g1.start - 1);
      if (i0 < next_on) {  // inside a fully-transparent gap: leap it
        u = next_on + base;
        continue;
      }

      // Maximal subinterval [i0, stop) over which the 2x2 tap-activeness
      // pattern is constant: clip at every point where a tap of either
      // scanline switches on or off.
      int stop = u_end - base;
      const auto clip = [&](int x) {
        if (x > i0 && x < stop) stop = x;
      };
      if (has0) {
        clip(g0.start - 1);
        clip(g0.start);
        clip(g0.end - 1);
        clip(g0.end);
      }
      if (has1) {
        clip(g1.start - 1);
        clip(g1.start);
        clip(g1.end - 1);
        clip(g1.end);
      }

      const bool a00 = has0 && i0 >= g0.start && i0 < g0.end;
      const bool a10 = has0 && i0 + 1 >= g0.start && i0 + 1 < g0.end;
      const bool a01 = has1 && i0 >= g1.start && i0 < g1.end;
      const bool a11 = has1 && i0 + 1 >= g1.start && i0 + 1 < g1.end;
      const int ntaps = static_cast<int>(a00) + a10 + a01 + a11;
      // Inactive taps read the shared zero voxel with stride 0.
      const ClassifiedVoxel* p00 = a00 ? g0.vox + (i0 - g0.start) : &kZeroVoxel;
      const ClassifiedVoxel* p10 = a10 ? g0.vox + (i0 + 1 - g0.start) : &kZeroVoxel;
      const ClassifiedVoxel* p01 = a01 ? g1.vox + (i0 - g1.start) : &kZeroVoxel;
      const ClassifiedVoxel* p11 = a11 ? g1.vox + (i0 + 1 - g1.start) : &kZeroVoxel;
      const int st00 = a00, st10 = a10, st01 = a01, st11 = a11;

      const int su = stop + base;  // pixel index where the subinterval ends
      while (u < su) {
        // One writable run of the image at a time; the run query is a
        // plain load per pixel, no link chasing.
        const int we = img.writable_run_end(v, u, su);
        if (stats) {
          stats->pixels_visited += we - u;
          stats->voxels_composited += static_cast<uint64_t>(ntaps) * (we - u);
        }
        work += static_cast<uint32_t>(ntaps + 1) * (we - u);
        for (; u < we; ++u) {
          simd::f32x4 S = simd::zero();
          S = tap(S, p00, w00, inv255);
          S = tap(S, p10, w10, inv255);
          S = tap(S, p01, w01, inv255);
          S = tap(S, p11, w11, inv255);
          Rgba& px = img.pixel(u, v);
          const float transmit = 1.0f - px.a;
          const simd::f32x4 out =
              simd::add(simd::loadu(&px.r), simd::mul(simd::set1(transmit), S));
          simd::storeu(&px.r, out);
          if (simd::lane3(out) >= IntermediateImage::kOpaqueAlpha) {
            img.mark_opaque(u, v, NullHook{});
          }
          p00 += st00;
          p10 += st10;
          p01 += st01;
          p11 += st11;
        }
        if (u >= su) break;
        // Leap the opaque run (path-compressing, like the reference
        // kernel) and realign the tap pointers.
        const int u2 = img.next_writable(v, u, NullHook{});
        // Clamp the realignment so tap pointers never step past their
        // segment (u2 may leap beyond the subinterval, which ends it).
        const int d = std::min(u2, su) - u;
        p00 += st00 * d;
        p10 += st10 * d;
        p01 += st01 * d;
        p11 += st11 * d;
        u = u2;
      }
    }
  }
  if (stats) ++stats->scanlines;
  return work;
}

uint32_t composite_scanline_reference(const RleVolume& rle, const Factorization& f,
                                      int v, IntermediateImage& img, MemoryHook* hook,
                                      CompositeStats* stats) {
  if (hook) return composite_scanline_impl<false>(rle, f, v, img, SimHook{hook}, stats);
  return composite_scanline_impl<false>(rle, f, v, img, NullHook{}, stats);
}

uint32_t composite_scanline(const RleVolume& rle, const Factorization& f, int v,
                            IntermediateImage& img, MemoryHook* hook,
                            CompositeStats* stats) {
  // Dispatch once per scanline call: the traced path must replay the
  // reference kernel's access stream; the hook-free path takes the fast
  // kernel.
  if (hook) return composite_scanline_impl<false>(rle, f, v, img, SimHook{hook}, stats);
  return composite_scanline_segmented(rle, f, v, img, stats);
}

uint32_t composite_scanline_traversal_only(const RleVolume& rle, const Factorization& f,
                                           int v, IntermediateImage& img,
                                           MemoryHook* hook, CompositeStats* stats) {
  if (hook) return composite_scanline_impl<true>(rle, f, v, img, SimHook{hook}, stats);
  return composite_scanline_impl<true>(rle, f, v, img, NullHook{}, stats);
}

bool scanline_provably_empty(const RleVolume& rle, const Factorization& f, int v) {
  for (int t = 0; t < f.nk; ++t) {
    const int k = f.slice(t);
    const SliceGeom gv = SliceGeom::from_offset(f.offset_v(k));
    const int j0 = v - gv.base;
    if (j0 < -1 || j0 >= f.nj) continue;
    if (j0 >= 0 && !rle.scanline_empty(k, j0)) return false;
    if (j0 + 1 < f.nj && !rle.scanline_empty(k, j0 + 1)) return false;
  }
  return true;
}

CompositeStats composite_frame(const RleVolume& rle, const Factorization& f,
                               IntermediateImage& img, MemoryHook* hook) {
  CompositeStats stats;
  for (int v = 0; v < img.height(); ++v) {
    composite_scanline(rle, f, v, img, hook, &stats);
  }
  return stats;
}

}  // namespace psw
