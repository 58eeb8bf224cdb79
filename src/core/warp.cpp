#include "core/warp.hpp"

#include <algorithm>

#include "util/simd.hpp"

namespace psw {

namespace {

// floor() for |d| < 2^31 without the libm call: truncation rounds toward
// zero, so a negative non-integer steps down by one.
inline int floor_int(double d) {
  const int i = static_cast<int>(d);
  return i - (static_cast<double>(i) > d ? 1 : 0);
}

// The warp kernel, bit-identical to the per-pixel seed kernel of
// bench/seed_kernels.hpp: the same double coordinates ((a00*x + a01*y) +
// bx, with a01*y hoisted per row), the same float weights and products
// summed in the same tap order from +0, and the same quantization rule
// inline. A running sum that starts at +0 is never -0 under
// round-to-nearest, so adding the ±0 product of a zero-weight tap leaves it
// unchanged — interior pixels (all four taps in bounds) sum every tap
// without the seed's per-tap skip. Border pixels keep the checks.
//
// Templated on the hook policy: the SimHook instantiation reports every
// intermediate pixel it loads (an interior pixel's zero-weight taps too,
// since it loads them) and every final pixel it stores.
template <class Hook>
void warp_scanline_fast(const IntermediateImage& src, const Affine2D& inv, int y,
                        int x0, int x1, ImageU8& out, Hook hook, WarpStats* stats) {
  const int sw = src.width(), sh = src.height();
  const double yd = y;
  const double a01y = inv.a01 * yd, a11y = inv.a11 * yd;
  Pixel8* dst = out.row(y);
  uint64_t samples = 0;
  for (int x = x0; x < x1; ++x) {
    const double xd = x;
    const double u = (inv.a00 * xd + a01y) + inv.bx;
    const double v = (inv.a10 * xd + a11y) + inv.by;
    // floor(u) lies in [-1, sw) exactly when u does; NaN fails too.
    if (!(u >= -1.0 && u < sw && v >= -1.0 && v < sh)) {
      dst[x] = Pixel8{};
      hook.write(dst + x, sizeof(Pixel8));
      continue;
    }
    const int u0 = floor_int(u), v0 = floor_int(v);
    const float fu = static_cast<float>(u - u0);
    const float fv = static_cast<float>(v - v0);
    const float w[4] = {(1 - fu) * (1 - fv), fu * (1 - fv), (1 - fu) * fv, fu * fv};
    simd::f32x4 acc = simd::zero();
    if (u0 >= 0 && u0 + 1 < sw && v0 >= 0 && v0 + 1 < sh) {
      const Rgba* top = src.row(v0) + u0;
      const Rgba* bottom = src.row(v0 + 1) + u0;
      hook.read(top, sizeof(Rgba));
      hook.read(top + 1, sizeof(Rgba));
      hook.read(bottom, sizeof(Rgba));
      hook.read(bottom + 1, sizeof(Rgba));
      acc = simd::add(acc, simd::mul(simd::set1(w[0]), simd::loadu(&top[0].r)));
      acc = simd::add(acc, simd::mul(simd::set1(w[1]), simd::loadu(&top[1].r)));
      acc = simd::add(acc, simd::mul(simd::set1(w[2]), simd::loadu(&bottom[0].r)));
      acc = simd::add(acc, simd::mul(simd::set1(w[3]), simd::loadu(&bottom[1].r)));
      samples += static_cast<uint64_t>((w[0] != 0.0f) + (w[1] != 0.0f) + (w[2] != 0.0f) +
                                       (w[3] != 0.0f));
    } else {
      for (int t = 0; t < 4; ++t) {
        const int su = u0 + (t & 1), sv = v0 + (t >> 1);
        if (w[t] == 0.0f || su < 0 || su >= sw || sv < 0 || sv >= sh) continue;
        const Rgba& p = src.pixel(su, sv);
        hook.read(&p, sizeof(Rgba));
        acc = simd::add(acc, simd::mul(simd::set1(w[t]), simd::loadu(&p.r)));
        ++samples;
      }
    }
    simd::quantize_u8x4(acc, &dst[x].r);
    hook.write(dst + x, sizeof(Pixel8));
  }
  if (stats) {
    stats->pixels_written += static_cast<uint64_t>(std::max(0, x1 - x0));
    stats->samples += samples;
  }
}

}  // namespace

void warp_scanline(const IntermediateImage& src, const Factorization& f,
                   const Affine2D& inv, int y, int x0, int x1, ImageU8& out,
                   MemoryHook* hook, WarpStats* stats) {
  (void)f;
  if (hook) {
    warp_scanline_fast(src, inv, y, x0, x1, out, SimHook{hook}, stats);
  } else {
    warp_scanline_fast(src, inv, y, x0, x1, out, NullHook{}, stats);
  }
}

WarpStats warp_frame(const IntermediateImage& src, const Factorization& f, ImageU8& out,
                     MemoryHook* hook) {
  WarpStats stats;
  const Affine2D inv = f.warp.inverse();
  for (int y = 0; y < out.height(); ++y) {
    warp_scanline(src, f, inv, y, 0, out.width(), out, hook, &stats);
  }
  return stats;
}

void warp_tile(const IntermediateImage& src, const Factorization& f, const Affine2D& inv,
               int tile_x, int tile_y, int tile_size, ImageU8& out, MemoryHook* hook,
               WarpStats* stats) {
  const int y1 = std::min(out.height(), tile_y + tile_size);
  const int x1 = std::min(out.width(), tile_x + tile_size);
  for (int y = tile_y; y < y1; ++y) {
    warp_scanline(src, f, inv, y, tile_x, x1, out, hook, stats);
  }
}

}  // namespace psw
