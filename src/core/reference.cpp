#include "core/reference.hpp"

#include <cmath>

#include "core/rle_volume.hpp"
#include "core/warp.hpp"

namespace psw {

void reference_composite(const ClassifiedVolume& vol, const Factorization& f,
                         uint8_t alpha_threshold, IntermediateImage& img) {
  const float inv255 = 1.0f / 255.0f;
  const AxisPermutation perm = AxisPermutation::for_principal_axis(f.principal_axis);
  const int ni = f.ni, nj = f.nj;

  // Fetch voxel (i, j) of slice k in permuted coordinates; transparent and
  // out-of-range voxels return null exactly like RunCursorT::at.
  auto fetch = [&](int i, int j, int k) -> const ClassifiedVoxel* {
    if (i < 0 || i >= ni || j < 0 || j >= nj) return nullptr;
    const auto obj = perm.to_object(i, j, k);
    const ClassifiedVoxel& cv = vol.at(obj[0], obj[1], obj[2]);
    return cv.transparent(alpha_threshold) ? nullptr : &cv;
  };

  for (int v = 0; v < img.height(); ++v) {
    for (int t = 0; t < f.nk; ++t) {
      const int k = f.slice(t);
      const double off_u = f.offset_u(k);
      const double off_v = f.offset_v(k);

      const int base_v = static_cast<int>(std::ceil(off_v));
      const int j0 = v - base_v;
      if (j0 < -1 || j0 >= nj) continue;
      const float wv = static_cast<float>(base_v - off_v);

      const int base_u = static_cast<int>(std::ceil(off_u));
      const float wu = static_cast<float>(base_u - off_u);
      const float w00 = (1.0f - wu) * (1.0f - wv);
      const float w10 = wu * (1.0f - wv);
      const float w01 = (1.0f - wu) * wv;
      const float w11 = wu * wv;

      int u = std::max(0, static_cast<int>(std::floor(off_u - 1.0)) + 1);
      const int u_end = std::min(img.width(), static_cast<int>(std::ceil(off_u + ni)));
      for (; u < u_end; ++u) {
        Rgba& px = img.pixel(u, v);
        if (px.a >= IntermediateImage::kOpaqueAlpha) continue;  // early termination
        const int i0 = u - base_u;

        float sa = 0.0f, sr = 0.0f, sg = 0.0f, sb = 0.0f;
        auto accumulate = [&](const ClassifiedVoxel* cv, float w) {
          if (!cv) return;
          const float a = w * (cv->a * inv255);
          sa += a;
          sr += a * (cv->r * inv255);
          sg += a * (cv->g * inv255);
          sb += a * (cv->b * inv255);
        };
        accumulate(fetch(i0, j0, k), w00);
        accumulate(fetch(i0 + 1, j0, k), w10);
        accumulate(fetch(i0, j0 + 1, k), w01);
        accumulate(fetch(i0 + 1, j0 + 1, k), w11);
        if (sa == 0.0f && sr == 0.0f && sg == 0.0f && sb == 0.0f) continue;

        const float transmit = 1.0f - px.a;
        px.r += transmit * sr;
        px.g += transmit * sg;
        px.b += transmit * sb;
        px.a += transmit * sa;
      }
    }
  }
}

void reference_render(const ClassifiedVolume& vol, const Camera& camera,
                      uint8_t alpha_threshold, ImageU8* out) {
  const std::array<int, 3> dims{vol.nx(), vol.ny(), vol.nz()};
  const Factorization f = factorize(camera, dims);
  IntermediateImage img(f.intermediate_width, f.intermediate_height);
  reference_composite(vol, f, alpha_threshold, img);
  out->resize(f.final_width, f.final_height);
  warp_frame(img, f, *out);
}

}  // namespace psw
