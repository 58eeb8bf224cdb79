// The seed's per-pixel compositing and warp kernels: probe every pixel's
// four resampling taps through a run cursor (RunCursorT::at), follow the
// skip links one pixel at a time, and check every warp tap before loading
// it. Kept here — not in the library — as the oracle the bit-identity
// tests pin the segment-batched compositing kernel and the interior-tap
// warp kernel to (pixels, returned work, CompositeStats, WarpStats), and
// as the baseline the kernel benchmarks time them against.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/compositor.hpp"
#include "core/factorization.hpp"
#include "core/intermediate_image.hpp"
#include "core/rle_volume.hpp"
#include "core/warp.hpp"
#include "util/image.hpp"

namespace psw::bench::seed {

// Streams one scanline's runs with monotonically non-decreasing queries,
// templated on the hook policy: RunCursorT<NullHook> has no per-access
// branch at all, RunCursorT<SimHook> reports every run-length and voxel
// read. Out-of-range scanlines (j outside [0, nj)) construct a null cursor
// whose queries report "all transparent".
template <class Hook>
class RunCursorT {
 public:
  RunCursorT() = default;  // null cursor
  RunCursorT(const RleVolume& vol, int k, int j, Hook hook = Hook{}) : hook_(hook) {
    ni_ = vol.ni();
    if (j < 0 || j >= vol.nj() || k < 0 || k >= vol.nk()) return;  // null cursor
    runs_ = vol.runs_at(k, j);
    num_runs_ = vol.runs_in_scanline(k, j);
    voxels_ = vol.voxels_at(k, j);
    empty_ = vol.scanline_empty(k, j);
    run_idx_ = 0;
    run_start_ = 0;
    run_len_ = num_runs_ > 0 ? runs_[0] : ni_;
    voxels_before_ = 0;
    run_opaque_ = false;
    hook_.read(runs_, sizeof(uint16_t));
  }

  bool null() const { return runs_ == nullptr; }
  // All voxels in the scanline are transparent (cheap: checks offsets).
  bool empty() const { return empty_; }

  // Voxel at index i, or nullptr if transparent/out of range. Queries must
  // be non-decreasing in i (i may repeat). Reports data references to the
  // hook: run-length reads on run advances, voxel reads on hits.
  const ClassifiedVoxel* at(int i) {
    if (runs_ == nullptr || i < 0 || i >= ni_) return nullptr;
    advance_to(i);
    if (!run_opaque_ || i < run_start_ || i >= run_start_ + run_len_) return nullptr;
    const ClassifiedVoxel* v = voxels_ + voxels_before_ + (i - run_start_);
    hook_.read(v, sizeof(ClassifiedVoxel));
    return v;
  }

  // Smallest index >= i holding a non-transparent voxel, or ni if none.
  // Does not consume cursor state. Must also be called non-decreasing.
  int next_nontransparent(int i) const {
    if (runs_ == nullptr) return ni_ == 0 ? 0 : ni_;
    if (i < 0) i = 0;
    // Scan forward from the current run without mutating state.
    size_t idx = run_idx_;
    int start = run_start_;
    int len = run_len_;
    bool opaque = run_opaque_;
    while (true) {
      if (opaque && i < start + len) return std::max(i, start);
      if (idx + 1 >= num_runs_) return ni_;
      start += len;
      ++idx;
      len = runs_[idx];
      opaque = !opaque;
    }
  }

 private:
  void advance_to(int i) {
    while (i >= run_start_ + run_len_ && run_idx_ + 1 < num_runs_) {
      if (run_opaque_) voxels_before_ += run_len_;
      run_start_ += run_len_;
      ++run_idx_;
      run_len_ = runs_[run_idx_];
      run_opaque_ = !run_opaque_;
      hook_.read(runs_ + run_idx_, sizeof(uint16_t));
    }
  }

  const uint16_t* runs_ = nullptr;
  size_t num_runs_ = 0;
  const ClassifiedVoxel* voxels_ = nullptr;
  Hook hook_{};
  int ni_ = 0;
  bool empty_ = true;
  // Current run state.
  size_t run_idx_ = 0;
  int run_start_ = 0;           // first voxel index of current run
  int run_len_ = 0;             // length of current run
  size_t voxels_before_ = 0;    // packed voxels preceding current run
  bool run_opaque_ = false;
};

// Composites every slice's contribution to intermediate scanline v, one
// pixel at a time; same contract and results as psw::composite_scanline.
inline uint32_t composite_scanline(const RleVolume& rle, const Factorization& f, int v,
                                   IntermediateImage& img,
                                   CompositeStats* stats = nullptr) {
  uint32_t work = 0;
  const int width = img.width();
  const float inv255 = 1.0f / 255.0f;

  for (int t = 0; t < f.nk; ++t) {
    const int k = f.slice(t);
    const double off_u = f.offset_u(k);
    const double off_v = f.offset_v(k);

    // Which voxel scanlines feed intermediate scanline v in this slice:
    // voxel i lands at i + offset, so base = ceil(offset) and the upper
    // neighbour's weight is base - offset.
    const int base_v = static_cast<int>(std::ceil(off_v));
    const int j0 = v - base_v;  // lower voxel scanline; j0+1 is the upper
    if (j0 < -1 || j0 >= f.nj) continue;
    const float wv = static_cast<float>(base_v - off_v);

    RunCursorT<NullHook> c0(rle, k, j0);
    RunCursorT<NullHook> c1(rle, k, j0 + 1);
    if ((c0.null() || c0.empty()) && (c1.null() || c1.empty())) continue;

    // Early scanline termination: if everything is already opaque, no
    // later slice can contribute either.
    if (img.fully_opaque_from(v, 0)) break;

    const int base_u = static_cast<int>(std::ceil(off_u));
    const float wu = static_cast<float>(base_u - off_u);
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
      u = img.next_writable(v, u);
      if (u >= u_end) break;
      const int i0 = u - base_u;

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
        u = std::max(u + 1, m - 1 + base_u);
        continue;
      }

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
      const float transmit = 1.0f - px.a;
      px.r += transmit * sr;
      px.g += transmit * sg;
      px.b += transmit * sb;
      px.a += transmit * sa;
      ++work;
      if (stats) ++stats->pixels_visited;

      if (px.a >= IntermediateImage::kOpaqueAlpha) img.mark_opaque(u, v);
      ++u;
    }
  }
  if (stats) ++stats->scanlines;
  return work;
}

// Warps final-image scanline y for x in [x0, x1), one checked tap at a
// time; same contract and results as psw::warp_scanline.
inline void warp_scanline(const IntermediateImage& src, const Affine2D& inv, int y,
                          int x0, int x1, ImageU8& out, WarpStats* stats = nullptr) {
  const int sw = src.width(), sh = src.height();
  Pixel8* dst = out.row(y);
  for (int x = x0; x < x1; ++x) {
    const Vec3 uv = inv.apply(x + 0.0, y + 0.0);
    const double u = uv.x, v = uv.y;
    // Bilinear footprint; outside pixels are transparent black.
    const int u0 = static_cast<int>(std::floor(u));
    const int v0 = static_cast<int>(std::floor(v));
    if (u0 < -1 || u0 >= sw || v0 < -1 || v0 >= sh) {
      dst[x] = Pixel8{};
      if (stats) ++stats->pixels_written;
      continue;
    }
    const float fu = static_cast<float>(u - u0);
    const float fv = static_cast<float>(v - v0);
    float r = 0, g = 0, b = 0, a = 0;
    auto sample = [&](int su, int sv, float w) {
      if (w == 0.0f || su < 0 || su >= sw || sv < 0 || sv >= sh) return;
      const Rgba& p = src.pixel(su, sv);
      r += w * p.r;
      g += w * p.g;
      b += w * p.b;
      a += w * p.a;
      if (stats) ++stats->samples;
    };
    sample(u0, v0, (1 - fu) * (1 - fv));
    sample(u0 + 1, v0, fu * (1 - fv));
    sample(u0, v0 + 1, (1 - fu) * fv);
    sample(u0 + 1, v0 + 1, fu * fv);
    dst[x] = quantize8(Rgba{r, g, b, a});
    if (stats) ++stats->pixels_written;
  }
}

}  // namespace psw::bench::seed
