// The warp phase (§2): transforms the composited intermediate image into
// the final undistorted image with an inverse-mapped bilinear 2-D warp.
//
// Two kernels implement it and produce bit-identical pixels and stats (see
// DESIGN.md "Kernel dispatch and fast path"):
//  - the per-pixel reference kernel, templated on the hook policy; its
//    SimHook instantiation emits the reference stream the simulators
//    replay;
//  - the hook-free fast kernel: interior pixels sum their four taps as one
//    4-lane SIMD vector without per-tap checks and quantize inline.
// warp_scanline dispatches once per call: reference kernel when a hook is
// attached, fast kernel otherwise. warp_scanline_reference is the baseline
// the A/B tests and the kernel benchmarks compare the fast kernel against.
#pragma once

#include <cstdint>

#include "core/factorization.hpp"
#include "core/intermediate_image.hpp"
#include "core/hook.hpp"
#include "util/image.hpp"

namespace psw {

struct WarpStats {
  uint64_t pixels_written = 0;
  uint64_t samples = 0;  // intermediate pixels read
};

// Warps final-image scanline y for x in [x0, x1). The intermediate image is
// sampled bilinearly at the inverse-warped position; pixels mapping outside
// it compose over a black background. `inv` must be f.warp.inverse().
void warp_scanline(const IntermediateImage& src, const Factorization& f,
                   const Affine2D& inv, int y, int x0, int x1, ImageU8& out,
                   MemoryHook* hook = nullptr, WarpStats* stats = nullptr);

// The per-pixel reference kernel, always available for A/B comparison.
// Bit-identical to warp_scanline.
void warp_scanline_reference(const IntermediateImage& src, const Factorization& f,
                             const Affine2D& inv, int y, int x0, int x1, ImageU8& out,
                             MemoryHook* hook = nullptr, WarpStats* stats = nullptr);

// Warps the whole final image serially; `out` must be sized
// f.final_width x f.final_height.
WarpStats warp_frame(const IntermediateImage& src, const Factorization& f, ImageU8& out,
                     MemoryHook* hook = nullptr);

// Warps one square tile of the final image — the task unit of the *old*
// parallel algorithm's warp phase (§3.1, Figure 3).
void warp_tile(const IntermediateImage& src, const Factorization& f, const Affine2D& inv,
               int tile_x, int tile_y, int tile_size, ImageU8& out,
               MemoryHook* hook = nullptr, WarpStats* stats = nullptr);

}  // namespace psw
