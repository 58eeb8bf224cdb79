// The NEW parallel shear-warp algorithm (§4): contiguous, predictively
// load-balanced partitions of intermediate-image scanlines, computed from
// per-scanline work profiles of a previous frame via a parallel prefix and
// binary search; the same partition is reused in the warp phase, and the
// empty top/bottom of the intermediate image is never composited. Stealing
// moves chunks (not single scanlines) when the prediction is off. With
// fused phases, per-partition completion flags replace the inter-phase
// barrier (§5.5.2): a processor's warp waits only on its neighbours.
#pragma once

#include "core/renderer.hpp"
#include "parallel/executor.hpp"
#include "parallel/frame_scratch.hpp"
#include "parallel/options.hpp"
#include "parallel/profile.hpp"

namespace psw {

class NewParallelRenderer {
 public:
  explicit NewParallelRenderer(ParallelOptions options = {}) : options_(options) {}

  // Renders one frame. Stateful across frames: profiles from earlier frames
  // drive this frame's partition (render successive animation frames
  // through the same instance). Output is bit-identical to SerialRenderer.
  // Allocation-free: all per-frame working state lives in the renderer's
  // FrameScratch, the intermediate image is reused within capacity, and the
  // statistics are written into *stats (capacity-reusing assigns), so
  // steady-state frames perform zero heap allocations.
  void render(const EncodedVolume& volume, const Camera& camera, Executor& exec,
              ImageU8* out, ParallelRenderStats* stats);

  // Forgets profile state (e.g. when switching animations or volumes).
  void reset() {
    profile_.invalidate();
    frame_index_ = 0;
  }

  const ParallelOptions& options() const { return options_; }
  const IntermediateImage& intermediate() const { return intermediate_; }
  const ScanlineProfile& profile() const { return profile_; }

 private:
  ParallelOptions options_;
  IntermediateImage intermediate_;
  ScanlineProfile profile_;
  FrameScratch scratch_;    // per-frame working set, reused across frames
  int profile_height_ = 0;  // intermediate height the profile was taken at
  int frame_index_ = 0;
};

// Final-image x-interval [x0, x1) of scanline y whose inverse-warped v
// coordinate falls in [v_lo, v_hi). Adjacent v-intervals produce exactly
// abutting x-intervals (telescoping), so partitioning the intermediate
// v-range partitions the final image with no write sharing (§4.5).
// Exposed for tests.
void warp_x_interval(const Affine2D& inv_warp, int y, double v_lo, double v_hi,
                     int final_width, int* x0, int* x1);

}  // namespace psw
