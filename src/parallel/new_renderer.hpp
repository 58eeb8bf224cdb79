// The NEW parallel shear-warp algorithm (§4): contiguous, predictively
// load-balanced partitions of intermediate-image scanlines, computed from
// per-scanline work profiles of a previous frame via a parallel prefix and
// binary search; the same partition is reused in the warp phase, and the
// empty top/bottom of the intermediate image is never composited. Stealing
// moves chunks (not single scanlines) when the prediction is off. With
// fused phases, per-partition completion flags replace the inter-phase
// barrier (§5.5.2): a processor's warp waits only on its neighbours.
#pragma once

#include <memory>

#include "core/renderer.hpp"
#include "parallel/executor.hpp"
#include "parallel/frame_scratch.hpp"
#include "parallel/options.hpp"
#include "parallel/profile.hpp"

namespace psw {

class NewParallelRenderer {
 public:
  // Per-frame scratch: the intermediate image and the frame working set.
  // Nothing in it survives from one frame to the next (every row of the
  // intermediate image is cleared before it is read, and the scratch is
  // re-seeded by begin_frame), so renderers that never render concurrently
  // may share one — a service renders its sessions one at a time and keeps
  // one workspace for all of them instead of one per session.
  struct Workspace {
    IntermediateImage intermediate;
    FrameScratch scratch;
  };

  // `workspace` (not owned) must outlive the renderer, and no two renderers
  // sharing it may render at the same time. Null: the renderer owns one.
  explicit NewParallelRenderer(ParallelOptions options = {},
                               Workspace* workspace = nullptr)
      : options_(options),
        owned_(workspace == nullptr ? std::make_unique<Workspace>() : nullptr),
        workspace_(workspace == nullptr ? owned_.get() : workspace) {}

  // Renders one frame. Stateful across frames: profiles from earlier frames
  // drive this frame's partition (render successive animation frames
  // through the same instance). Output is bit-identical to SerialRenderer.
  // Allocation-free: all per-frame working state lives in the workspace's
  // FrameScratch, the intermediate image is reused within capacity, and the
  // statistics are written into *stats (capacity-reusing assigns), so
  // steady-state frames perform zero heap allocations.
  void render(const EncodedVolume& volume, const Camera& camera, Executor& exec,
              ImageU8* out, ParallelRenderStats* stats);

  // Forgets profile state (e.g. when switching animations or volumes).
  void reset() { profile_.invalidate(); }

  const ParallelOptions& options() const { return options_; }
  // The last frame rendered through this renderer's workspace (with a
  // shared workspace, possibly another renderer's frame).
  const IntermediateImage& intermediate() const { return workspace_->intermediate; }
  const ScanlineProfile& profile() const { return profile_; }

 private:
  ParallelOptions options_;
  // Per-animation state: the only thing carried from frame to frame (§4.2).
  ScanlineProfile profile_;
  int profile_height_ = 0;  // intermediate height the profile was taken at
  std::unique_ptr<Workspace> owned_;  // null when the workspace is shared
  Workspace* workspace_;
};

// Final-image x-interval [x0, x1) of scanline y whose inverse-warped v
// coordinate falls in [v_lo, v_hi). Adjacent v-intervals produce exactly
// abutting x-intervals (telescoping), so partitioning the intermediate
// v-range partitions the final image with no write sharing (§4.5).
// Exposed for tests.
void warp_x_interval(const Affine2D& inv_warp, int y, double v_lo, double v_hi,
                     int final_width, int* x0, int* x1);

}  // namespace psw
