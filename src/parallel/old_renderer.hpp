// The ORIGINAL parallel shear-warp algorithm (§3.1, Lacroute [5] / Singh et
// al. [12]): compositing over interleaved chunks of intermediate-image
// scanlines with task stealing; warp over round-robin square tiles of the
// final image; a global barrier between the phases.
#pragma once

#include "core/renderer.hpp"
#include "parallel/executor.hpp"
#include "parallel/frame_scratch.hpp"
#include "parallel/options.hpp"

namespace psw {

class OldParallelRenderer {
 public:
  explicit OldParallelRenderer(ParallelOptions options = {}) : options_(options) {}

  // Renders one frame with the executor's processors. The output is
  // bit-identical to SerialRenderer for any processor count: scanlines and
  // final pixels each have exactly one writer. Allocation-free: per-frame
  // working state lives in the renderer's FrameScratch and statistics are
  // written into *stats with capacity-reusing assigns (see
  // NewParallelRenderer for the contract).
  void render(const EncodedVolume& volume, const Camera& camera, Executor& exec,
              ImageU8* out, ParallelRenderStats* stats);

  const ParallelOptions& options() const { return options_; }
  const IntermediateImage& intermediate() const { return intermediate_; }

 private:
  ParallelOptions options_;
  IntermediateImage intermediate_;
  FrameScratch scratch_;  // per-frame working set, reused across frames
};

}  // namespace psw
