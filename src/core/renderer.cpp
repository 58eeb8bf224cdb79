#include "core/renderer.hpp"

#include "util/timer.hpp"

namespace psw {

RenderStats SerialRenderer::render(const EncodedVolume& volume, const Camera& camera,
                                   ImageU8* out, MemoryHook* hook) {
  RenderStats stats;
  WallTimer total;

  const std::array<int, 3> dims{volume.dim(0), volume.dim(1), volume.dim(2)};
  const Factorization f = factorize(camera, dims);
  const RleVolume& rle = volume.for_axis(f.principal_axis);

  if (intermediate_.width() != f.intermediate_width ||
      intermediate_.height() != f.intermediate_height) {
    intermediate_.resize(f.intermediate_width, f.intermediate_height);
  } else {
    intermediate_.clear();
  }
  stats.intermediate_width = f.intermediate_width;
  stats.intermediate_height = f.intermediate_height;

  WallTimer composite_timer;
  stats.composite = composite_frame(rle, f, intermediate_, hook);
  stats.composite_ms = composite_timer.millis();

  out->resize_for_reuse(f.final_width, f.final_height);  // warp_frame writes all
  WallTimer warp_timer;
  stats.warp = warp_frame(intermediate_, f, *out, hook);
  stats.warp_ms = warp_timer.millis();

  stats.total_ms = total.millis();
  return stats;
}

}  // namespace psw
