#include "parallel/old_renderer.hpp"

#include "parallel/steal_queue.hpp"
#include "parallel/virtual_schedule.hpp"
#include "util/timer.hpp"

namespace psw {

void OldParallelRenderer::render(const EncodedVolume& volume, const Camera& camera,
                                 Executor& exec, ImageU8* out,
                                 ParallelRenderStats* stats_out) {
  ParallelRenderStats& stats = *stats_out;
  stats.reset();
  WallTimer total;
  const int P = exec.procs();

  const std::array<int, 3> dims{volume.dim(0), volume.dim(1), volume.dim(2)};
  const Factorization f = factorize(camera, dims);
  const RleVolume& rle = volume.for_axis(f.principal_axis);

  // Storage-reusing resize: every scanline is cleared by process_chunk
  // below (the interleaved chunks tile [0, height)), so nothing stale is
  // ever read.
  intermediate_.resize_for_reuse(f.intermediate_width, f.intermediate_height);
  const int height = f.intermediate_height;

  // --- Compositing phase: interleaved chunks, task stealing. ---
  exec.begin_phase("composite");
  scratch_.begin_frame(P);
  StealQueues& queues = scratch_.queues;
  const int chunk = std::max(1, options_.chunk_scanlines);
  int chunk_index = 0;
  for (int lo = 0; lo < height; lo += chunk, ++chunk_index) {
    const int owner = chunk_index % P;
    queues.push(owner, {lo, std::min(height, lo + chunk), owner});
  }

  const bool steal = options_.stealing;
  stats.composite_work.assign(P, 0);
  std::vector<CompositeStats>& comp_stats = scratch_.comp_stats;

  auto process_chunk = [&](int p, const ScanlineRange& r) -> uint32_t {
    MemoryHook* hook = exec.hook(p);
    uint32_t chunk_work = 0;
    intermediate_.clear_rows(r.lo, r.hi);
    for (int v = r.lo; v < r.hi; ++v) {
      chunk_work += composite_scanline(rle, f, v, intermediate_, hook, &comp_stats[p]);
    }
    stats.composite_work[p] += chunk_work;
    return chunk_work;
  };

  WallTimer composite_timer;
  if (exec.concurrent()) {
    exec.run([&](int p) {
      ScanlineRange r;
      while (queues.pop_own(p, chunk, &r)) process_chunk(p, r);
      if (steal) {
        while (queues.steal(p, chunk, &r)) process_chunk(p, r);
      }
    });
  } else {
    // Tracing path: emulate the timing-driven stealing deterministically.
    virtual_time_schedule(queues, P, chunk, steal, process_chunk);
  }
  stats.composite_ms = composite_timer.millis();
  for (const auto& cs : comp_stats) stats.composite.add(cs);
  stats.steals = queues.steals();
  stats.lock_ops = queues.lock_ops();

  // --- Warp phase: round-robin square tiles of the final image (Fig 3).
  // The exec.run() boundary above is the inter-phase barrier. ---
  exec.begin_phase("warp");
  out->resize_for_reuse(f.final_width, f.final_height);  // the tiles cover it
  const int tile = std::max(1, options_.warp_tile);
  const int tiles_x = (f.final_width + tile - 1) / tile;
  const int tiles_y = (f.final_height + tile - 1) / tile;
  const Affine2D inv = f.warp.inverse();
  stats.warp_pixels.assign(P, 0);

  WallTimer warp_timer;
  exec.run([&](int p) {
    MemoryHook* hook = exec.hook(p);
    WarpStats ws;
    for (int t = p; t < tiles_x * tiles_y; t += P) {
      const int ty = t / tiles_x, tx = t % tiles_x;
      warp_tile(intermediate_, f, inv, tx * tile, ty * tile, tile, *out, hook, &ws);
    }
    stats.warp_pixels[p] = ws.pixels_written;
  });
  stats.warp_ms = warp_timer.millis();

  stats.total_ms = total.millis();
}

}  // namespace psw
