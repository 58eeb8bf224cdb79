#include "parallel/new_renderer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "parallel/partition.hpp"
#include "parallel/steal_queue.hpp"
#include "parallel/virtual_schedule.hpp"
#include "util/timer.hpp"

namespace psw {

void warp_x_interval(const Affine2D& inv_warp, int y, double v_lo, double v_hi,
                     int final_width, int* x0, int* x1) {
  // v(x, y) = c0*x + c1*y + c2 from the inverse warp.
  const double c0 = inv_warp.a10;
  const double c1 = inv_warp.a11;
  const double c2 = inv_warp.by;
  const double rest = c1 * y + c2;

  if (std::abs(c0) < 1e-12) {
    // v is constant along the scanline: all or nothing.
    const bool inside = rest >= v_lo && rest < v_hi;
    *x0 = 0;
    *x1 = inside ? final_width : 0;
    return;
  }
  const double t_lo = (v_lo - rest) / c0;
  const double t_hi = (v_hi - rest) / c0;
  double lo, hi;
  if (c0 > 0) {
    // v increases with x: x in [t(v_lo), t(v_hi)).
    lo = std::ceil(t_lo);
    hi = std::ceil(t_hi);
  } else {
    // v decreases with x: x in (t(v_hi), t(v_lo)].
    lo = std::floor(t_hi) + 1;
    hi = std::floor(t_lo) + 1;
  }
  *x0 = static_cast<int>(std::clamp(lo, 0.0, static_cast<double>(final_width)));
  *x1 = static_cast<int>(std::clamp(hi, 0.0, static_cast<double>(final_width)));
}

void NewParallelRenderer::render(const EncodedVolume& volume, const Camera& camera,
                                 Executor& exec, ImageU8* out,
                                 ParallelRenderStats* stats_out) {
  ParallelRenderStats& stats = *stats_out;
  stats.reset();
  WallTimer total;
  const int P = exec.procs();

  const std::array<int, 3> dims{volume.dim(0), volume.dim(1), volume.dim(2)};
  const Factorization f = factorize(camera, dims);
  const RleVolume& rle = volume.for_axis(f.principal_axis);
  IntermediateImage& intermediate = workspace_->intermediate;
  FrameScratch& scratch = workspace_->scratch;

  // Reuse the intermediate image's storage across frames (and across the
  // small size wobbles of a rotating camera): every row of the new extent
  // is cleared below before it is read, either by the per-partition edge
  // pass or by process_chunk, so no zeroing resize is needed.
  intermediate.resize_for_reuse(f.intermediate_width, f.intermediate_height);
  const int height = f.intermediate_height;

  // Region of the intermediate image that can receive any contribution
  // (§4.2: the empty top and bottom are never composited).
  int act_lo = 0;
  while (act_lo < height && scanline_provably_empty(rle, f, act_lo)) ++act_lo;
  int act_hi = height;
  while (act_hi > act_lo && scanline_provably_empty(rle, f, act_hi - 1)) --act_hi;
  stats.active_lo = act_lo;
  stats.active_hi = act_hi;

  // Partition: predictively balanced from the last profile, else uniform
  // over the active region (first frame). All arrays live in the scratch.
  std::vector<int>& bounds = scratch.part.bounds;
  if (profile_.valid_for(profile_height_) && profile_height_ > 0) {
    // On real threads a serial prefix over a few hundred row costs beats
    // the two pool regions of the parallel one; the traced path keeps the
    // parallel prefix the paper describes (§4.3), so the simulated figures
    // see it. Integer sums are exact, so the bounds are the same either way.
    if (exec.concurrent()) {
      prefix_sum_into(profile_.cost(), &scratch.part.cum);
    } else {
      prefix_sum_parallel_into(profile_.cost(), exec, &scratch.part);
    }
    balanced_partition_into(scratch.part.cum, P, &bounds);
    if (profile_height_ != height) {
      // Rotation changed the intermediate size slightly; rescale.
      const double scale = static_cast<double>(height) / profile_height_;
      for (int p = 1; p < P; ++p) {
        bounds[p] = static_cast<int>(std::llround(bounds[p] * scale));
      }
      bounds[P] = height;
      for (int p = 1; p <= P; ++p) bounds[p] = std::max(bounds[p], bounds[p - 1]);
      for (int p = P - 1; p >= 1; --p) bounds[p] = std::min(bounds[p], bounds[p + 1]);
    }
  } else {
    uniform_partition_into(std::max(0, act_hi - act_lo), P, &bounds);
    for (int& b : bounds) b += act_lo;
    bounds.front() = 0;
    bounds.back() = height;
  }
  stats.bounds.assign(bounds.begin(), bounds.end());

  // Profile this frame? (First frame, or the profile is stale; §4.2.)
  const bool profiling =
      !profile_.valid_for(profile_height_) ||
      profile_.frames_since_profile() >= options_.profile_every;
  stats.profiled = profiling;
  if (profiling) profile_.begin_frame(height);

  // Seed the (reopened) queues with the active slice of each partition.
  scratch.begin_frame(P);
  StealQueues& queues = scratch.queues;
  std::atomic<int>* const remaining = scratch.remaining.get();
  std::atomic<bool>* const done = scratch.done.get();
  const int chunk = std::max(1, options_.chunk_scanlines);
  for (int p = 0; p < P; ++p) {
    const int lo = std::max(bounds[p], act_lo);
    const int hi = std::min(bounds[p + 1], act_hi);
    const int active = std::max(0, hi - lo);
    if (active > 0) queues.push(p, {lo, hi, p});
    // +1 is the owner's "cleared my inactive rows" token. relaxed: seeded
    // before the parallel region; the pool's run() barrier publishes both.
    remaining[p].store(active + 1, std::memory_order_relaxed);
    done[p].store(false, std::memory_order_relaxed);
  }

  const bool steal = options_.stealing;
  const bool fused = options_.fused_phases && exec.concurrent();
  // With fused phases requested, the composite→warp transition is ordered
  // by per-partition completion flags, not a global barrier — annotate the
  // trace with the matching point-to-point edges (release at every retire,
  // acquire at the neighbour wait) so the race detector checks the
  // synchronization actually claimed, not a stronger one.
  const bool p2p_sync = options_.fused_phases;
  stats.composite_work.assign(P, 0);
  stats.warp_pixels.assign(P, 0);
  std::vector<CompositeStats>& comp_stats = scratch.comp_stats;
  std::vector<double>& composite_sec = scratch.composite_sec;
  std::vector<double>& warp_sec = scratch.warp_sec;

  // Rows the inactive-edge pass will clear (0 when every partition is
  // fully active and the pass is skipped); computed here so the stat needs
  // no synchronization inside the parallel region.
  for (int p = 0; p < P; ++p) {
    stats.edge_rows_cleared +=
        static_cast<uint64_t>(std::max(0, std::min(bounds[p + 1], act_lo) - bounds[p])) +
        static_cast<uint64_t>(std::max(0, bounds[p + 1] - std::max(bounds[p], act_hi)));
  }

  // The warp below writes every final pixel, so no zero-fill is needed.
  out->resize_for_reuse(f.final_width, f.final_height);
  const Affine2D inv = f.warp.inverse();

  auto retire = [&](int self, int owner, int count) {
    if (p2p_sync) exec.sync_release(self, static_cast<uint64_t>(owner));
    if (remaining[owner].fetch_sub(count, std::memory_order_acq_rel) == count) {
      done[owner].store(true, std::memory_order_release);
      done[owner].notify_all();
    }
  };

  // Point-to-point completion wait: a short bounded spin covers the common
  // case (the producer is scanlines away from finishing), then the waiter
  // parks on the futex-backed atomic instead of burning a core yielding.
  auto wait_done = [&](int q) {
    constexpr int kSpins = 4096;
    for (int spin = 0; spin < kSpins; ++spin) {
      if (done[q].load(std::memory_order_acquire)) return;
    }
    while (!done[q].load(std::memory_order_acquire)) {
      done[q].wait(false, std::memory_order_acquire);
    }
  };

  auto process_chunk = [&](int p, const ScanlineRange& r) -> uint32_t {
    MemoryHook* hook = exec.hook(p);
    uint32_t chunk_work = 0;
    intermediate.clear_rows(r.lo, r.hi);
    for (int v = r.lo; v < r.hi; ++v) {
      const uint32_t work =
          composite_scanline(rle, f, v, intermediate, hook, &comp_stats[p]);
      chunk_work += work;
      if (profiling) {
        profile_.record(v, work);
        hook_write(hook, profile_.data() + v, sizeof(uint32_t));
      }
    }
    stats.composite_work[p] += chunk_work;
    retire(p, r.owner, r.count());
    return chunk_work;
  };

  auto clear_inactive_rows = [&](int p) {
    // Clear the never-composited rows of my partition once per frame. A
    // fully active partition has none — skip the pass outright so warm
    // frames (where the profile pins every partition inside the active
    // region) pay nothing here.
    const int lo = bounds[p], hi = bounds[p + 1];
    if (lo < act_lo || hi > act_hi) {
      intermediate.clear_rows(lo, std::min(hi, act_lo));
      intermediate.clear_rows(std::max(lo, act_hi), hi);
    }
    retire(p, p, 1);
  };

  auto composite_body = [&](int p) {
    WallTimer timer;
    clear_inactive_rows(p);
    ScanlineRange r;
    while (queues.pop_own(p, chunk, &r)) process_chunk(p, r);
    if (steal) {
      while (queues.steal(p, chunk, &r)) process_chunk(p, r);
    }
    composite_sec[p] = timer.seconds();
  };

  auto warp_body = [&](int p) {
    MemoryHook* hook = exec.hook(p);
    // Final pixels whose inverse-warped v falls in my partition; the
    // telescoping x-intervals make the partitions exactly abut (§4.5).
    // The partition covers only the *active* v-range: pixels sampling the
    // provably-empty margins (all rows < act_lo or >= act_hi are zero) are
    // background and handled below. The -1 keeps pixels whose bilinear
    // footprint straddles the first active row inside the partition.
    const int wb_lo = std::max(0, act_lo - 1);
    const int wb_hi = act_hi;
    const int v_lo = p == 0 ? wb_lo : std::clamp(bounds[p], wb_lo, wb_hi);
    const int v_hi = p == P - 1 ? wb_hi : std::clamp(bounds[p + 1], wb_lo, wb_hi);
    // Point-to-point sync replacing the global barrier (§5.5.2): wait for
    // the partitions owning the rows this region's bilinear taps read,
    // [v_lo, v_hi], and never fewer than p±1. With an empty neighbour those
    // rows belong to a partition further away. Partitions are contiguous
    // and ordered, so the owners form the index range [q_lo, q_hi].
    const auto owner = [&](int row) {
      return static_cast<int>(std::upper_bound(bounds.begin(), bounds.end(), row) -
                              bounds.begin()) - 1;
    };
    const int q_lo = std::max(0, std::min(p - 1, owner(v_lo)));
    const int q_hi = std::min(P - 1, std::max(p + 1, owner(v_hi)));
    if (fused) {
      for (int q = q_lo; q <= q_hi; ++q) wait_done(q);
    }
    if (p2p_sync) {
      // Acquire the completion of every chunk retired against the waited
      // partitions (including chunks other processors stole from them).
      for (int q = q_lo; q <= q_hi; ++q) exec.sync_acquire(p, static_cast<uint64_t>(q));
    }
    WallTimer timer;
    WarpStats ws;
    for (int y = 0; y < f.final_height; ++y) {
      int x0, x1;
      warp_x_interval(inv, y, v_lo, v_hi, f.final_width, &x0, &x1);
      if (x1 > x0) warp_scanline(intermediate, f, inv, y, x0, x1, *out, hook, &ws);
    }
    // Background pixels (sampling only empty or out-of-range scanlines)
    // are striped across processors by final-image row so no processor
    // inherits the whole border region.
    const int y0 = static_cast<int>(static_cast<int64_t>(f.final_height) * p / P);
    const int y1 = static_cast<int>(static_cast<int64_t>(f.final_height) * (p + 1) / P);
    for (int y = y0; y < y1; ++y) {
      int xa, xb;
      warp_x_interval(inv, y, wb_lo, wb_hi, f.final_width, &xa, &xb);
      Pixel8* dst = out->row(y);
      std::fill(dst, dst + xa, Pixel8{});
      std::fill(dst + xb, dst + f.final_width, Pixel8{});
      ws.pixels_written += static_cast<uint64_t>(xa + (f.final_width - xb));
      if (hook) {
        for (int x = 0; x < xa; ++x) hook_write(hook, dst + x, sizeof(Pixel8));
        for (int x = xb; x < f.final_width; ++x) hook_write(hook, dst + x, sizeof(Pixel8));
      }
    }
    stats.warp_pixels[p] = ws.pixels_written;
    warp_sec[p] = timer.seconds();
  };

  exec.begin_phase("composite");
  if (fused) {
    exec.run([&](int p) {
      composite_body(p);
      warp_body(p);
    });
  } else if (exec.concurrent()) {
    exec.run(composite_body);
    exec.begin_phase("warp");
    exec.run(warp_body);
  } else {
    // Tracing path: emulate the timing-driven stealing deterministically.
    // When fused phases are requested the boundary is not a barrier — the
    // warp's ordering comes from the sync_acquire edges above, so the race
    // detector verifies the neighbour-wait claim rather than assuming it.
    for (int p = 0; p < P; ++p) clear_inactive_rows(p);
    virtual_time_schedule(queues, P, chunk, steal, process_chunk);
    exec.begin_phase("warp", /*barrier=*/!p2p_sync);
    exec.run(warp_body);
  }

  for (const auto& cs : comp_stats) stats.composite.add(cs);
  stats.steals = queues.steals();
  stats.lock_ops = queues.lock_ops();
  for (int p = 0; p < P; ++p) {
    stats.composite_ms = std::max(stats.composite_ms, composite_sec[p] * 1e3);
    stats.warp_ms = std::max(stats.warp_ms, warp_sec[p] * 1e3);
  }

  if (profiling) {
    profile_.end_frame();
    profile_height_ = height;
  } else {
    profile_.tick_frame();
  }

  stats.total_ms = total.millis();
}

}  // namespace psw
