// Persistent working set for one rendered frame, kept across frames by its
// renderer (or by a workspace several new renderers share). Both
// parallel renderers used to allocate their partition arrays, steal
// queues, completion flags and per-worker statistics afresh every frame;
// FrameScratch owns all of it across frames instead, sized to the largest
// processor count seen and reused with capacity-growing writes only — the
// steady-state render loop never touches the allocator (the paper's
// frame-to-frame coherence argument, applied to the working set itself).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/compositor.hpp"
#include "parallel/partition.hpp"
#include "parallel/steal_queue.hpp"

namespace psw {

struct FrameScratch {
  // Partition computation: cumulative profile, prefix blocks, boundaries.
  PartitionScratch part;

  // Per-processor task queues, reopened (not reconstructed) each frame.
  StealQueues queues;

  // Completion accounting for the fused composite→warp hand-off: remaining
  // scanlines plus one clear token per partition, and the futex-waitable
  // done flags. Atomics are neither movable nor copyable, so growth
  // replaces the whole array; the capacity only ever increases.
  std::unique_ptr<std::atomic<int>[]> remaining;
  std::unique_ptr<std::atomic<bool>[]> done;
  int atomic_capacity = 0;

  // Per-worker statistics and phase timers, merged after the join.
  std::vector<CompositeStats> comp_stats;
  std::vector<double> composite_sec;
  std::vector<double> warp_sec;

  // Readies the scratch for a frame with P processors: grows what must
  // grow, zeroes what the frame reads. Called single-threaded before the
  // parallel region; the executor's run() entry publishes the writes.
  void begin_frame(int procs) {
    if (atomic_capacity < procs) {
      remaining = std::make_unique<std::atomic<int>[]>(procs);
      done = std::make_unique<std::atomic<bool>[]>(procs);
      atomic_capacity = procs;
    }
    queues.reset(procs);
    comp_stats.assign(procs, CompositeStats{});
    composite_sec.assign(procs, 0.0);
    warp_sec.assign(procs, 0.0);
  }
};

}  // namespace psw
