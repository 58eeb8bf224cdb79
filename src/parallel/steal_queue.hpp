// Per-processor task queues with work stealing, shared by both parallel
// renderers. The old algorithm seeds each queue with interleaved chunks of
// scanlines (§3.1); the new algorithm seeds one contiguous partition per
// processor and steals chunks from the back (§4.4).
//
// Memory-ordering audit: every atomic here is memory_order_relaxed on
// purpose. Queue *contents* are ordered by the per-queue mutex; the atomics
// fall into two classes that need no ordering of their own:
//   - approx_remaining: a victim-selection heuristic. A stale read can only
//     pick a worse victim; correctness is restored by the locked rescan.
//   - lock_ops_ / steals_: statistics, read after the parallel region has
//     joined (the executor's run() return is a barrier).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "util/sync.hpp"

namespace psw {

// A contiguous range of intermediate-image scanlines [lo, hi), tagged with
// the processor whose partition it came from (for completion accounting).
struct ScanlineRange {
  int lo = 0;
  int hi = 0;
  int owner = 0;

  int count() const { return hi - lo; }
  bool empty() const { return hi <= lo; }
};

class StealQueues {
 public:
  StealQueues() : lock_ops_(0), steals_(0) {}
  explicit StealQueues(int procs) : StealQueues() { reset(procs); }

  // Reopens the queues for a new frame with `procs` processors: grows the
  // per-processor storage if needed (grow-only, queues are pinned in place
  // by the deque), empties every active queue and zeroes the statistics.
  // Single-threaded, like seeding — called between parallel regions.
  void reset(int procs) {
    while (static_cast<int>(queues_.size()) < procs) queues_.emplace_back();
    procs_ = procs;
    for (int p = 0; p < procs_; ++p) {
      Queue& q = queues_[static_cast<size_t>(p)];
      MutexLock lock(q.mutex);
      q.ranges.clear();
      q.head = 0;
      // relaxed: reset precedes the parallel region; the executor's run()
      // entry publishes the zeroed counters to the workers.
      q.approx_remaining.store(0, std::memory_order_relaxed);
    }
    lock_ops_.store(0, std::memory_order_relaxed);  // relaxed: see above
    steals_.store(0, std::memory_order_relaxed);    // relaxed: see above
  }

  int procs() const { return procs_; }

  // Seeds before the parallel region begins (no locking needed then, but we
  // lock anyway for simplicity; the renderers call this single-threaded).
  void push(int p, ScanlineRange range) {
    if (range.empty()) return;
    Queue& q = queues_[static_cast<size_t>(p)];
    MutexLock lock(q.mutex);
    q.ranges.push_back(range);
    // relaxed: heuristic counter, mutated under the queue mutex anyway.
    q.approx_remaining.fetch_add(range.count(), std::memory_order_relaxed);
  }

  // Takes up to `chunk` scanlines from the front of p's own queue.
  bool pop_own(int p, int chunk, ScanlineRange* out) {
    Queue& q = queues_[static_cast<size_t>(p)];
    MutexLock lock(q.mutex);
    lock_ops_.fetch_add(1, std::memory_order_relaxed);  // relaxed: statistic
    if (q.empty()) return false;
    ScanlineRange& front = q.ranges[q.head];
    *out = {front.lo, std::min(front.hi, front.lo + chunk), front.owner};
    front.lo = out->hi;
    if (front.empty()) ++q.head;
    // relaxed: heuristic counter, mutated under the queue mutex anyway.
    q.approx_remaining.fetch_sub(out->count(), std::memory_order_relaxed);
    return true;
  }

  // Steals up to `chunk` scanlines from the back of the fullest victim
  // queue. Returns false when every queue is empty.
  bool steal(int thief, int chunk, ScanlineRange* out) {
    const int n = procs();
    // Pick the victim with the most remaining work.
    int victim = -1, best = 0;
    for (int i = 0; i < n; ++i) {
      if (i == thief) continue;
      // relaxed: racy read is fine — a stale value only picks a worse
      // victim, and the locked rescan below recovers from an empty choice.
      const int remaining = queues_[i].approx_remaining.load(std::memory_order_relaxed);
      if (remaining > best) {
        best = remaining;
        victim = i;
      }
    }
    if (victim < 0) {
      // Fall back to a scan; approx counters may lag.
      for (int d = 1; d < n; ++d) {
        const int i = (thief + d) % n;
        if (try_steal_from(i, chunk, out)) {
          steals_.fetch_add(1, std::memory_order_relaxed);  // relaxed: statistic
          return true;
        }
      }
      return false;
    }
    if (try_steal_from(victim, chunk, out)) {
      steals_.fetch_add(1, std::memory_order_relaxed);  // relaxed: statistic
      return true;
    }
    // Victim raced to empty; rescan everyone once.
    for (int d = 1; d < n; ++d) {
      const int i = (thief + d) % n;
      if (try_steal_from(i, chunk, out)) {
        steals_.fetch_add(1, std::memory_order_relaxed);  // relaxed: statistic
        return true;
      }
    }
    return false;
  }

  // relaxed: statistics, only read after the parallel region has joined.
  uint64_t lock_ops() const { return lock_ops_.load(std::memory_order_relaxed); }
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

 private:
  // Per-queue lock protocol: `mutex` orders the queue contents; the atomic
  // victim-selection counter deliberately rides outside it (see the audit
  // note at the top of this file). The live ranges are [head, size): the
  // owner pops from the front by advancing `head`, thieves pop the back.
  // Ranges are pushed only while seeding and the vector keeps its capacity
  // across frames, so a warm frame allocates nothing (a deque would walk
  // through its nodes as the front advances, allocating one every few
  // dozen frames).
  struct Queue {
    Mutex mutex;
    std::vector<ScanlineRange> ranges PSW_GUARDED_BY(mutex);
    size_t head PSW_GUARDED_BY(mutex) = 0;
    std::atomic<int> approx_remaining{0};

    bool empty() const PSW_REQUIRES(mutex) { return head == ranges.size(); }
  };

  bool try_steal_from(int victim, int chunk, ScanlineRange* out) {
    Queue& q = queues_[static_cast<size_t>(victim)];
    MutexLock lock(q.mutex);
    lock_ops_.fetch_add(1, std::memory_order_relaxed);  // relaxed: statistic
    if (q.empty()) return false;
    ScanlineRange& back = q.ranges.back();
    *out = {std::max(back.lo, back.hi - chunk), back.hi, back.owner};
    back.hi = out->lo;
    if (back.empty()) q.ranges.pop_back();
    // relaxed: heuristic counter, mutated under the queue mutex anyway.
    q.approx_remaining.fetch_sub(out->count(), std::memory_order_relaxed);
    return true;
  }

  // Deque, not vector: Queue is pinned by its Mutex/atomic (non-movable),
  // and deque growth never relocates existing elements — so reset() can
  // grow the storage across frames while reusing every existing queue's
  // range storage (steady-state seeding allocates nothing).
  std::deque<Queue> queues_;
  int procs_ = 0;
  std::atomic<uint64_t> lock_ops_;
  std::atomic<uint64_t> steals_;
};

}  // namespace psw
