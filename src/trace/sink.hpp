// Per-processor data-reference traces. The renderers report every logical
// data access (volume runs, voxel data, intermediate/final image pixels,
// skip links, profile counters) through MemoryHook; a TraceSet captures one
// stream per simulated processor, with synchronization-interval markers at
// phase boundaries. This substitutes for the paper's Tango-Lite reference
// generator (§3.2): data references only, no instruction fetches.
//
// Beyond the interval markers the set also records synchronization
// *structure*: global barriers (interval boundaries, executor run()
// returns) and point-to-point release/acquire pairs (the new renderer's
// neighbour completion waits, §5.5.2). The race detector in src/analyze
// rebuilds the happens-before relation from these events; the machine
// simulators ignore them.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/hook.hpp"
#include "parallel/executor.hpp"

namespace psw {

// One packed record: addr << 11 | size << 1 | is_write. The size field is
// 10 bits (up to 1023 bytes per access; the kernels' largest access is a
// 16-byte Rgba pixel), leaving 53 address bits — enough for user-space
// virtual addresses on x86-64 and AArch64.
class TraceRecord {
 public:
  static constexpr uint32_t kSizeBits = 10;
  static constexpr uint32_t kMaxSize = (1u << kSizeBits) - 1;

  TraceRecord() = default;
  TraceRecord(uint64_t addr, uint32_t size, bool write)
      : bits_((addr << (kSizeBits + 1)) |
              (static_cast<uint64_t>(size & kMaxSize) << 1) | (write ? 1u : 0u)) {
    assert(size <= kMaxSize && "access wider than the TraceRecord size field");
    assert(addr < (uint64_t{1} << (63 - kSizeBits)) && "address overflows the record");
  }

  uint64_t addr() const { return bits_ >> (kSizeBits + 1); }
  uint32_t size() const { return static_cast<uint32_t>((bits_ >> 1) & kMaxSize); }
  bool is_write() const { return bits_ & 1u; }

 private:
  uint64_t bits_ = 0;
};

// The reference stream of one simulated processor, segmented into
// synchronization intervals.
struct TraceStream {
  std::vector<TraceRecord> records;
  // interval_start[i] is the index of the first record of interval i;
  // an implicit final boundary is records.size().
  std::vector<size_t> interval_start;
};

// One synchronization event, recorded in program order. Positions are
// stream record counts at the time of the event, so an event splits each
// referenced stream into a before and an after part.
struct SyncEvent {
  enum class Kind : uint8_t {
    kBarrier,  // global: pos holds one position per processor
    kRelease,  // proc a releases under `token` at pos[0]
    kAcquire,  // proc a acquires every prior release under `token` at pos[0]
    kEdge,     // direct edge: records of a before pos[0] precede records of
               // b from pos[1] on
  };
  Kind kind = Kind::kBarrier;
  int a = -1;
  int b = -1;
  uint64_t token = 0;
  std::vector<size_t> pos;
};

class TraceSet {
 public:
  explicit TraceSet(int procs);

  int procs() const { return static_cast<int>(streams_.size()); }
  const TraceStream& stream(int p) const { return streams_[p]; }
  int intervals() const { return static_cast<int>(interval_names_.size()); }
  const std::string& interval_name(int i) const { return interval_names_[i]; }

  // Records boundaries in every stream simultaneously (phases are global in
  // the traced renderers). A `barrier` boundary carries ordering: all
  // records before it, on every processor, happen-before all records after
  // it. A non-barrier boundary only labels the interval (the new
  // renderer's fused composite→warp transition, whose ordering comes from
  // point-to-point edges instead).
  void begin_interval(const std::string& name, bool barrier = true);

  // Synchronization annotations (see SyncEvent).
  void sync_barrier();
  void sync_release(int proc, uint64_t token);
  void sync_acquire(int proc, uint64_t token);
  void sync_edge(int from_proc, int to_proc);
  const std::vector<SyncEvent>& sync_events() const { return sync_events_; }

  MemoryHook* hook(int p) { return &hooks_[p]; }

  size_t total_records() const;

  // Moves every address inside one of `ranges` ([lo, hi) each) to a fixed
  // layout: range i starts on a page of its own after range i-1, wherever
  // the allocator and ASLR placed it. The machine models index cache sets
  // and pages by address, so rebased traces simulate the same in every
  // process. Addresses outside every range are kept.
  void rebase(const std::vector<std::pair<uint64_t, uint64_t>>& ranges);
  // Records of proc p in interval i as [begin, end) indices.
  std::pair<size_t, size_t> interval_range(int p, int i) const;
  // Interval containing record index `rec` of proc p (-1 before the first
  // boundary).
  int interval_of(int p, size_t rec) const;

 private:
  class ProcHook : public MemoryHook {
   public:
    void bind(TraceSet* set, int p) {
      set_ = set;
      proc_ = p;
    }
    void access(const void* addr, uint32_t bytes, bool write) override {
      set_->streams_[proc_].records.emplace_back(
          reinterpret_cast<uint64_t>(addr), bytes, write);
    }

   private:
    TraceSet* set_ = nullptr;
    int proc_ = 0;
  };

  std::vector<TraceStream> streams_;
  std::vector<ProcHook> hooks_;
  std::vector<std::string> interval_names_;
  std::vector<SyncEvent> sync_events_;
};

// Serial executor that wires each simulated processor's hook to a TraceSet
// and forwards phase and synchronization annotations into the streams.
class TracingExecutor : public Executor {
 public:
  explicit TracingExecutor(int procs) : procs_(procs), traces_(procs) {}

  int procs() const override { return procs_; }
  bool concurrent() const override { return false; }
  void run(FunctionRef<void(int)> body) override {
    for (int p = 0; p < procs_; ++p) body(p);
    // run() returning is a global barrier on a threaded executor; record it
    // so the happens-before graph matches the claimed concurrent schedule.
    traces_.sync_barrier();
  }
  MemoryHook* hook(int p) override { return traces_.hook(p); }
  void begin_phase(const char* name, bool barrier = true) override {
    traces_.begin_interval(name, barrier);
  }
  void sync_release(int proc, uint64_t token) override {
    traces_.sync_release(proc, token);
  }
  void sync_acquire(int proc, uint64_t token) override {
    traces_.sync_acquire(proc, token);
  }
  void sync_edge(int from_proc, int to_proc) override {
    traces_.sync_edge(from_proc, to_proc);
  }

  TraceSet& traces() { return traces_; }
  const TraceSet& traces() const { return traces_; }

 private:
  int procs_;
  TraceSet traces_;
};

}  // namespace psw
