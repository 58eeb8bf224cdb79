// Process-wide heap-allocation probe for the serving allocation gates
// (test_net) and perfbench, in the spirit of src/memsim's working-set
// methodology applied one layer up: the interesting cost of the serving
// path is not cycles but allocator traffic and copies per frame, so both
// count them directly. Linking
// alloc_probe.cpp into a binary replaces the global operator new/delete
// with counting wrappers (malloc-backed, all variants); alloc_snapshot()
// then reads the counters, and a before/after pair brackets any region of
// interest. Counters are relaxed atomics — cheap enough to leave on for a
// whole benchmark and exact for quiesced regions.
#pragma once

#include <cstdint>

namespace psw::tools {

struct AllocSnapshot {
  uint64_t allocations = 0;  // operator new calls
  uint64_t frees = 0;        // operator delete calls (with a live pointer)
  uint64_t bytes = 0;        // total bytes requested
};

// Current totals since process start.
AllocSnapshot alloc_snapshot();

// Totals accumulated after `since` (fields subtract independently).
AllocSnapshot alloc_delta(const AllocSnapshot& since);

}  // namespace psw::tools
