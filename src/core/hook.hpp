// Memory-access hooks: the renderers report their data references (volume
// runs, voxel data, image pixels, skip links, profile counters) through
// this layer so the cache and SVM simulators can replay them.
//
// Two forms exist. The virtual MemoryHook is the runtime interface the
// trace layer implements. The static hook policies (NullHook / SimHook)
// are what the compositing and warp kernels are templated on: the NullHook
// instantiation compiles to code with no per-access branch or call at all,
// while the SimHook instantiation of the same kernel body forwards every
// real load and store to a MemoryHook — so the real-time path pays
// nothing, and the simulators trace exactly the kernels it runs. Kernels
// pick the instantiation once per call.
#pragma once

#include <cstdint>

namespace psw {

class MemoryHook {
 public:
  virtual ~MemoryHook() = default;
  virtual void access(const void* addr, uint32_t bytes, bool write) = 0;
};

// Convenience wrapper for the renderers' own stores outside the templated
// kernels (profile counters, background pixels); `hook` may be null.
inline void hook_write(MemoryHook* hook, const void* addr, uint32_t bytes) {
  if (hook) hook->access(addr, bytes, true);
}

// Static hook policy: no tracing. Empty inline members compile away
// entirely, so NullHook-instantiated kernels carry zero per-access cost.
struct NullHook {
  static constexpr bool tracing = false;
  void read(const void*, uint32_t) const {}
  void write(const void*, uint32_t) const {}
};

// Static hook policy wrapping a (non-null) MemoryHook for the simulators.
struct SimHook {
  static constexpr bool tracing = true;
  MemoryHook* sink;
  void read(const void* addr, uint32_t bytes) const { sink->access(addr, bytes, false); }
  void write(const void* addr, uint32_t bytes) const { sink->access(addr, bytes, true); }
};

}  // namespace psw
