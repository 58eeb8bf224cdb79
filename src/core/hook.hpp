// Memory-access hooks: the renderers report their data references (volume
// runs, voxel data, image pixels, skip links) through this layer so the
// cache and SVM simulators can replay them.
//
// Two forms exist. The virtual MemoryHook is the runtime interface the
// trace layer implements. The static hook policies (NullHook / SimHook)
// are what the kernels are templated on: a kernel instantiated
// with NullHook compiles to code with no per-access branch or call at all,
// while the SimHook instantiation forwards every access to a MemoryHook
// with the exact same call sites — so the real-time path pays nothing and
// the simulated path produces the same reference stream it always did.
// Kernels dispatch between the two instantiations once per call.
#pragma once

#include <cstdint>

namespace psw {

class MemoryHook {
 public:
  virtual ~MemoryHook() = default;
  virtual void access(const void* addr, uint32_t bytes, bool write) = 0;
};

// Convenience wrappers used outside the templated kernels; `hook` may be
// null.
inline void hook_read(MemoryHook* hook, const void* addr, uint32_t bytes) {
  if (hook) hook->access(addr, bytes, false);
}
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
