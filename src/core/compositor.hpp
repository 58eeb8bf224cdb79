// The compositing phase (§2): streams run-length encoded volume scanlines
// front-to-back into the intermediate image with bilinear resampling,
// skipping transparent voxel runs and opaque image pixels.
//
// The unit of work is "one intermediate-image scanline across all slices",
// because that is the task granularity of both parallel algorithms (§3.1,
// §4.1). Pixels of a scanline are composited in front-to-back slice order,
// preserving early ray termination.
//
// Two kernels implement the phase and produce bit-identical pixels, stats
// and work counts (see DESIGN.md "Kernel dispatch and fast path"):
//  - the per-pixel reference kernel, templated on the hook policy; its
//    SimHook instantiation emits the exact reference stream the simulators
//    replay, its NullHook instantiation is the branch-free baseline;
//  - the segment-batched fast path, which intersects the non-transparent
//    segments of the two source scanlines with the image's writable runs
//    and composites each overlap in a tight SIMD inner loop. It traces
//    nothing, so it only serves hook-free (real-time) rendering.
// composite_scanline dispatches once per call: SimHook kernel when a hook
// is attached, fast path otherwise. composite_scanline_reference is the
// hook-free reference kernel the golden tests and the kernel benchmarks
// compare the fast path against.
#pragma once

#include <cstdint>

#include "core/factorization.hpp"
#include "core/intermediate_image.hpp"
#include "core/rle_volume.hpp"

namespace psw {

struct CompositeStats {
  uint64_t voxels_composited = 0;  // non-transparent voxels resampled
  uint64_t pixels_visited = 0;     // intermediate pixels composited into
  uint64_t slices_touched = 0;     // (scanline, slice) pairs processed
  uint64_t scanlines = 0;          // intermediate scanlines processed

  void add(const CompositeStats& o) {
    voxels_composited += o.voxels_composited;
    pixels_visited += o.pixels_visited;
    slices_touched += o.slices_touched;
    scanlines += o.scanlines;
  }
};

// Composites every slice's contribution to intermediate scanline v,
// front-to-back. Returns the work units spent (the profile quantity of
// §4.2: a count proportional to the instructions executed for the
// scanline). `rle` must be the encoding for the factorization's principal
// axis.
uint32_t composite_scanline(const RleVolume& rle, const Factorization& f, int v,
                            IntermediateImage& img, MemoryHook* hook = nullptr,
                            CompositeStats* stats = nullptr);

// The per-pixel reference kernel, always available for A/B comparison
// regardless of the dispatch default. Bit-identical to the fast path.
uint32_t composite_scanline_reference(const RleVolume& rle, const Factorization& f,
                                      int v, IntermediateImage& img,
                                      MemoryHook* hook = nullptr,
                                      CompositeStats* stats = nullptr);

// The segment-batched SIMD fast path (hook-free by construction).
uint32_t composite_scanline_segmented(const RleVolume& rle, const Factorization& f,
                                      int v, IntermediateImage& img,
                                      CompositeStats* stats = nullptr);

// Traversal-only variant: performs all run/skip-link traversal and
// addressing but skips the resample/composite arithmetic (and therefore
// writes nothing). The difference between a normal and a traversal-only
// run is the Figure 2 "looping time vs computation" decomposition.
uint32_t composite_scanline_traversal_only(const RleVolume& rle, const Factorization& f,
                                           int v, IntermediateImage& img,
                                           MemoryHook* hook = nullptr,
                                           CompositeStats* stats = nullptr);

// True if intermediate scanline v provably receives no contribution: every
// voxel scanline it overlaps (across all slices) is empty. Used for the
// §4.2 optimization of not compositing the empty top/bottom of the
// intermediate image, with exact (not profile-guessed) emptiness.
bool scanline_provably_empty(const RleVolume& rle, const Factorization& f, int v);

// Serial compositing of the whole frame; `img` must be sized and cleared.
CompositeStats composite_frame(const RleVolume& rle, const Factorization& f,
                               IntermediateImage& img, MemoryHook* hook = nullptr);

}  // namespace psw
