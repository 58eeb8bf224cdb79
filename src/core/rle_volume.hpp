// Run-length encoded classified volume — the coherence data structure of the
// shear-warp algorithm (§2). Three encodings are kept, one per principal
// viewing axis, each storing scanlines in the order the compositor streams
// them, which is what gives the algorithm its sequential-locality advantage.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/classify.hpp"
#include "core/hook.hpp"

namespace psw {

// Axis permutation for principal axis c: slice axis k' = c,
// scanline-in-slice axis j' = (c+2)%3, voxel-in-scanline axis i' = (c+1)%3.
struct AxisPermutation {
  int axis_i, axis_j, axis_k;

  static AxisPermutation for_principal_axis(int c) {
    return {(c + 1) % 3, (c + 2) % 3, c};
  }
  // Object-space coordinates of permuted-space point (i, j, k).
  std::array<int, 3> to_object(int i, int j, int k) const {
    std::array<int, 3> obj{};
    obj[axis_i] = i;
    obj[axis_j] = j;
    obj[axis_k] = k;
    return obj;
  }
};

// One per-axis encoding. Runs alternate transparent/non-transparent,
// starting with a (possibly zero-length) transparent run. Non-transparent
// voxels are packed contiguously in scanline order.
class RleVolume {
 public:
  RleVolume() = default;

  // Encodes the classified volume for principal axis c (0=x, 1=y, 2=z).
  // Implemented as a single chunk through the chunked encoder below, so the
  // serial and parallel preparation paths share one code path.
  static RleVolume encode(const ClassifiedVolume& vol, int principal_axis,
                          uint8_t alpha_threshold);

  // Chunked encoding, the unit of the parallel preparation pipeline: a
  // Chunk encodes one contiguous range [begin, end) of the flattened
  // permuted voxel space (index (k*nj + j)*ni + i — scanline-major, the
  // order encode() visits voxels). Chunk boundaries may fall mid-scanline;
  // each scanline piece becomes one Fragment whose runs start at the
  // piece's first voxel with no leading transparent run. stitch() walks
  // chunks in order and reassembles exactly what encode() would produce:
  // a fragment continuing its predecessor's scanline merges its first run
  // into the predecessor's last run when both have the same transparency
  // class (a run spanning a chunk seam), and a fragment opening a scanline
  // gains the conventional leading transparent run (zero-length when the
  // scanline starts opaque).
  struct Chunk {
    size_t begin = 0, end = 0;  // flattened permuted voxel range
    struct Fragment {
      uint32_t run_count = 0;
      uint32_t voxel_count = 0;   // non-transparent voxels in the piece
      bool first_opaque = false;  // class of the piece's first run
    };
    std::vector<uint16_t> runs;
    std::vector<ClassifiedVoxel> voxels;
    std::vector<Fragment> fragments;  // consecutive scanline pieces
  };
  static Chunk encode_chunk(const ClassifiedVolume& vol, int principal_axis,
                            uint8_t alpha_threshold, size_t begin, size_t end);
  // Allocation-reusing form of encode_chunk: rewrites `out` in place (its
  // run/voxel/fragment tables are cleared but keep their capacity) and
  // gathers strided lanes through `lane_buf`, which is grown as needed and
  // meant to be shared across a worker's sequential calls. Bit-identical
  // output — the lane buffer's prior contents are never read.
  static void encode_chunk_into(const ClassifiedVolume& vol, int principal_axis,
                                uint8_t alpha_threshold, size_t begin, size_t end,
                                Chunk* out, std::vector<ClassifiedVoxel>* lane_buf);
  // `chunks` must tile [0, ni*nj*nk) in order. Bit-identical to encode().
  static RleVolume stitch(const ClassifiedVolume& vol, int principal_axis,
                          uint8_t alpha_threshold, const std::vector<Chunk>& chunks);
  // Same, over the first `count` entries of a caller-owned chunk array —
  // the pooled preparation path keeps oversized (capacity-retaining) chunk
  // tables and passes the live prefix.
  static RleVolume stitch(const ClassifiedVolume& vol, int principal_axis,
                          uint8_t alpha_threshold, const Chunk* chunks, size_t count);

  // Structural equality / FNV-1a content hash over runs, voxels and offset
  // tables; pins serial-vs-parallel bit-identity in tests and benches.
  bool identical(const RleVolume& o) const;
  uint64_t content_hash() const;

  int ni() const { return ni_; }
  int nj() const { return nj_; }
  int nk() const { return nk_; }
  int principal_axis() const { return axis_; }
  const AxisPermutation& perm() const { return perm_; }
  uint8_t alpha_threshold() const { return alpha_threshold_; }

  size_t run_count() const { return runs_.size(); }
  size_t voxel_count() const { return voxels_.size(); }
  // Bytes of encoded data (runs + voxels + offsets); the paper notes the
  // encoded volume is greatly compressed relative to the dense data.
  size_t storage_bytes() const;

  bool scanline_empty(int k, int j) const {
    const size_t s = scanline_index(k, j);
    return voxel_offset_[s] == voxel_offset_[s + 1];
  }

  // Decodes one scanline to dense voxels (transparent voxels zeroed);
  // `out` must have room for ni() entries. For tests and tools.
  void decode_scanline(int k, int j, ClassifiedVoxel* out) const;

  size_t scanline_index(int k, int j) const {
    return static_cast<size_t>(k) * nj_ + j;
  }

  // Raw access for the cursor and the trace layer.
  const uint16_t* runs_at(int k, int j) const { return runs_.data() + run_offset_[scanline_index(k, j)]; }
  size_t runs_in_scanline(int k, int j) const {
    const size_t s = scanline_index(k, j);
    return run_offset_[s + 1] - run_offset_[s];
  }
  const ClassifiedVoxel* voxels_at(int k, int j) const {
    return voxels_.data() + voxel_offset_[scanline_index(k, j)];
  }

 private:
  int ni_ = 0, nj_ = 0, nk_ = 0;
  int axis_ = 2;
  AxisPermutation perm_{0, 1, 2};
  uint8_t alpha_threshold_ = 1;
  std::vector<uint16_t> runs_;
  std::vector<ClassifiedVoxel> voxels_;
  std::vector<uint64_t> run_offset_;    // per scanline, size nk*nj + 1
  std::vector<uint64_t> voxel_offset_;  // per scanline, size nk*nj + 1
};

// One maximal non-transparent segment of a scanline: voxel indices
// [start, end) with the packed voxels at `vox` (vox[i - start] is voxel i).
struct VoxelSegment {
  int start = 0;
  int end = 0;
  const ClassifiedVoxel* vox = nullptr;
};

// Iterates the non-transparent segments of one scanline in index order —
// the traversal unit of the compositing kernel. Because runs strictly
// alternate, segments are exactly the opaque runs and are separated by at
// least one transparent voxel. Out-of-range scanlines yield no segments.
// Templated on the hook policy (hook.hpp): SegmentCursor<SimHook> reports
// every run-length read, SegmentCursor<NullHook> carries no hook at all.
// Both instantiations are compiled once, in rle_volume.cpp.
template <class Hook = NullHook>
class SegmentCursor {
 public:
  SegmentCursor() = default;  // exhausted
  SegmentCursor(const RleVolume& vol, int k, int j, Hook hook = {});

  // Fills `out` with the next segment and returns true, or returns false
  // when the scanline is exhausted.
  bool next(VoxelSegment* out);

 private:
  const uint16_t* runs_ = nullptr;
  size_t num_runs_ = 0;
  const ClassifiedVoxel* vox_ = nullptr;
  size_t idx_ = 0;       // next run to inspect
  int pos_ = 0;          // voxel index where that run starts
  bool opaque_ = false;  // opacity of run idx_ (first run is transparent)
  [[no_unique_address]] Hook hook_{};
};

extern template class SegmentCursor<NullHook>;
extern template class SegmentCursor<SimHook>;

// The full shear-warp input: one encoding per principal axis.
class EncodedVolume {
 public:
  EncodedVolume() = default;
  // Encodes all three axis orderings.
  static EncodedVolume build(const ClassifiedVolume& vol, uint8_t alpha_threshold = 1);
  // Assembles from already-encoded axes (the parallel preparation path);
  // rle[c] must be the axis-c encoding of a volume with the given dims.
  static EncodedVolume from_axes(std::array<RleVolume, 3> rle, std::array<int, 3> dims,
                                 uint8_t alpha_threshold);

  uint64_t content_hash() const;

  const RleVolume& for_axis(int c) const { return rle_[c]; }
  int dim(int axis) const { return dims_[axis]; }
  uint8_t alpha_threshold() const { return alpha_threshold_; }
  size_t storage_bytes() const {
    return rle_[0].storage_bytes() + rle_[1].storage_bytes() + rle_[2].storage_bytes();
  }

 private:
  std::array<RleVolume, 3> rle_;
  std::array<int, 3> dims_{0, 0, 0};
  uint8_t alpha_threshold_ = 1;
};

}  // namespace psw
