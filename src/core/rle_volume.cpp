#include "core/rle_volume.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <memory>

#include "util/simd.hpp"

namespace psw {

namespace {

// FNV-1a, byte-wise over a POD span.
uint64_t fnv1a(uint64_t h, const void* data, size_t bytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

// Unit-stride run builder for `n` contiguous voxels, appending one
// Fragment. 16-voxel blocks are classified at once by a SIMD opacity mask;
// a block uniformly on the current run's side extends it (and bulk-copies
// its voxels when opaque) with no per-voxel work — on the 70-95%
// transparent volumes the paper targets, runs are long and almost every
// block takes this path. Mixed blocks replay the mask bit by bit through
// the same state machine as the scalar walk, so the emitted runs, voxels,
// and fragment are exactly the scalar encoder's.
void encode_line(const ClassifiedVoxel* base, size_t n, uint8_t threshold,
                 RleVolume::Chunk& out) {
  RleVolume::Chunk::Fragment frag;
  const bool first = !base[0].transparent(threshold);
  frag.first_opaque = first;
  bool cur = first;
  uint32_t len = 0;
  size_t i = 0;
  while (n - i >= 16) {
    const uint32_t m =
        simd::opaque_mask16(reinterpret_cast<const uint8_t*>(base + i), threshold);
    if (m == 0xFFFFu && cur) {
      len += 16;
      out.voxels.insert(out.voxels.end(), base + i, base + i + 16);
      frag.voxel_count += 16;
    } else if (m == 0 && !cur) {
      len += 16;
    } else {
      for (size_t t = 0; t < 16; ++t) {
        const bool opaque = (m >> t) & 1u;
        if (opaque != cur) {
          out.runs.push_back(static_cast<uint16_t>(len));
          ++frag.run_count;
          cur = opaque;
          len = 0;
        }
        ++len;
        if (opaque) {
          out.voxels.push_back(base[i + t]);
          ++frag.voxel_count;
        }
      }
    }
    i += 16;
  }
  for (; i < n; ++i) {
    const bool opaque = !base[i].transparent(threshold);
    if (opaque != cur) {
      out.runs.push_back(static_cast<uint16_t>(len));
      ++frag.run_count;
      cur = opaque;
      len = 0;
    }
    ++len;
    if (opaque) {
      out.voxels.push_back(base[i]);
      ++frag.voxel_count;
    }
  }
  out.runs.push_back(static_cast<uint16_t>(len));
  ++frag.run_count;
  out.fragments.push_back(frag);
}

// Scalar encoder for the piece [i0, i1) of one scanline. `base` is the
// scanline's first voxel; consecutive i step the dense array by `step`.
// Appends one Fragment. Unit-stride pieces take the block-mask path.
void encode_piece(const ClassifiedVoxel* base, size_t step, size_t i0, size_t i1,
                  uint8_t threshold, RleVolume::Chunk& out) {
  if (step == 1 && i1 > i0) {
    encode_line(base + i0, i1 - i0, threshold, out);
    return;
  }
  RleVolume::Chunk::Fragment frag;
  const ClassifiedVoxel* p = base + i0 * step;
  bool cur_opaque = false;
  uint32_t cur_len = 0;
  for (size_t i = i0; i < i1; ++i, p += step) {
    const ClassifiedVoxel& cv = *p;
    const bool opaque = !cv.transparent(threshold);
    if (i == i0) {
      frag.first_opaque = opaque;
      cur_opaque = opaque;
    } else if (opaque != cur_opaque) {
      out.runs.push_back(static_cast<uint16_t>(cur_len));
      ++frag.run_count;
      cur_opaque = opaque;
      cur_len = 0;
    }
    ++cur_len;
    if (opaque) {
      out.voxels.push_back(cv);
      ++frag.voxel_count;
    }
  }
  out.runs.push_back(static_cast<uint16_t>(cur_len));
  ++frag.run_count;
  out.fragments.push_back(frag);
}

constexpr size_t kLanes = 16;  // 16 x 4-byte voxels = one cache line per fetch

// The two strided axis orderings walk scanlines whose starting addresses are
// CONTIGUOUS in memory, `kLanes` at a time ("lanes"): one cache-line fetch
// of p[0..15] feeds every lane where the scalar walk paid a miss per voxel.
// This copies `tn` lanes of an i-strided walk into contiguous per-lane
// buffers (lane t at dst + t*dst_stride); the branchy run-building then
// streams over warm unit-stride memory instead of the cold strided source.
void gather_lanes(const ClassifiedVoxel* base, size_t step_i, size_t n, size_t tn,
                  ClassifiedVoxel* dst, size_t dst_stride) {
  const ClassifiedVoxel* p = base;
  size_t i = 0;
#if defined(PSW_SIMD_BACKEND_SSE2)
  // Full 16-lane tiles transpose in registers, 4 i-rows x 4 lanes at a
  // time: the per-lane writes become contiguous 16-byte stores instead of
  // 16 interleaved 4-byte streams (which overwhelm the core's fill
  // buffers). shufps/unpcklps only move bits, so the copy is exact.
  if (tn == kLanes) {
    for (; i + 4 <= n; i += 4, p += 4 * step_i) {
      const float* r0 = reinterpret_cast<const float*>(p);
      const float* r1 = reinterpret_cast<const float*>(p + step_i);
      const float* r2 = reinterpret_cast<const float*>(p + 2 * step_i);
      const float* r3 = reinterpret_cast<const float*>(p + 3 * step_i);
      for (size_t g = 0; g < 4; ++g) {
        __m128 a = _mm_loadu_ps(r0 + 4 * g);
        __m128 b = _mm_loadu_ps(r1 + 4 * g);
        __m128 c = _mm_loadu_ps(r2 + 4 * g);
        __m128 d = _mm_loadu_ps(r3 + 4 * g);
        _MM_TRANSPOSE4_PS(a, b, c, d);
        float* o = reinterpret_cast<float*>(dst + i) + 4 * g * dst_stride;
        _mm_storeu_ps(o, a);
        _mm_storeu_ps(o + dst_stride, b);
        _mm_storeu_ps(o + 2 * dst_stride, c);
        _mm_storeu_ps(o + 3 * dst_stride, d);
      }
    }
  }
#endif
  for (; i < n; ++i, p += step_i) {
    ClassifiedVoxel* d = dst + i;
    for (size_t t = 0; t < tn; ++t, d += dst_stride) *d = p[t];
  }
}

// Tiled encoder for the axis ordering whose j axis is the unit-stride
// object axis: scanlines (k, j0..j0+tn) are lanes. A tile's gather buffer
// is kLanes scanlines (L1-resident), encoded in j order right away.
void encode_jtile(const ClassifiedVoxel* data, size_t step_i, size_t step_k, size_t ni,
                  size_t k, size_t jlo, size_t jhi, uint8_t threshold,
                  ClassifiedVoxel* buf, RleVolume::Chunk& out) {
  for (size_t j0 = jlo; j0 < jhi; j0 += kLanes) {
    const size_t tn = std::min(kLanes, jhi - j0);
    gather_lanes(data + k * step_k + j0, step_i, ni, tn, buf, ni);
    for (size_t t = 0; t < tn; ++t) {
      encode_piece(buf + t * ni, 1, 0, ni, threshold, out);
    }
  }
}

// Tiled encoder for the axis ordering whose k axis is the unit-stride
// object axis. Lanes are k values, but scanline order puts ALL of a k's
// scanlines before the next k, so a tile gathers kLanes whole k-slices
// (lane t's slice contiguous at buf + t*ni*nj) before encoding slice by
// slice. Only fully covered ks tile; callers feed partial edge ks to the
// scalar path.
void encode_ktile(const ClassifiedVoxel* data, size_t step_i, size_t step_j, size_t ni,
                  size_t nj, size_t klo, size_t khi, uint8_t threshold,
                  ClassifiedVoxel* buf, RleVolume::Chunk& out) {
  const size_t slice = ni * nj;
  for (size_t k0 = klo; k0 < khi; k0 += kLanes) {
    const size_t tn = std::min(kLanes, khi - k0);
    for (size_t j = 0; j < nj; ++j) {
      gather_lanes(data + j * step_j + k0, step_i, ni, tn, buf + j * ni, slice);
    }
    for (size_t t = 0; t < tn; ++t) {
      for (size_t j = 0; j < nj; ++j) {
        encode_piece(buf + t * slice + j * ni, 1, 0, ni, threshold, out);
      }
    }
  }
}

}  // namespace

RleVolume::Chunk RleVolume::encode_chunk(const ClassifiedVolume& vol, int principal_axis,
                                         uint8_t alpha_threshold, size_t begin,
                                         size_t end) {
  Chunk out;
  std::vector<ClassifiedVoxel> lane_buf;
  encode_chunk_into(vol, principal_axis, alpha_threshold, begin, end, &out, &lane_buf);
  return out;
}

void RleVolume::encode_chunk_into(const ClassifiedVolume& vol, int principal_axis,
                                  uint8_t alpha_threshold, size_t begin, size_t end,
                                  Chunk* outp, std::vector<ClassifiedVoxel>* lane_buf) {
  const AxisPermutation perm = AxisPermutation::for_principal_axis(principal_axis);
  const size_t ni = static_cast<size_t>(vol.dim(perm.axis_i));
  const size_t nj = static_cast<size_t>(vol.dim(perm.axis_j));

  // Object-space strides of the permuted axes (x fastest, then y, then z):
  // walking i/j/k in permuted space steps the dense array by these, reading
  // exactly the voxels encode() visits, without a per-voxel index rebuild.
  const size_t stride[3] = {1, static_cast<size_t>(vol.nx()),
                            static_cast<size_t>(vol.nx()) * vol.ny()};
  const size_t step_i = stride[perm.axis_i];
  const size_t step_j = stride[perm.axis_j];
  const size_t step_k = stride[perm.axis_k];

  Chunk& out = *outp;
  out.runs.clear();
  out.voxels.clear();
  out.fragments.clear();
  out.begin = begin;
  out.end = end;
  if (begin >= end || ni == 0) return;
  const ClassifiedVoxel* data = vol.data();
  const auto scanline_base = [&](size_t s) {
    return data + (s / nj) * step_k + (s % nj) * step_j;
  };

  size_t v = begin;
  // Head: partial leading scanline (a chunk boundary mid-scanline).
  if (v % ni != 0) {
    const size_t i0 = v % ni;
    const size_t i1 = std::min(ni, i0 + (end - v));
    encode_piece(scanline_base(v / ni), step_i, i0, i1, alpha_threshold, out);
    v += i1 - i0;
  }
  // Middle: the run of complete scanlines, encoded with the cache layout
  // each axis ordering calls for.
  const size_t full_end = end - end % ni;
  if (v < full_end) {
    const size_t s0 = v / ni;
    const size_t s1 = full_end / ni;
    if (step_i == 1) {
      // Scanlines are contiguous in memory: the scalar walk streams.
      for (size_t s = s0; s < s1; ++s) {
        encode_piece(scanline_base(s), 1, 0, ni, alpha_threshold, out);
      }
    } else if (step_j == 1) {
      if (lane_buf->size() < kLanes * ni) lane_buf->resize(kLanes * ni);
      const size_t k_first = s0 / nj, k_last = (s1 - 1) / nj;
      for (size_t k = k_first; k <= k_last; ++k) {
        const size_t jlo = k == k_first ? s0 % nj : 0;
        const size_t jhi = k == k_last ? (s1 - 1) % nj + 1 : nj;
        encode_jtile(data, step_i, step_k, ni, k, jlo, jhi, alpha_threshold,
                     lane_buf->data(), out);
      }
    } else {
      // step_k == 1: only fully covered ks tile; the partial first/last k
      // fall back to the scalar walk (at most two per chunk).
      if (lane_buf->size() < kLanes * ni * nj) lane_buf->resize(kLanes * ni * nj);
      const size_t k_first = s0 / nj, k_last = (s1 - 1) / nj;
      size_t klo = k_first, khi = k_last + 1;
      if (s0 % nj != 0) {  // leading partial k
        const size_t jhi = k_first == k_last ? (s1 - 1) % nj + 1 : nj;
        for (size_t j = s0 % nj; j < jhi; ++j) {
          encode_piece(data + j * step_j + k_first, step_i, 0, ni, alpha_threshold, out);
        }
        klo = k_first + 1;
      }
      const bool trailing_partial = s1 % nj != 0 && khi > klo;
      if (trailing_partial) --khi;
      if (klo < khi) {
        encode_ktile(data, step_i, step_j, ni, nj, klo, khi, alpha_threshold,
                     lane_buf->data(), out);
      }
      if (trailing_partial) {
        for (size_t j = 0; j < s1 % nj; ++j) {
          encode_piece(data + j * step_j + k_last, step_i, 0, ni, alpha_threshold, out);
        }
      }
    }
    v = full_end;
  }
  // Tail: partial trailing scanline.
  if (v < end) {
    encode_piece(scanline_base(v / ni), step_i, 0, end - v, alpha_threshold, out);
  }
}

RleVolume RleVolume::stitch(const ClassifiedVolume& vol, int principal_axis,
                            uint8_t alpha_threshold, const std::vector<Chunk>& chunks) {
  return stitch(vol, principal_axis, alpha_threshold, chunks.data(), chunks.size());
}

RleVolume RleVolume::stitch(const ClassifiedVolume& vol, int principal_axis,
                            uint8_t alpha_threshold, const Chunk* chunks, size_t count) {
  RleVolume r;
  r.axis_ = principal_axis;
  r.perm_ = AxisPermutation::for_principal_axis(principal_axis);
  r.alpha_threshold_ = alpha_threshold;
  r.ni_ = vol.dim(r.perm_.axis_i);
  r.nj_ = vol.dim(r.perm_.axis_j);
  r.nk_ = vol.dim(r.perm_.axis_k);

  const size_t scanlines = static_cast<size_t>(r.nk_) * r.nj_;
  r.run_offset_.reserve(scanlines + 1);
  r.voxel_offset_.reserve(scanlines + 1);
  r.run_offset_.push_back(0);
  r.voxel_offset_.push_back(0);

  if (r.ni_ == 0) {
    // Degenerate scanlines still carry their conventional (empty)
    // transparent run each, as the per-scanline encoder produced.
    for (size_t s = 0; s < scanlines; ++s) {
      r.runs_.push_back(0);
      r.run_offset_.push_back(r.runs_.size());
      r.voxel_offset_.push_back(0);
    }
    return r;
  }

  size_t total_runs = 0, total_voxels = 0;
  for (size_t ci = 0; ci < count; ++ci) {
    total_runs += chunks[ci].runs.size();
    total_voxels += chunks[ci].voxels.size();
  }
  r.runs_.reserve(total_runs + scanlines);  // + possible leading zero runs
  r.voxels_.reserve(total_voxels);

  bool line_open = false;
  bool last_opaque = false;  // class of the last appended run of the open line
  for (size_t ci = 0; ci < count; ++ci) {
    const Chunk& c = chunks[ci];
    size_t run_pos = 0, vox_pos = 0;
    const bool continues_line = (c.begin % static_cast<size_t>(r.ni_)) != 0;
    for (size_t f = 0; f < c.fragments.size(); ++f) {
      const Chunk::Fragment& fr = c.fragments[f];
      const auto runs_begin = c.runs.begin() + static_cast<ptrdiff_t>(run_pos);
      if (f == 0 && continues_line) {
        // Seam: the fragment continues the open scanline. A run spanning
        // the seam (same class on both sides) must merge to reproduce the
        // single-pass encoding exactly.
        if (fr.first_opaque == last_opaque) {
          r.runs_.back() = static_cast<uint16_t>(r.runs_.back() + c.runs[run_pos]);
          r.runs_.insert(r.runs_.end(), runs_begin + 1,
                         runs_begin + static_cast<ptrdiff_t>(fr.run_count));
        } else {
          r.runs_.insert(r.runs_.end(), runs_begin,
                         runs_begin + static_cast<ptrdiff_t>(fr.run_count));
        }
      } else {
        if (line_open) {
          r.run_offset_.push_back(r.runs_.size());
          r.voxel_offset_.push_back(r.voxels_.size());
        }
        line_open = true;
        // By convention a scanline's first run is transparent (possibly
        // zero-length).
        if (fr.first_opaque) r.runs_.push_back(0);
        r.runs_.insert(r.runs_.end(), runs_begin,
                       runs_begin + static_cast<ptrdiff_t>(fr.run_count));
      }
      last_opaque = (fr.run_count % 2 == 1) ? fr.first_opaque : !fr.first_opaque;
      const auto vox_begin = c.voxels.begin() + static_cast<ptrdiff_t>(vox_pos);
      r.voxels_.insert(r.voxels_.end(), vox_begin,
                       vox_begin + static_cast<ptrdiff_t>(fr.voxel_count));
      run_pos += fr.run_count;
      vox_pos += fr.voxel_count;
    }
  }
  if (line_open) {
    r.run_offset_.push_back(r.runs_.size());
    r.voxel_offset_.push_back(r.voxels_.size());
  }
  return r;
}

RleVolume RleVolume::encode(const ClassifiedVolume& vol, int principal_axis,
                            uint8_t alpha_threshold) {
  const AxisPermutation perm = AxisPermutation::for_principal_axis(principal_axis);
  const size_t total = static_cast<size_t>(vol.dim(perm.axis_i)) *
                       vol.dim(perm.axis_j) * vol.dim(perm.axis_k);
  std::vector<Chunk> chunks;
  if (total > 0) {
    chunks.push_back(encode_chunk(vol, principal_axis, alpha_threshold, 0, total));
  }
  return stitch(vol, principal_axis, alpha_threshold, chunks);
}

bool RleVolume::identical(const RleVolume& o) const {
  return ni_ == o.ni_ && nj_ == o.nj_ && nk_ == o.nk_ && axis_ == o.axis_ &&
         alpha_threshold_ == o.alpha_threshold_ && runs_ == o.runs_ &&
         run_offset_ == o.run_offset_ && voxel_offset_ == o.voxel_offset_ &&
         voxels_.size() == o.voxels_.size() &&
         (voxels_.empty() ||
          std::memcmp(voxels_.data(), o.voxels_.data(),
                      voxels_.size() * sizeof(ClassifiedVoxel)) == 0);
}

uint64_t RleVolume::content_hash() const {
  uint64_t h = kFnvBasis;
  const int32_t dims[5] = {ni_, nj_, nk_, axis_, alpha_threshold_};
  h = fnv1a(h, dims, sizeof(dims));
  h = fnv1a(h, runs_.data(), runs_.size() * sizeof(uint16_t));
  h = fnv1a(h, voxels_.data(), voxels_.size() * sizeof(ClassifiedVoxel));
  h = fnv1a(h, run_offset_.data(), run_offset_.size() * sizeof(uint64_t));
  h = fnv1a(h, voxel_offset_.data(), voxel_offset_.size() * sizeof(uint64_t));
  return h;
}

size_t RleVolume::storage_bytes() const {
  return runs_.size() * sizeof(uint16_t) + voxels_.size() * sizeof(ClassifiedVoxel) +
         (run_offset_.size() + voxel_offset_.size()) * sizeof(uint64_t);
}

void RleVolume::decode_scanline(int k, int j, ClassifiedVoxel* out) const {
  std::fill(out, out + ni_, ClassifiedVoxel{});
  SegmentCursor<> cur(*this, k, j);
  VoxelSegment seg;
  while (cur.next(&seg)) {
    std::memcpy(out + seg.start, seg.vox,
                sizeof(ClassifiedVoxel) * (seg.end - seg.start));
  }
}

template <class Hook>
SegmentCursor<Hook>::SegmentCursor(const RleVolume& vol, int k, int j, Hook hook)
    : hook_(hook) {
  if (j < 0 || j >= vol.nj() || k < 0 || k >= vol.nk()) return;  // no segments
  if (vol.scanline_empty(k, j)) return;
  runs_ = vol.runs_at(k, j);
  num_runs_ = vol.runs_in_scanline(k, j);
  vox_ = vol.voxels_at(k, j);
}

template <class Hook>
bool SegmentCursor<Hook>::next(VoxelSegment* out) {
  while (idx_ < num_runs_) {
    hook_.read(runs_ + idx_, sizeof(uint16_t));
    const int len = runs_[idx_];
    const int start = pos_;
    const bool opaque = opaque_;
    pos_ += len;
    opaque_ = !opaque_;
    ++idx_;
    if (opaque && len > 0) {
      out->start = start;
      out->end = start + len;
      out->vox = vox_;
      vox_ += len;
      return true;
    }
  }
  return false;
}

template class SegmentCursor<NullHook>;
template class SegmentCursor<SimHook>;

EncodedVolume EncodedVolume::build(const ClassifiedVolume& vol, uint8_t alpha_threshold) {
  EncodedVolume e;
  e.alpha_threshold_ = alpha_threshold;
  e.dims_ = {vol.nx(), vol.ny(), vol.nz()};
  for (int c = 0; c < 3; ++c) e.rle_[c] = RleVolume::encode(vol, c, alpha_threshold);
  return e;
}

EncodedVolume EncodedVolume::from_axes(std::array<RleVolume, 3> rle,
                                       std::array<int, 3> dims, uint8_t alpha_threshold) {
  EncodedVolume e;
  e.alpha_threshold_ = alpha_threshold;
  e.dims_ = dims;
  e.rle_ = std::move(rle);
  return e;
}

uint64_t EncodedVolume::content_hash() const {
  uint64_t h = kFnvBasis;
  const int32_t dims[4] = {dims_[0], dims_[1], dims_[2], alpha_threshold_};
  h = fnv1a(h, dims, sizeof(dims));
  for (int c = 0; c < 3; ++c) {
    const uint64_t hc = rle_[c].content_hash();
    h = fnv1a(h, &hc, sizeof(hc));
  }
  return h;
}

}  // namespace psw
