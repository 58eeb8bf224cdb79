// Minimal portable 4-lane float SIMD wrapper for the compositing and warp
// fast paths.
//
// Backends: SSE2 (x86) and NEON (AArch64) via intrinsics, selected by the
// CMake feature probe (PSW_SIMD_SSE2 / PSW_SIMD_NEON compile definitions;
// PSW_FORCE_SCALAR_SIMD overrides both), with a scalar fallback that
// performs the same IEEE operations in the same order. Every backend is
// bit-exact with the scalar code: only lane-wise mul/add are used, no FMA
// contraction, no approximate reciprocals — which is what lets the
// SIMD-accumulating kernel stay bit-identical to the dense reference
// renderer. quantize_u8x4 is the 4-lane form of quantize_channel
// (util/image.hpp) and is exact in every backend for the same reason: a
// lane-wise clamp, one float multiply, a widening to double, one double add
// and a truncation.
#pragma once

#include <cstdint>
#include <cstring>

#if defined(PSW_FORCE_SCALAR_SIMD)
// scalar fallback
#elif defined(PSW_SIMD_SSE2) || defined(__SSE2__)
#define PSW_SIMD_BACKEND_SSE2 1
#include <emmintrin.h>
#elif defined(PSW_SIMD_NEON) || defined(__ARM_NEON)
#define PSW_SIMD_BACKEND_NEON 1
#include <arm_neon.h>
#endif

namespace psw::simd {

#if defined(PSW_SIMD_BACKEND_SSE2)

struct f32x4 {
  __m128 v;
};

// 16 classified voxels (64 bytes; opacity is byte 0 of each 4-byte voxel)
// -> bit t set iff voxel t's opacity >= threshold. Feeds the run-length
// encoder's block fast path: a uniform mask extends the current run 16
// voxels at a time. All backends produce the same mask, and the encoder
// only uses it to skip per-voxel comparisons whose outcome the mask already
// fixes, so encodings stay bit-identical to the scalar walk.
inline uint32_t opaque_mask16(const uint8_t* p, uint8_t threshold) {
  const __m128i* q = reinterpret_cast<const __m128i*>(p);
  const __m128i lo = _mm_set1_epi32(0xFF);
  const __m128i a0 = _mm_and_si128(_mm_loadu_si128(q + 0), lo);
  const __m128i a1 = _mm_and_si128(_mm_loadu_si128(q + 1), lo);
  const __m128i a2 = _mm_and_si128(_mm_loadu_si128(q + 2), lo);
  const __m128i a3 = _mm_and_si128(_mm_loadu_si128(q + 3), lo);
  // Values are <= 255, so the signed 32->16 pack is lossless.
  const __m128i bytes =
      _mm_packus_epi16(_mm_packs_epi32(a0, a1), _mm_packs_epi32(a2, a3));
  const __m128i thr = _mm_set1_epi8(static_cast<char>(threshold));
  const __m128i ge = _mm_cmpeq_epi8(_mm_max_epu8(bytes, thr), bytes);
  return static_cast<uint32_t>(_mm_movemask_epi8(ge));
}

inline f32x4 zero() { return {_mm_setzero_ps()}; }
inline f32x4 set1(float x) { return {_mm_set1_ps(x)}; }
inline f32x4 loadu(const float* p) { return {_mm_loadu_ps(p)}; }
inline void storeu(float* p, f32x4 x) { _mm_storeu_ps(p, x.v); }
inline f32x4 add(f32x4 a, f32x4 b) { return {_mm_add_ps(a.v, b.v)}; }
inline f32x4 mul(f32x4 a, f32x4 b) { return {_mm_mul_ps(a.v, b.v)}; }
// Four unsigned bytes -> four float lanes [p[0], p[1], p[2], p[3]].
inline f32x4 from_u8x4(const uint8_t* p) {
  uint32_t packed;
  std::memcpy(&packed, p, 4);
  const __m128i b = _mm_cvtsi32_si128(static_cast<int>(packed));
  const __m128i z = _mm_setzero_si128();
  const __m128i w = _mm_unpacklo_epi16(_mm_unpacklo_epi8(b, z), z);
  return {_mm_cvtepi32_ps(w)};
}
inline f32x4 broadcast0(f32x4 x) {
  return {_mm_shuffle_ps(x.v, x.v, _MM_SHUFFLE(0, 0, 0, 0))};
}
inline float lane3(f32x4 x) {
  return _mm_cvtss_f32(_mm_shuffle_ps(x.v, x.v, _MM_SHUFFLE(3, 3, 3, 3)));
}
// (a, r, g, b) -> (r, g, b, 1): aligns a ClassifiedVoxel's channels with
// the Rgba pixel layout, with a unit lane so the opacity sum rides along.
inline f32x4 rgb1_from_argb(f32x4 x) {
  const __m128 one = _mm_set1_ps(1.0f);
  const __m128 b1 = _mm_shuffle_ps(x.v, one, _MM_SHUFFLE(0, 0, 3, 3));  // b b 1 1
  return {_mm_shuffle_ps(x.v, b1, _MM_SHUFFLE(2, 0, 2, 1))};            // r g b 1
}
// Four channels -> four display bytes at p[0..3], by the quantize_channel
// rule: max/min clamp to [0,1] (NaN -> 0), *255 in float, +0.5 in double,
// truncate.
inline void quantize_u8x4(f32x4 c, uint8_t* p) {
  const __m128 x = _mm_mul_ps(
      _mm_min_ps(_mm_max_ps(c.v, _mm_setzero_ps()), _mm_set1_ps(1.0f)),
      _mm_set1_ps(255.0f));
  const __m128d half = _mm_set1_pd(0.5);
  const __m128i lo = _mm_cvttpd_epi32(_mm_add_pd(_mm_cvtps_pd(x), half));
  const __m128i hi = _mm_cvttpd_epi32(_mm_add_pd(_mm_cvtps_pd(_mm_movehl_ps(x, x)), half));
  const __m128i w = _mm_packs_epi32(_mm_unpacklo_epi64(lo, hi), _mm_setzero_si128());
  const int bytes = _mm_cvtsi128_si32(_mm_packus_epi16(w, w));
  std::memcpy(p, &bytes, 4);  // x86 is little-endian: lane 0 lands in p[0]
}

#elif defined(PSW_SIMD_BACKEND_NEON)

struct f32x4 {
  float32x4_t v;
};

// See the SSE2 backend for the contract.
inline uint32_t opaque_mask16(const uint8_t* p, uint8_t threshold) {
  const uint8x16x4_t v = vld4q_u8(p);  // val[0] deinterleaves the opacities
  const uint8x16_t ge = vcgeq_u8(v.val[0], vdupq_n_u8(threshold));
  const uint8x16_t weights = {1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t bits = vandq_u8(ge, weights);
  return static_cast<uint32_t>(vaddv_u8(vget_low_u8(bits))) |
         (static_cast<uint32_t>(vaddv_u8(vget_high_u8(bits))) << 8);
}

inline f32x4 zero() { return {vdupq_n_f32(0.0f)}; }
inline f32x4 set1(float x) { return {vdupq_n_f32(x)}; }
inline f32x4 loadu(const float* p) { return {vld1q_f32(p)}; }
inline void storeu(float* p, f32x4 x) { vst1q_f32(p, x.v); }
inline f32x4 add(f32x4 a, f32x4 b) { return {vaddq_f32(a.v, b.v)}; }
inline f32x4 mul(f32x4 a, f32x4 b) { return {vmulq_f32(a.v, b.v)}; }
inline f32x4 from_u8x4(const uint8_t* p) {
  uint32_t packed;
  std::memcpy(&packed, p, 4);
  const uint8x8_t b = vreinterpret_u8_u32(vdup_n_u32(packed));
  const uint32x4_t w = vmovl_u16(vget_low_u16(vmovl_u8(b)));
  return {vcvtq_f32_u32(w)};
}
inline f32x4 broadcast0(f32x4 x) { return {vdupq_laneq_f32(x.v, 0)}; }
inline float lane3(f32x4 x) { return vgetq_lane_f32(x.v, 3); }
inline f32x4 rgb1_from_argb(f32x4 x) {
  const float32x4_t rot = vextq_f32(x.v, x.v, 1);  // r g b a
  return {vsetq_lane_f32(1.0f, rot, 3)};           // r g b 1
}
// See the SSE2 backend; the NaN-discarding vmaxnm/vminnm match its
// max/min operand order (NaN -> 0, -0 -> +0).
inline void quantize_u8x4(f32x4 c, uint8_t* p) {
  const float32x4_t x = vmulq_f32(
      vminnmq_f32(vmaxnmq_f32(c.v, vdupq_n_f32(0.0f)), vdupq_n_f32(1.0f)),
      vdupq_n_f32(255.0f));
  const float64x2_t half = vdupq_n_f64(0.5);
  const int64x2_t lo = vcvtq_s64_f64(vaddq_f64(vcvt_f64_f32(vget_low_f32(x)), half));
  const int64x2_t hi = vcvtq_s64_f64(vaddq_f64(vcvt_high_f64_f32(x), half));
  const uint16x4_t w = vmovn_u32(vreinterpretq_u32_s32(
      vcombine_s32(vmovn_s64(lo), vmovn_s64(hi))));
  uint8_t bytes[8];
  vst1_u8(bytes, vmovn_u16(vcombine_u16(w, w)));
  std::memcpy(p, bytes, 4);
}

#else  // scalar fallback — identical operations in identical order

struct f32x4 {
  float v[4];
};

// See the SSE2 backend for the contract.
inline uint32_t opaque_mask16(const uint8_t* p, uint8_t threshold) {
  uint32_t m = 0;
  for (int t = 0; t < 16; ++t) {
    m |= static_cast<uint32_t>(p[4 * t] >= threshold) << t;
  }
  return m;
}

inline f32x4 zero() { return {{0.0f, 0.0f, 0.0f, 0.0f}}; }
inline f32x4 set1(float x) { return {{x, x, x, x}}; }
inline f32x4 loadu(const float* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void storeu(float* p, f32x4 x) {
  p[0] = x.v[0];
  p[1] = x.v[1];
  p[2] = x.v[2];
  p[3] = x.v[3];
}
inline f32x4 add(f32x4 a, f32x4 b) {
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3]}};
}
inline f32x4 mul(f32x4 a, f32x4 b) {
  return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2], a.v[3] * b.v[3]}};
}
inline f32x4 from_u8x4(const uint8_t* p) {
  return {{static_cast<float>(p[0]), static_cast<float>(p[1]),
           static_cast<float>(p[2]), static_cast<float>(p[3])}};
}
inline f32x4 broadcast0(f32x4 x) { return set1(x.v[0]); }
inline float lane3(f32x4 x) { return x.v[3]; }
inline f32x4 rgb1_from_argb(f32x4 x) { return {{x.v[1], x.v[2], x.v[3], 1.0f}}; }
// See the SSE2 backend for the contract.
inline void quantize_u8x4(f32x4 c, uint8_t* p) {
  for (int i = 0; i < 4; ++i) {
    float x = c.v[i] > 0.0f ? c.v[i] : 0.0f;
    x = x < 1.0f ? x : 1.0f;
    p[i] = static_cast<uint8_t>(static_cast<int>(static_cast<double>(x * 255.0f) + 0.5));
  }
}

#endif

}  // namespace psw::simd
