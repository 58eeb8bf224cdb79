#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/classify.hpp"
#include "core/compositor.hpp"
#include "core/factorization.hpp"
#include "core/intermediate_image.hpp"
#include "core/rle_volume.hpp"
#include "core/warp.hpp"
#include "phantom/phantom.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace psw {
namespace {

// A factorization with a controlled warp for isolated warp tests.
Factorization make_fact(int iw, int ih, const Affine2D& warp, int fw, int fh) {
  Factorization f;
  f.intermediate_width = iw;
  f.intermediate_height = ih;
  f.warp = warp;
  f.final_width = fw;
  f.final_height = fh;
  return f;
}

TEST(Warp, IdentityWarpCopiesQuantized) {
  IntermediateImage src(8, 8);
  SplitMix64 rng(3);
  for (int v = 0; v < 8; ++v) {
    for (int u = 0; u < 8; ++u) {
      src.pixel(u, v) = Rgba{static_cast<float>(rng.uniform()),
                             static_cast<float>(rng.uniform()),
                             static_cast<float>(rng.uniform()), 1.0f};
    }
  }
  const Factorization f = make_fact(8, 8, Affine2D{}, 8, 8);
  ImageU8 out(8, 8);
  warp_frame(src, f, out);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      EXPECT_EQ(out.at(x, y), quantize8(src.pixel(x, y))) << x << "," << y;
    }
  }
}

TEST(Warp, TranslationShiftsContent) {
  IntermediateImage src(8, 8);
  src.pixel(2, 3) = Rgba{1, 0, 0, 1};
  Affine2D warp;  // out = in + (3, 2)
  warp.bx = 3;
  warp.by = 2;
  const Factorization f = make_fact(8, 8, warp, 12, 12);
  ImageU8 out(12, 12);
  warp_frame(src, f, out);
  EXPECT_EQ(out.at(5, 5).r, 255);
  EXPECT_EQ(out.at(2, 3).r, 0);
}

TEST(Warp, HalfPixelTranslationInterpolates) {
  IntermediateImage src(8, 1);
  src.pixel(3, 0) = Rgba{1, 1, 1, 1};
  Affine2D warp;
  warp.bx = 0.5;
  const Factorization f = make_fact(8, 1, warp, 8, 1);
  ImageU8 out(8, 1);
  warp_frame(src, f, out);
  // The unit impulse spreads evenly over pixels 3 and 4.
  EXPECT_EQ(out.at(3, 0).r, 128);
  EXPECT_EQ(out.at(4, 0).r, 128);
}

TEST(Warp, OutOfRangePixelsAreBackground) {
  IntermediateImage src(4, 4);
  for (int v = 0; v < 4; ++v) {
    for (int u = 0; u < 4; ++u) src.pixel(u, v) = Rgba{1, 1, 1, 1};
  }
  Affine2D warp;
  warp.bx = 10;  // content lands at x in [10, 14)
  const Factorization f = make_fact(4, 4, warp, 20, 4);
  ImageU8 out(20, 4);
  warp_frame(src, f, out);
  EXPECT_EQ(out.at(0, 0), Pixel8{});
  EXPECT_EQ(out.at(19, 0), Pixel8{});
  EXPECT_EQ(out.at(11, 1).r, 255);
}

TEST(Warp, RotationPreservesTotalEnergyApproximately) {
  const int n = 32;
  IntermediateImage src(n, n);
  for (int v = 10; v < 22; ++v) {
    for (int u = 10; u < 22; ++u) src.pixel(u, v) = Rgba{0.5f, 0.5f, 0.5f, 1.0f};
  }
  const double angle = 0.4;
  Affine2D warp;
  warp.a00 = std::cos(angle);
  warp.a01 = -std::sin(angle);
  warp.a10 = std::sin(angle);
  warp.a11 = std::cos(angle);
  warp.bx = 20;
  warp.by = 5;
  const Factorization f = make_fact(n, n, warp, 64, 64);
  ImageU8 out(64, 64);
  warp_frame(src, f, out);
  double in_energy = 0, out_energy = 0;
  for (int v = 0; v < n; ++v) {
    for (int u = 0; u < n; ++u) in_energy += src.pixel(u, v).a;
  }
  for (size_t i = 0; i < out.pixel_count(); ++i) out_energy += out.data()[i].a / 255.0;
  EXPECT_NEAR(out_energy, in_energy, in_energy * 0.05)
      << "a rigid rotation must conserve alpha mass";
}

TEST(Warp, TilesComposeToFullFrame) {
  const int n = 24;
  IntermediateImage src(n, n);
  SplitMix64 rng(9);
  for (int v = 0; v < n; ++v) {
    for (int u = 0; u < n; ++u) {
      src.pixel(u, v) = Rgba{static_cast<float>(rng.uniform()), 0, 0,
                             static_cast<float>(rng.uniform())};
    }
  }
  Affine2D warp;
  warp.a00 = 0.9;
  warp.a01 = 0.3;
  warp.a10 = -0.2;
  warp.a11 = 1.1;
  warp.bx = 8;
  warp.by = 6;
  const Factorization f = make_fact(n, n, warp, 48, 40);
  ImageU8 whole(48, 40), tiled(48, 40);
  warp_frame(src, f, whole);
  const Affine2D inv = f.warp.inverse();
  for (int ty = 0; ty < 40; ty += 16) {
    for (int tx = 0; tx < 48; tx += 16) {
      warp_tile(src, f, inv, tx, ty, 16, tiled);
    }
  }
  for (size_t i = 0; i < whole.pixel_count(); ++i) {
    ASSERT_EQ(whole.data()[i], tiled.data()[i]) << "pixel " << i;
  }
}

TEST(Warp, ScanlineRangeRespected) {
  IntermediateImage src(8, 8);
  for (int v = 0; v < 8; ++v) {
    for (int u = 0; u < 8; ++u) src.pixel(u, v) = Rgba{1, 1, 1, 1};
  }
  const Factorization f = make_fact(8, 8, Affine2D{}, 8, 8);
  const Affine2D inv = f.warp.inverse();
  ImageU8 out(8, 8);
  WarpStats stats;
  warp_scanline(src, f, inv, 3, 2, 6, out, nullptr, &stats);
  EXPECT_EQ(stats.pixels_written, 4u);
  EXPECT_EQ(out.at(1, 3), Pixel8{});       // outside [2, 6)
  EXPECT_EQ(out.at(2, 3).r, 255);          // inside
  EXPECT_EQ(out.at(2, 2), Pixel8{});       // other scanline untouched
}

TEST(Warp, StatsCountSamples) {
  IntermediateImage src(4, 4);
  src.pixel(1, 1) = Rgba{1, 0, 0, 1};
  const Factorization f = make_fact(4, 4, Affine2D{}, 4, 4);
  ImageU8 out(4, 4);
  const WarpStats stats = warp_frame(src, f, out);
  EXPECT_EQ(stats.pixels_written, 16u);
  EXPECT_GT(stats.samples, 0u);
}

// ---- Fast kernel vs reference kernel (A/B) --------------------------------

// Warps every scanline of an fw x fh image with the hook-free fast kernel
// (warp_scanline without a hook) and with warp_scanline_reference, and
// requires equal pixels and equal stats. The outputs start from different
// poison values, so a pixel either kernel skips shows up as a mismatch.
void expect_kernels_match(const IntermediateImage& src, const Affine2D& warp, int fw,
                          int fh, const std::string& what) {
  const Factorization f = make_fact(src.width(), src.height(), warp, fw, fh);
  const Affine2D inv = warp.inverse();
  ImageU8 fast(fw, fh), ref(fw, fh);
  std::fill(fast.data(), fast.data() + fast.pixel_count(), Pixel8{0xDD, 0xDD, 0xDD, 0xDD});
  std::fill(ref.data(), ref.data() + ref.pixel_count(), Pixel8{0x11, 0x11, 0x11, 0x11});
  WarpStats fast_stats, ref_stats;
  for (int y = 0; y < fh; ++y) {
    warp_scanline(src, f, inv, y, 0, fw, fast, nullptr, &fast_stats);
    warp_scanline_reference(src, f, inv, y, 0, fw, ref, nullptr, &ref_stats);
  }
  ASSERT_EQ(fast_stats.pixels_written, ref_stats.pixels_written) << what;
  ASSERT_EQ(fast_stats.samples, ref_stats.samples) << what;
  for (size_t i = 0; i < fast.pixel_count(); ++i) {
    ASSERT_EQ(fast.data()[i], ref.data()[i]) << what << " pixel " << i;
  }
}

// Random values in [-0.5, 1.5], negative and above-one included; one pixel
// in eight is exactly zero.
IntermediateImage random_image(int w, int h, SplitMix64& rng) {
  IntermediateImage img(w, h);
  for (int v = 0; v < h; ++v) {
    for (int u = 0; u < w; ++u) {
      if (rng.below(8) == 0) continue;
      img.pixel(u, v) = Rgba{static_cast<float>(rng.uniform(-0.5, 1.5)),
                             static_cast<float>(rng.uniform(-0.5, 1.5)),
                             static_cast<float>(rng.uniform(-0.5, 1.5)),
                             static_cast<float>(rng.uniform(-0.5, 1.5))};
    }
  }
  return img;
}

TEST(Warp, FastKernelMatchesReference) {
  SplitMix64 rng(29);
  // Random affine maps over random images, from 1x1 and 1xN up.
  for (int trial = 0; trial < 1500; ++trial) {
    const int shape = static_cast<int>(rng.below(4));
    const int sw = shape == 0 ? 1 : 1 + static_cast<int>(rng.below(40));
    const int sh = shape == 1 ? 1 : 1 + static_cast<int>(rng.below(40));
    const IntermediateImage src = random_image(sw, sh, rng);
    Affine2D warp;
    if (rng.below(3) == 0) {
      // Integer-aligned: a signed axis permutation plus an integer offset,
      // so every inverse-mapped coordinate is an integer and half the taps
      // carry zero weight.
      const int sx = rng.below(2) ? 1 : -1, sy = rng.below(2) ? 1 : -1;
      const bool swap = rng.below(2) != 0;
      warp.a00 = swap ? 0 : sx;
      warp.a01 = swap ? sy : 0;
      warp.a10 = swap ? sx : 0;
      warp.a11 = swap ? 0 : sy;
      warp.bx = static_cast<double>(static_cast<int>(rng.below(21)) - 10);
      warp.by = static_cast<double>(static_cast<int>(rng.below(21)) - 10);
    } else {
      do {
        warp.a00 = rng.uniform(-2, 2);
        warp.a01 = rng.uniform(-2, 2);
        warp.a10 = rng.uniform(-2, 2);
        warp.a11 = rng.uniform(-2, 2);
      } while (std::abs(warp.a00 * warp.a11 - warp.a01 * warp.a10) < 0.05);
      warp.bx = rng.uniform(-20, 40);
      warp.by = rng.uniform(-20, 40);
    }
    const int fw = 1 + static_cast<int>(rng.below(48));
    const int fh = 1 + static_cast<int>(rng.below(48));
    expect_kernels_match(src, warp, fw, fh, "random trial " + std::to_string(trial));
  }
  // A fractional shift whose taps start at u0 = -1 and end at u0 = sw - 1
  // (and the same in v): both borders take the checked path.
  for (const auto& [sw, sh] : {std::pair{1, 1}, std::pair{1, 9}, std::pair{9, 1},
                               std::pair{13, 7}}) {
    const IntermediateImage src = random_image(sw, sh, rng);
    Affine2D warp;
    warp.bx = 0.5;
    warp.by = 0.25;
    expect_kernels_match(src, warp, sw + 2, sh + 2,
                         "border taps " + std::to_string(sw) + "x" + std::to_string(sh));
  }
  // Composited orbit views of the MRI and CT phantoms.
  const ClassifyOptions copt;
  for (const int n : {37, 64}) {
    for (const bool ct : {false, true}) {
      const std::array<int, 3> dims{n, n, n};
      const EncodedVolume volume = EncodedVolume::build(
          classify(ct ? make_ct_head(n, n, n) : make_mri_brain(n, n, n),
                   ct ? TransferFunction::ct_preset() : TransferFunction::mri_preset(), copt),
          copt.alpha_threshold);
      for (int view = 0; view < 8; ++view) {
        const Camera cam = Camera::orbit(dims, 0.83 * view, 0.35 - 0.1 * view);
        const Factorization f = factorize(cam, dims);
        const RleVolume& rle = volume.for_axis(f.principal_axis);
        IntermediateImage img(f.intermediate_width, f.intermediate_height);
        for (int v = 0; v < img.height(); ++v) composite_scanline(rle, f, v, img);
        expect_kernels_match(img, f.warp, f.final_width, f.final_height,
                             std::string(ct ? "CT " : "MRI ") + std::to_string(n) +
                                 " view " + std::to_string(view));
      }
    }
  }
}

// ---- Quantization rule -------------------------------------------------------

// quantize_channel and simd::quantize_u8x4 against the libm rule they
// replace, std::lround(std::clamp(c, 0, 1) * 255). Each value goes through
// every SIMD lane: broadcast, and as lane i % 4 of a window of neighbours
// (which also pins the lane-to-byte order).
void expect_quantizes_like_lround(const std::vector<float>& values) {
  const auto lround_rule = [](float c) {
    return static_cast<uint8_t>(std::lround(std::clamp(c, 0.0f, 1.0f) * 255.0f));
  };
  for (size_t i = 0; i < values.size(); ++i) {
    const float c = values[i];
    const uint8_t want = lround_rule(c);
    ASSERT_EQ(quantize_channel(c), want) << "c = " << c;
    uint8_t bytes[4];
    simd::quantize_u8x4(simd::set1(c), bytes);
    for (int l = 0; l < 4; ++l) {
      ASSERT_EQ(bytes[l], want) << "c = " << c << " (broadcast, lane " << l << ")";
    }
    float lanes[4];
    const size_t base = i - i % 4;
    for (size_t l = 0; l < 4; ++l) lanes[l] = values[std::min(base + l, values.size() - 1)];
    simd::quantize_u8x4(simd::loadu(lanes), bytes);
    ASSERT_EQ(bytes[i % 4], want) << "c = " << c << " (lane " << i % 4 << ")";
  }
}

TEST(Quantize, ChannelRuleMatchesLround) {
  std::vector<float> values = {0.0f, -0.0f, 1.0f, 0.5f, -1.0f, -1e30f, 2.0f, 1e30f,
                               std::numeric_limits<float>::denorm_min(),
                               -std::numeric_limits<float>::denorm_min(),
                               std::numeric_limits<float>::min(),
                               std::numeric_limits<float>::max(),
                               -std::numeric_limits<float>::max(),
                               std::nextafter(1.0f, 2.0f), std::nextafter(0.0f, -1.0f)};
  // Every float within 64 ulps of each rounding boundary (k + 0.5) / 255.
  for (int k = 0; k < 255; ++k) {
    float c = static_cast<float>((k + 0.5) / 255.0);
    for (int step = 0; step < 64; ++step) c = std::nextafter(c, -1.0f);
    for (int step = 0; step <= 128; ++step) {
      values.push_back(c);
      c = std::nextafter(c, 2.0f);
    }
  }
  // Denormals, and a stride through every finite float bit pattern.
  for (uint32_t bits = 1; bits < 0x00800000u; bits += 0x1357u) {
    float c;
    std::memcpy(&c, &bits, sizeof c);
    values.push_back(c);
  }
  for (uint64_t bits = 0; bits <= 0xFFFFFFFFu; bits += 0x10001u) {
    const uint32_t b = static_cast<uint32_t>(bits);
    float c;
    std::memcpy(&c, &b, sizeof c);
    if (std::isfinite(c)) values.push_back(c);
  }
  expect_quantizes_like_lround(values);
  // quantize8 is the helper applied per channel.
  EXPECT_EQ(quantize8({-0.25f, 0.4999f, 0.5f, 7.0f}),
            (Pixel8{0, quantize_channel(0.4999f), quantize_channel(0.5f), 255}));
}

}  // namespace
}  // namespace psw
