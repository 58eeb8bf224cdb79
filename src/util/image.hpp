// Simple float-RGBA image container plus PPM (P6) import/export.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/vec.hpp"

namespace psw {

class ImageRGBA {
 public:
  ImageRGBA() = default;
  ImageRGBA(int width, int height) { resize(width, height); }

  void resize(int width, int height) {
    width_ = width;
    height_ = height;
    pixels_.assign(static_cast<size_t>(width) * height, Rgba{});
  }
  void clear() { std::fill(pixels_.begin(), pixels_.end(), Rgba{}); }

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return pixels_.empty(); }

  Rgba& at(int x, int y) { return pixels_[static_cast<size_t>(y) * width_ + x]; }
  const Rgba& at(int x, int y) const { return pixels_[static_cast<size_t>(y) * width_ + x]; }

  Rgba* row(int y) { return pixels_.data() + static_cast<size_t>(y) * width_; }
  const Rgba* row(int y) const { return pixels_.data() + static_cast<size_t>(y) * width_; }

  Rgba* data() { return pixels_.data(); }
  const Rgba* data() const { return pixels_.data(); }
  size_t pixel_count() const { return pixels_.size(); }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<Rgba> pixels_;
};

// 8-bit RGBA pixel: the final (display) image format, as in a real
// framebuffer. The intermediate image keeps float precision for
// accumulation; the warp quantizes on store.
struct Pixel8 {
  uint8_t r = 0, g = 0, b = 0, a = 0;

  bool operator==(const Pixel8&) const = default;
};
static_assert(sizeof(Pixel8) == 4);

// The display quantization rule for one channel: clamp to [0,1], scale by
// 255 and round half away from zero — std::lround(std::clamp(c, 0.f, 1.f) *
// 255.f) for every finite c, without the libm call. With x the scaled value
// in [0, 255], double(x) + 0.5 is exact when x >= 0.5 (such a float has no
// bits below 2^-24, so the sum needs at most 33), and stays below 1 when
// x < 0.5 (the largest float below 0.5 is 0.5 - 2^-25); truncating it is
// therefore floor(x + 0.5). NaN quantizes to 0. simd::quantize_u8x4 is the
// 4-lane form of the same operations.
inline uint8_t quantize_channel(float c) {
  float x = c > 0.0f ? c : 0.0f;
  x = x < 1.0f ? x : 1.0f;
  return static_cast<uint8_t>(static_cast<int>(static_cast<double>(x * 255.0f) + 0.5));
}

// Quantizes a float color (clamped to [0,1]) to 8 bits per channel.
inline Pixel8 quantize8(const Rgba& c) {
  return Pixel8{quantize_channel(c.r), quantize_channel(c.g), quantize_channel(c.b),
                quantize_channel(c.a)};
}

class ImageU8 {
 public:
  ImageU8() = default;
  ImageU8(int width, int height) { resize(width, height); }

  void resize(int width, int height) {
    width_ = width;
    height_ = height;
    pixels_.assign(static_cast<size_t>(width) * height, Pixel8{});
  }
  // Resize without clearing: pixels kept from the previous extent hold
  // stale values and only growth past the old pixel count is zeroed. For
  // callers that write every pixel (the renderers' warps); everyone else
  // wants resize().
  void resize_for_reuse(int width, int height) {
    width_ = width;
    height_ = height;
    pixels_.resize(static_cast<size_t>(width) * height);
  }
  void clear() { std::fill(pixels_.begin(), pixels_.end(), Pixel8{}); }

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return pixels_.empty(); }

  Pixel8& at(int x, int y) { return pixels_[static_cast<size_t>(y) * width_ + x]; }
  const Pixel8& at(int x, int y) const {
    return pixels_[static_cast<size_t>(y) * width_ + x];
  }
  Pixel8* row(int y) { return pixels_.data() + static_cast<size_t>(y) * width_; }
  const Pixel8* row(int y) const {
    return pixels_.data() + static_cast<size_t>(y) * width_;
  }
  Pixel8* data() { return pixels_.data(); }
  const Pixel8* data() const { return pixels_.data(); }
  size_t pixel_count() const { return pixels_.size(); }
  // Pixels the backing store can hold without reallocating; resize() within
  // this capacity never touches the allocator (FramePool relies on this).
  size_t pixel_capacity() const { return pixels_.capacity(); }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<Pixel8> pixels_;
};

// Writes an 8-bit binary PPM; values are clamped to [0,1] then scaled.
// Returns false on I/O failure.
bool write_ppm(const std::string& path, const ImageRGBA& img);
bool write_ppm(const std::string& path, const ImageU8& img);

// Reads a binary PPM into a float image (alpha set to 1). Returns false on
// parse or I/O failure.
bool read_ppm(const std::string& path, ImageRGBA* out);

// Mean absolute difference over RGB channels between two images of equal
// size, normalized to [0,1]; returns a large value if the sizes differ.
double image_mad(const ImageRGBA& a, const ImageRGBA& b);
double image_mad(const ImageU8& a, const ImageU8& b);

// Pearson correlation of luminance between two equal-size images.
double image_correlation(const ImageRGBA& a, const ImageRGBA& b);
double image_correlation(const ImageU8& a, const ImageU8& b);

}  // namespace psw
