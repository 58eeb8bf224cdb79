#include "core/intermediate_image.hpp"

#include <algorithm>
#include <cstring>

namespace psw {

void IntermediateImage::resize(int width, int height) {
  width_ = width;
  height_ = height;
  pixels_.assign(static_cast<size_t>(width) * height, Rgba{});
  skip_.assign(static_cast<size_t>(width) * height, 0);
}

void IntermediateImage::resize_for_reuse(int width, int height) {
  width_ = width;
  height_ = height;
  const size_t n = static_cast<size_t>(width) * height;
  if (pixels_.size() < n) {
    pixels_.resize(n);
    skip_.resize(n);
  }
}

void IntermediateImage::clear() { clear_rows(0, height_); }

void IntermediateImage::clear_rows(int v0, int v1) {
  v0 = std::max(0, v0);
  v1 = std::min(height_, v1);
  if (v1 <= v0) return;
  const size_t begin = static_cast<size_t>(v0) * width_;
  const size_t count = static_cast<size_t>(v1 - v0) * width_;
  std::fill_n(pixels_.data() + begin, count, Rgba{});
  std::memset(skip_.data() + begin, 0, count * sizeof(int32_t));
}

}  // namespace psw
