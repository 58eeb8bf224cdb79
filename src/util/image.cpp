#include "util/image.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace psw {

bool write_ppm(const std::string& path, const ImageRGBA& img) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << "P6\n" << img.width() << " " << img.height() << "\n255\n";
  std::vector<uint8_t> row(static_cast<size_t>(img.width()) * 3);
  for (int y = 0; y < img.height(); ++y) {
    const Rgba* src = img.row(y);
    for (int x = 0; x < img.width(); ++x) {
      row[3 * x + 0] = quantize_channel(src[x].r);
      row[3 * x + 1] = quantize_channel(src[x].g);
      row[3 * x + 2] = quantize_channel(src[x].b);
    }
    f.write(reinterpret_cast<const char*>(row.data()), row.size());
  }
  return static_cast<bool>(f);
}

bool write_ppm(const std::string& path, const ImageU8& img) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << "P6\n" << img.width() << " " << img.height() << "\n255\n";
  std::vector<uint8_t> row(static_cast<size_t>(img.width()) * 3);
  for (int y = 0; y < img.height(); ++y) {
    const Pixel8* src = img.row(y);
    for (int x = 0; x < img.width(); ++x) {
      row[3 * x + 0] = src[x].r;
      row[3 * x + 1] = src[x].g;
      row[3 * x + 2] = src[x].b;
    }
    f.write(reinterpret_cast<const char*>(row.data()), row.size());
  }
  return static_cast<bool>(f);
}

bool read_ppm(const std::string& path, ImageRGBA* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::string magic;
  f >> magic;
  if (magic != "P6") return false;
  auto skip_ws_comments = [&f]() {
    while (true) {
      int c = f.peek();
      if (c == '#') {
        std::string line;
        std::getline(f, line);
      } else if (std::isspace(c)) {
        f.get();
      } else {
        break;
      }
    }
  };
  int w = 0, h = 0, maxval = 0;
  skip_ws_comments();
  f >> w;
  skip_ws_comments();
  f >> h;
  skip_ws_comments();
  f >> maxval;
  if (!f || w <= 0 || h <= 0 || maxval != 255) return false;
  f.get();  // single whitespace after header
  out->resize(w, h);
  std::vector<uint8_t> row(static_cast<size_t>(w) * 3);
  for (int y = 0; y < h; ++y) {
    f.read(reinterpret_cast<char*>(row.data()), row.size());
    if (!f) return false;
    Rgba* dst = out->row(y);
    for (int x = 0; x < w; ++x) {
      dst[x].r = row[3 * x + 0] / 255.0f;
      dst[x].g = row[3 * x + 1] / 255.0f;
      dst[x].b = row[3 * x + 2] / 255.0f;
      dst[x].a = 1.0f;
    }
  }
  return true;
}

double image_mad(const ImageRGBA& a, const ImageRGBA& b) {
  if (a.width() != b.width() || a.height() != b.height()) return 1e30;
  double sum = 0.0;
  const size_t n = a.pixel_count();
  for (size_t i = 0; i < n; ++i) {
    const Rgba& p = a.data()[i];
    const Rgba& q = b.data()[i];
    sum += std::abs(p.r - q.r) + std::abs(p.g - q.g) + std::abs(p.b - q.b);
  }
  return n > 0 ? sum / (3.0 * n) : 0.0;
}

double image_mad(const ImageU8& a, const ImageU8& b) {
  if (a.width() != b.width() || a.height() != b.height()) return 1e30;
  double sum = 0.0;
  const size_t n = a.pixel_count();
  for (size_t i = 0; i < n; ++i) {
    const Pixel8& p = a.data()[i];
    const Pixel8& q = b.data()[i];
    sum += std::abs(p.r - q.r) + std::abs(p.g - q.g) + std::abs(p.b - q.b);
  }
  return n > 0 ? sum / (3.0 * 255.0 * n) : 0.0;
}

double image_correlation(const ImageU8& a, const ImageU8& b) {
  if (a.width() != b.width() || a.height() != b.height()) return 0.0;
  const size_t n = a.pixel_count();
  if (n == 0) return 1.0;
  auto lum = [](const Pixel8& p) { return 0.299 * p.r + 0.587 * p.g + 0.114 * p.b; };
  double ma = 0.0, mb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ma += lum(a.data()[i]);
    mb += lum(b.data()[i]);
  }
  ma /= n;
  mb /= n;
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = lum(a.data()[i]) - ma;
    const double db = lum(b.data()[i]) - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va == 0.0 && vb == 0.0) return 1.0;
  if (va == 0.0 || vb == 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

double image_correlation(const ImageRGBA& a, const ImageRGBA& b) {
  if (a.width() != b.width() || a.height() != b.height()) return 0.0;
  const size_t n = a.pixel_count();
  if (n == 0) return 1.0;
  auto lum = [](const Rgba& p) { return 0.299 * p.r + 0.587 * p.g + 0.114 * p.b; };
  double ma = 0.0, mb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ma += lum(a.data()[i]);
    mb += lum(b.data()[i]);
  }
  ma /= n;
  mb /= n;
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = lum(a.data()[i]) - ma;
    const double db = lum(b.data()[i]) - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va == 0.0 && vb == 0.0) return 1.0;
  if (va == 0.0 || vb == 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

}  // namespace psw
