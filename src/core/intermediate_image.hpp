// The intermediate (composited) image: premultiplied RGBA pixels plus
// per-pixel skip links implementing the dynamically run-length-encoded
// opaque-pixel structure used for early ray termination (§2). Skip links
// are path-compressed offsets to the next non-opaque pixel in a scanline.
//
// The skip-link queries are templated on the hook policy (see hook.hpp):
// the NullHook instantiations (the default) are branch-free, the SimHook
// instantiations report every link load and store to the simulators.
#pragma once

#include <cstdint>
#include <vector>

#include "core/hook.hpp"
#include "util/vec.hpp"

namespace psw {

class IntermediateImage {
 public:
  // Pixels whose accumulated opacity reaches this are marked opaque and
  // skipped in later slices (the paper's early ray termination threshold).
  static constexpr float kOpaqueAlpha = 0.98f;

  IntermediateImage() = default;
  IntermediateImage(int width, int height) { resize(width, height); }

  void resize(int width, int height);
  // Resize without clearing, reusing existing storage when it is large
  // enough (mirrors ImageU8::pixel_capacity). Contents of the new extent
  // are unspecified: only callers that clear every row they later read —
  // the parallel renderers clear all of [0, height) each frame — may use
  // this; everyone else wants resize().
  void resize_for_reuse(int width, int height);
  // Clears pixels and skip links for a new frame.
  void clear();
  // Clears only the given scanline range [v0, v1) — what each processor
  // clears for its own partition in the parallel renderers.
  void clear_rows(int v0, int v1);

  int width() const { return width_; }
  int height() const { return height_; }

  Rgba& pixel(int u, int v) { return pixels_[static_cast<size_t>(v) * width_ + u]; }
  const Rgba& pixel(int u, int v) const {
    return pixels_[static_cast<size_t>(v) * width_ + u];
  }
  Rgba* row(int v) { return pixels_.data() + static_cast<size_t>(v) * width_; }
  const Rgba* row(int v) const { return pixels_.data() + static_cast<size_t>(v) * width_; }

  // First non-opaque pixel index >= u in scanline v (may be width()).
  // Follows and path-compresses skip links; reports link traffic to hook.
  template <class Hook = NullHook>
  int next_writable(int v, int u, Hook hook = {}) {
    int32_t* s = skip_.data() + static_cast<size_t>(v) * width_;
    const int start = u;
    while (u < width_) {
      hook.read(s + u, sizeof(int32_t));
      if (s[u] == 0) break;
      u += s[u];
    }
    // Path compression: point every link on the path at the destination.
    int cur = start;
    while (cur < u && s[cur] > 0) {
      const int nxt = cur + s[cur];
      if (s[cur] != u - cur) {
        s[cur] = u - cur;
        hook.write(s + cur, sizeof(int32_t));
      }
      cur = nxt;
    }
    return u;
  }

  // Marks pixel (u, v) opaque so later slices skip it.
  template <class Hook = NullHook>
  void mark_opaque(int u, int v, Hook hook = {}) {
    int32_t* s = skip_.data() + static_cast<size_t>(v) * width_;
    s[u] = 1;
    hook.write(s + u, sizeof(int32_t));
  }

  // True when every pixel of scanline v is opaque from index `from` on.
  template <class Hook = NullHook>
  bool fully_opaque_from(int v, int from, Hook hook = {}) {
    return next_writable(v, from, hook) >= width_;
  }

  // Base of the skip-link array (one int32 per pixel, scanline-major), for
  // address-region registration in the trace analyzers.
  const int32_t* skip_data() const { return skip_.data(); }

  // Writable-run query for the compositing kernel: first index in
  // [u, limit) whose pixel is opaque, or `limit` if the whole range is
  // writable. Does not follow or compress links (a marked pixel always has
  // skip != 0, so a single-load test per pixel suffices); reports each
  // link it loads to hook.
  template <class Hook = NullHook>
  int writable_run_end(int v, int u, int limit, Hook hook = {}) const {
    const int32_t* s = skip_.data() + static_cast<size_t>(v) * width_;
    for (; u < limit; ++u) {
      hook.read(s + u, sizeof(int32_t));
      if (s[u] != 0) break;
    }
    return u;
  }

 private:
  int width_ = 0, height_ = 0;
  std::vector<Rgba> pixels_;
  std::vector<int32_t> skip_;  // 0 = writable, >0 = offset to candidate
};

}  // namespace psw
