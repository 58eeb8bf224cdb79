#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/classify.hpp"
#include "core/reference.hpp"
#include "core/renderer.hpp"
#include "phantom/phantom.hpp"
#include "util/rng.hpp"

namespace psw {
namespace {

constexpr double kPi = 3.14159265358979323846;

struct Scene {
  ClassifiedVolume classified;
  EncodedVolume encoded;
};

Scene make_scene(int n = 40) {
  Scene s;
  const DensityVolume density = make_mri_brain(n, n, n);
  s.classified = classify(density, TransferFunction::mri_preset());
  s.encoded = EncodedVolume::build(s.classified, ClassifyOptions{}.alpha_threshold);
  return s;
}

class RendererVsReference : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RendererVsReference, FinalImageBitExact) {
  static const Scene scene = make_scene(36);
  const Camera cam = Camera::orbit({36, 36, 36}, std::get<0>(GetParam()),
                                   std::get<1>(GetParam()));
  SerialRenderer renderer;
  ImageU8 run_img, ref_img;
  renderer.render(scene.encoded, cam, &run_img);
  reference_render(scene.classified, cam, ClassifyOptions{}.alpha_threshold, &ref_img);

  ASSERT_EQ(run_img.width(), ref_img.width());
  ASSERT_EQ(run_img.height(), ref_img.height());
  for (size_t i = 0; i < run_img.pixel_count(); ++i) {
    ASSERT_EQ(run_img.data()[i].r, ref_img.data()[i].r) << "pixel " << i;
    ASSERT_EQ(run_img.data()[i].a, ref_img.data()[i].a) << "pixel " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Angles, RendererVsReference,
    ::testing::Combine(::testing::Values(0.0, 0.6, 1.4, 2.3, 3.8, 5.2),
                       ::testing::Values(-0.7, 0.0, 0.5, 1.0)));

TEST(SerialRenderer, ProducesNonEmptyImage) {
  const Scene scene = make_scene(32);
  SerialRenderer renderer;
  ImageU8 img;
  const RenderStats stats =
      renderer.render(scene.encoded, Camera::orbit({32, 32, 32}, 0.5, 0.3), &img);
  EXPECT_GT(img.width(), 0);
  EXPECT_GT(img.height(), 0);
  EXPECT_GT(stats.composite.voxels_composited, 0u);
  EXPECT_GT(stats.warp.pixels_written, 0u);
  double luminance = 0;
  for (size_t i = 0; i < img.pixel_count(); ++i) luminance += img.data()[i].r;
  EXPECT_GT(luminance, 1.0);
}

TEST(SerialRenderer, StatsTimesAreConsistent) {
  const Scene scene = make_scene(32);
  SerialRenderer renderer;
  ImageU8 img;
  const RenderStats stats =
      renderer.render(scene.encoded, Camera::orbit({32, 32, 32}, 1.0, 0.0), &img);
  EXPECT_GE(stats.total_ms, stats.composite_ms);
  EXPECT_GE(stats.total_ms, stats.warp_ms);
  EXPECT_GT(stats.composite_ms, 0.0);
}

// Compositing dominates total render time on a serial machine (Figure 2:
// the shear warper's time is mostly compositing, not looping or warping).
// Each view is rendered three times and each stage keeps its minimum, so a
// preemption under a parallel test run cannot inflate one stage's sum.
TEST(SerialRenderer, CompositingDominatesWarp) {
  const Scene scene = make_scene(48);
  SerialRenderer renderer;
  ImageU8 img;
  double composite = 0, warp = 0;
  for (int frame = 0; frame < 5; ++frame) {
    const Camera cam = Camera::orbit({48, 48, 48}, 0.2 * frame, 0.1);
    double best_composite = 1e300, best_warp = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const RenderStats s = renderer.render(scene.encoded, cam, &img);
      best_composite = std::min(best_composite, s.composite_ms);
      best_warp = std::min(best_warp, s.warp_ms);
    }
    composite += best_composite;
    warp += best_warp;
  }
  EXPECT_GT(composite, warp);
}

// A 90-degree yaw maps the x axis to the principal axis; the rendered
// images from symmetric viewpoints of a symmetric scene should have very
// similar total energy.
TEST(SerialRenderer, AxisAlignedViewsSeeSimilarEnergy) {
  ClassifiedVolume vol(30, 30, 30);
  // Centered opaque cube, symmetric under 90-degree rotations.
  for (int z = 12; z < 18; ++z) {
    for (int y = 12; y < 18; ++y) {
      for (int x = 12; x < 18; ++x) vol.at(x, y, z) = {255, 200, 200, 200};
    }
  }
  const EncodedVolume enc = EncodedVolume::build(vol, 1);
  SerialRenderer renderer;
  auto energy = [&](double yaw) {
    ImageU8 img;
    renderer.render(enc, Camera::orbit({30, 30, 30}, yaw, 0.0), &img);
    double e = 0;
    for (size_t i = 0; i < img.pixel_count(); ++i) e += img.data()[i].a;
    return e;
  };
  const double e0 = energy(0.0);
  const double e90 = energy(kPi / 2);
  const double e180 = energy(kPi);
  EXPECT_NEAR(e0, e90, e0 * 0.02);
  EXPECT_NEAR(e0, e180, e0 * 0.02);
}

// Rendering the same frame twice through the same renderer must be
// identical (intermediate image reuse must not leak state).
TEST(SerialRenderer, RepeatedRenderIsDeterministic) {
  const Scene scene = make_scene(32);
  SerialRenderer renderer;
  const Camera cam = Camera::orbit({32, 32, 32}, 0.9, -0.4);
  ImageU8 a, b;
  renderer.render(scene.encoded, cam, &a);
  renderer.render(scene.encoded, cam, &b);
  ASSERT_EQ(a.pixel_count(), b.pixel_count());
  for (size_t i = 0; i < a.pixel_count(); ++i) {
    ASSERT_EQ(a.data()[i].r, b.data()[i].r);
    ASSERT_EQ(a.data()[i].a, b.data()[i].a);
  }
}

// Sweeping a full rotation must not crash or produce degenerate
// factorizations anywhere, including the 45-degree axis crossovers.
TEST(SerialRenderer, FullOrbitSweepIsStable) {
  const Scene scene = make_scene(24);
  SerialRenderer renderer;
  ImageU8 img;
  for (int step = 0; step < 24; ++step) {
    const double yaw = step * (2 * kPi / 24);
    const RenderStats stats =
        renderer.render(scene.encoded, Camera::orbit({24, 24, 24}, yaw, 0.2), &img);
    EXPECT_GT(stats.composite.scanlines, 0u) << "step " << step;
  }
}

}  // namespace
}  // namespace psw
