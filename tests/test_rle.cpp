#include <gtest/gtest.h>

#include <vector>

#include "core/classify.hpp"
#include "core/rle_volume.hpp"
#include "phantom/phantom.hpp"
#include "util/rng.hpp"

namespace psw {
namespace {

// Random classified volume with tunable opacity density.
ClassifiedVolume random_volume(int nx, int ny, int nz, double opaque_prob, uint64_t seed) {
  ClassifiedVolume v(nx, ny, nz);
  SplitMix64 rng(seed);
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        ClassifiedVoxel cv;
        if (rng.uniform() < opaque_prob) {
          cv.a = static_cast<uint8_t>(64 + rng.below(192));
          cv.r = static_cast<uint8_t>(rng.below(256));
          cv.g = static_cast<uint8_t>(rng.below(256));
          cv.b = static_cast<uint8_t>(rng.below(256));
        }
        v.at(x, y, z) = cv;
      }
    }
  }
  return v;
}

bool voxels_equal(const ClassifiedVoxel& a, const ClassifiedVoxel& b) {
  return a.a == b.a && a.r == b.r && a.g == b.g && a.b == b.b;
}

TEST(AxisPermutation, RoundTripsAllAxes) {
  for (int c = 0; c < 3; ++c) {
    const AxisPermutation p = AxisPermutation::for_principal_axis(c);
    EXPECT_EQ(p.axis_k, c);
    // The three permuted axes must cover {0,1,2}.
    EXPECT_EQ(p.axis_i + p.axis_j + p.axis_k, 3);
    const auto obj = p.to_object(5, 7, 9);
    EXPECT_EQ(obj[p.axis_i], 5);
    EXPECT_EQ(obj[p.axis_j], 7);
    EXPECT_EQ(obj[p.axis_k], 9);
  }
}

class RleRoundTrip : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(RleRoundTrip, DecodeMatchesDense) {
  const int axis = std::get<0>(GetParam());
  const double density = std::get<1>(GetParam());
  const uint8_t threshold = 1;
  const ClassifiedVolume vol = random_volume(13, 9, 11, density, 42 + axis);
  const RleVolume rle = RleVolume::encode(vol, axis, threshold);
  const AxisPermutation perm = rle.perm();

  std::vector<ClassifiedVoxel> line(rle.ni());
  for (int k = 0; k < rle.nk(); ++k) {
    for (int j = 0; j < rle.nj(); ++j) {
      rle.decode_scanline(k, j, line.data());
      for (int i = 0; i < rle.ni(); ++i) {
        const auto obj = perm.to_object(i, j, k);
        const ClassifiedVoxel& expect = vol.at(obj[0], obj[1], obj[2]);
        if (expect.transparent(threshold)) {
          ASSERT_EQ(line[i].a, 0) << "axis=" << axis << " k=" << k << " j=" << j;
        } else {
          ASSERT_TRUE(voxels_equal(line[i], expect))
              << "axis=" << axis << " k=" << k << " j=" << j << " i=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AxesAndDensities, RleRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.0, 0.05, 0.3, 0.7, 1.0)));

TEST(RleVolume, EmptyVolumeHasNoVoxels) {
  const ClassifiedVolume vol = random_volume(8, 8, 8, 0.0, 1);
  const RleVolume rle = RleVolume::encode(vol, 2, 1);
  EXPECT_EQ(rle.voxel_count(), 0u);
  for (int k = 0; k < rle.nk(); ++k) {
    for (int j = 0; j < rle.nj(); ++j) EXPECT_TRUE(rle.scanline_empty(k, j));
  }
}

TEST(RleVolume, FullVolumeKeepsEveryVoxel) {
  const ClassifiedVolume vol = random_volume(8, 8, 8, 1.0, 2);
  const RleVolume rle = RleVolume::encode(vol, 2, 1);
  EXPECT_EQ(rle.voxel_count(), vol.size());
}

TEST(RleVolume, CompressionOnSparseVolume) {
  // A mostly transparent phantom should compress far below dense size,
  // matching the paper's observation about run-length encoded storage.
  const DensityVolume d = make_mri_brain(48, 48, 48);
  const ClassifiedVolume vol = classify(d, TransferFunction::mri_preset());
  const RleVolume rle = RleVolume::encode(vol, 2, 12);
  const size_t dense_bytes = vol.size() * sizeof(ClassifiedVoxel);
  EXPECT_LT(rle.storage_bytes(), dense_bytes);
}

TEST(RleVolume, ThresholdDropsFaintVoxels) {
  ClassifiedVolume vol(4, 1, 1);
  vol.at(0, 0, 0) = {5, 10, 10, 10};
  vol.at(1, 0, 0) = {100, 20, 20, 20};
  vol.at(2, 0, 0) = {11, 30, 30, 30};
  vol.at(3, 0, 0) = {12, 40, 40, 40};
  const RleVolume rle = RleVolume::encode(vol, 2, 12);
  EXPECT_EQ(rle.voxel_count(), 2u);  // opacity 100 and 12 survive
}

TEST(RunCursor, NullForOutOfRangeScanline) {
  const ClassifiedVolume vol = random_volume(8, 8, 8, 0.5, 3);
  const RleVolume rle = RleVolume::encode(vol, 2, 1);
  RunCursorT<NullHook> below(rle, 0, -1);
  RunCursorT<NullHook> above(rle, 0, rle.nj());
  EXPECT_TRUE(below.null());
  EXPECT_TRUE(above.null());
  EXPECT_EQ(below.at(3), nullptr);
  EXPECT_EQ(above.next_nontransparent(0), rle.ni());
}

TEST(RunCursor, AtMatchesDecodedScanline) {
  SplitMix64 seeds(17);
  for (int trial = 0; trial < 20; ++trial) {
    const ClassifiedVolume vol =
        random_volume(31, 5, 5, trial / 20.0, seeds.next());
    const RleVolume rle = RleVolume::encode(vol, 0, 1);
    std::vector<ClassifiedVoxel> line(rle.ni());
    for (int k = 0; k < rle.nk(); ++k) {
      for (int j = 0; j < rle.nj(); ++j) {
        rle.decode_scanline(k, j, line.data());
        RunCursorT<NullHook> cur(rle, k, j);
        for (size_t i = 0; i < line.size(); ++i) {
          const ClassifiedVoxel* cv = cur.at(static_cast<int>(i));
          if (line[i].a == 0) {
            ASSERT_EQ(cv, nullptr) << "i=" << i;
          } else {
            ASSERT_NE(cv, nullptr) << "i=" << i;
            ASSERT_TRUE(voxels_equal(*cv, line[i]));
          }
        }
      }
    }
  }
}

TEST(RunCursor, AtHandlesRepeatedAndSkippedQueries) {
  ClassifiedVolume vol(16, 1, 1);
  for (int i : {3, 4, 5, 10, 15}) vol.at(i, 0, 0) = {200, 1, 2, 3};
  const RleVolume rle = RleVolume::encode(vol, 2, 1);
  RunCursorT<NullHook> cur(rle, 0, 0);
  EXPECT_EQ(cur.at(0), nullptr);
  EXPECT_NE(cur.at(3), nullptr);
  EXPECT_NE(cur.at(3), nullptr);  // repeat
  EXPECT_NE(cur.at(4), nullptr);
  EXPECT_EQ(cur.at(8), nullptr);  // skip into transparent run
  EXPECT_NE(cur.at(15), nullptr);
}

TEST(RunCursor, NextNontransparentFindsRuns) {
  ClassifiedVolume vol(16, 1, 1);
  for (int i : {5, 6, 12}) vol.at(i, 0, 0) = {200, 0, 0, 0};
  const RleVolume rle = RleVolume::encode(vol, 2, 1);
  RunCursorT<NullHook> cur(rle, 0, 0);
  EXPECT_EQ(cur.next_nontransparent(0), 5);
  EXPECT_EQ(cur.next_nontransparent(5), 5);
  EXPECT_EQ(cur.next_nontransparent(6), 6);
  EXPECT_EQ(cur.next_nontransparent(7), 12);
  EXPECT_EQ(cur.next_nontransparent(13), 16);
}

TEST(RunCursor, NextNontransparentDoesNotDisturbAt) {
  ClassifiedVolume vol(10, 1, 1);
  vol.at(2, 0, 0) = {100, 9, 9, 9};
  vol.at(7, 0, 0) = {150, 8, 8, 8};
  const RleVolume rle = RleVolume::encode(vol, 2, 1);
  RunCursorT<NullHook> cur(rle, 0, 0);
  EXPECT_EQ(cur.next_nontransparent(0), 2);
  const ClassifiedVoxel* v2 = cur.at(2);
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->r, 9);
  EXPECT_EQ(cur.next_nontransparent(3), 7);
  const ClassifiedVoxel* v7 = cur.at(7);
  ASSERT_NE(v7, nullptr);
  EXPECT_EQ(v7->r, 8);
}

TEST(EncodedVolume, BuildsAllThreeAxes) {
  const ClassifiedVolume vol = random_volume(6, 7, 8, 0.4, 5);
  const EncodedVolume enc = EncodedVolume::build(vol, 1);
  EXPECT_EQ(enc.dim(0), 6);
  EXPECT_EQ(enc.dim(1), 7);
  EXPECT_EQ(enc.dim(2), 8);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(enc.for_axis(c).principal_axis(), c);
    EXPECT_EQ(enc.for_axis(c).voxel_count(), enc.for_axis(0).voxel_count())
        << "all encodings hold the same non-transparent voxels";
  }
}

TEST(RunCursor, EmptyFlagMatchesContent) {
  ClassifiedVolume vol(8, 2, 1);
  vol.at(3, 1, 0) = {99, 0, 0, 0};
  const RleVolume rle = RleVolume::encode(vol, 2, 1);
  EXPECT_TRUE(RunCursorT<NullHook>(rle, 0, 0).empty());
  EXPECT_FALSE(RunCursorT<NullHook>(rle, 0, 1).empty());
}

}  // namespace
}  // namespace psw
