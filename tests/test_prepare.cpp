// Bit-identity tests for the parallel volume-preparation pipeline: every
// parallel configuration must produce byte-for-byte the output of the
// serial path, and the serial path itself is pinned against a verbatim
// copy of the pre-optimization (seed) implementation.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench/seed_baseline.hpp"
#include "core/classify.hpp"
#include "core/rle_volume.hpp"
#include "parallel/prepare.hpp"
#include "phantom/phantom.hpp"
#include "util/rng.hpp"

namespace psw {
namespace {

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

DensityVolume make_phantom(const std::string& kind, int nx, int ny, int nz) {
  return kind == "ct" ? make_ct_head(nx, ny, nz) : make_mri_brain(nx, ny, nz);
}

TransferFunction preset_for(const std::string& kind) {
  return kind == "ct" ? TransferFunction::ct_preset() : TransferFunction::mri_preset();
}

// --- Serial path pinned against the verbatim seed implementation ---------

class SeedPinned : public ::testing::TestWithParam<const char*> {};

TEST_P(SeedPinned, SerialClassifyMatchesSeedBitForBit) {
  const std::string kind = GetParam();
  const DensityVolume density = make_phantom(kind, 33, 17, 9);
  const TransferFunction tf = preset_for(kind);
  const ClassifyOptions opt;
  const ClassifiedVolume expected = bench::seed::classify(density, tf, opt);
  const ClassifiedVolume got = classify(density, tf, opt);
  EXPECT_EQ(classified_content_hash(expected), classified_content_hash(got));
  ASSERT_EQ(expected.size(), got.size());
  EXPECT_EQ(0, std::memcmp(expected.data(), got.data(),
                           expected.size() * sizeof(ClassifiedVoxel)));
}

TEST_P(SeedPinned, SerialEncodeMatchesSeedBitForBit) {
  const std::string kind = GetParam();
  const DensityVolume density = make_phantom(kind, 33, 17, 9);
  const TransferFunction tf = preset_for(kind);
  const ClassifyOptions opt;
  const ClassifiedVolume classified = classify(density, tf, opt);
  std::array<bench::seed::SeedRle, 3> seed_rle;
  for (int c = 0; c < 3; ++c) {
    seed_rle[c] = bench::seed::encode(classified, c, opt.alpha_threshold);
  }
  const uint64_t seed_hash = bench::seed::encoded_content_hash(
      seed_rle, {density.nx(), density.ny(), density.nz()}, opt.alpha_threshold);
  const EncodedVolume encoded = EncodedVolume::build(classified, opt.alpha_threshold);
  EXPECT_EQ(seed_hash, encoded.content_hash());
}

// The skip table must agree with the seed even under gradient modulation
// (where it conservatively disables itself).
TEST(SeedPinned, GradientModulatedClassifyMatchesSeed) {
  const DensityVolume density = make_phantom("mri", 21, 13, 11);
  TransferFunction tf = TransferFunction::mri_preset();
  tf.set_gradient_ramp(Ramp{{0, 0.1f}, {40, 0.6f}, {255, 1.0f}});
  tf.set_gradient_modulation(true);
  const ClassifyOptions opt;
  const ClassifiedVolume expected = bench::seed::classify(density, tf, opt);
  const ClassifiedVolume got = classify(density, tf, opt);
  EXPECT_EQ(classified_content_hash(expected), classified_content_hash(got));
}

INSTANTIATE_TEST_SUITE_P(Kinds, SeedPinned, ::testing::Values("mri", "ct"));

// --- Parallel pipeline vs serial, across thread counts and phantoms ------

// std::string kind keeps the test names free of the load address (see
// PipelineAgreement in test_integration.cpp).

class ParallelIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ParallelIdentity, PrepareVolumeBitIdenticalToSerial) {
  const std::string& kind = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  // Odd/prime dims: slab and chunk boundaries land mid-scanline everywhere.
  const DensityVolume density = make_phantom(kind, 33, 17, 9);
  const TransferFunction tf = preset_for(kind);
  const ClassifyOptions copt;

  ClassifiedVolume serial_classified;
  const EncodedVolume serial =
      prepare_volume(density, tf, copt, PrepareOptions{}, &serial_classified);

  PrepareOptions popt;
  popt.threads = threads;
  ClassifiedVolume parallel_classified;
  PrepareTiming timing;
  const EncodedVolume parallel =
      prepare_volume(density, tf, copt, popt, &parallel_classified, &timing);

  EXPECT_EQ(classified_content_hash(serial_classified),
            classified_content_hash(parallel_classified));
  EXPECT_EQ(serial.content_hash(), parallel.content_hash());
  for (int c = 0; c < 3; ++c) {
    EXPECT_TRUE(serial.for_axis(c).identical(parallel.for_axis(c))) << "axis " << c;
  }
  // The transparent fraction (a derived statistic the memsim datasets
  // report) must agree exactly.
  EXPECT_EQ(classified_transparent_fraction(serial_classified, copt.alpha_threshold),
            classified_transparent_fraction(parallel_classified, copt.alpha_threshold));
  EXPECT_GE(timing.total_ms, 0.0);
  EXPECT_GE(timing.classify_ms, 0.0);
  EXPECT_GE(timing.encode_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(KindsThreads, ParallelIdentity,
                         ::testing::Combine(::testing::Values("mri", "ct"),
                                            ::testing::Values(1, 4, 16)));

// --- Chunked encoding: seams, fragments, stitching -----------------------

TEST(ChunkedEncode, SeamSpanningRunsMerge) {
  // Fully opaque volume: every scanline is one opaque run (plus the
  // conventional zero-length transparent run). Any chunk seam falls inside
  // an opaque run, so stitching must merge across every seam.
  ClassifiedVolume vol = random_volume(31, 5, 3, 1.1, 7);
  for (int axis = 0; axis < 3; ++axis) {
    const RleVolume serial = RleVolume::encode(vol, axis, 1);
    const size_t total = vol.size();
    for (size_t nchunks : {2u, 3u, 7u, 16u}) {
      std::vector<RleVolume::Chunk> chunks;
      for (size_t c = 0; c < nchunks; ++c) {
        const size_t begin = total * c / nchunks;
        const size_t end = total * (c + 1) / nchunks;
        if (begin < end) chunks.push_back(RleVolume::encode_chunk(vol, axis, 1, begin, end));
      }
      const RleVolume stitched = RleVolume::stitch(vol, axis, 1, chunks);
      EXPECT_TRUE(serial.identical(stitched)) << "axis " << axis << " chunks " << nchunks;
      // Opaque scanlines: exactly {0, ni} per scanline.
      for (int k = 0; k < stitched.nk(); ++k) {
        for (int j = 0; j < stitched.nj(); ++j) {
          ASSERT_EQ(2u, stitched.runs_in_scanline(k, j));
          EXPECT_EQ(0, stitched.runs_at(k, j)[0]);
          EXPECT_EQ(stitched.ni(), stitched.runs_at(k, j)[1]);
        }
      }
    }
  }
}

TEST(ChunkedEncode, RandomVolumesAllDensitiesAllAxes) {
  for (double density : {0.0, 0.05, 0.3, 0.7, 1.1}) {
    const ClassifiedVolume vol =
        random_volume(13, 9, 11, density, static_cast<uint64_t>(density * 100) + 3);
    for (int axis = 0; axis < 3; ++axis) {
      const RleVolume serial = RleVolume::encode(vol, axis, 1);
      const size_t total = vol.size();
      for (size_t nchunks : {1u, 2u, 5u, 13u, 64u}) {
        std::vector<RleVolume::Chunk> chunks;
        for (size_t c = 0; c < nchunks; ++c) {
          const size_t begin = total * c / nchunks;
          const size_t end = total * (c + 1) / nchunks;
          if (begin < end)
            chunks.push_back(RleVolume::encode_chunk(vol, axis, 1, begin, end));
        }
        const RleVolume stitched = RleVolume::stitch(vol, axis, 1, chunks);
        EXPECT_TRUE(serial.identical(stitched))
            << "axis " << axis << " chunks " << nchunks << " density " << density;
        EXPECT_EQ(serial.content_hash(), stitched.content_hash());
      }
    }
  }
}

TEST(ChunkedEncode, ParallelEncodeMatchesSerialOnRandomVolume) {
  const ClassifiedVolume vol = random_volume(23, 7, 5, 0.4, 99);
  ThreadPool pool(4);
  for (int axis = 0; axis < 3; ++axis) {
    const RleVolume serial = RleVolume::encode(vol, axis, 1);
    const RleVolume parallel = encode_parallel(vol, axis, 1, pool);
    EXPECT_TRUE(serial.identical(parallel)) << "axis " << axis;
  }
  const EncodedVolume serial_enc = EncodedVolume::build(vol, 1);
  const EncodedVolume parallel_enc = build_encoded_parallel(vol, 1, pool);
  EXPECT_EQ(serial_enc.content_hash(), parallel_enc.content_hash());
}

TEST(ChunkedEncode, EmptyAndDegenerateVolumes) {
  ThreadPool pool(2);
  // Empty volume.
  {
    const ClassifiedVolume vol(0, 0, 0);
    for (int axis = 0; axis < 3; ++axis) {
      const RleVolume serial = RleVolume::encode(vol, axis, 1);
      const RleVolume parallel = encode_parallel(vol, axis, 1, pool);
      EXPECT_TRUE(serial.identical(parallel));
    }
  }
  // One-voxel volume and a single-scanline volume.
  for (auto dims : {std::array<int, 3>{1, 1, 1}, std::array<int, 3>{16, 1, 1}}) {
    const ClassifiedVolume vol = random_volume(dims[0], dims[1], dims[2], 0.5, 5);
    for (int axis = 0; axis < 3; ++axis) {
      const RleVolume serial = RleVolume::encode(vol, axis, 1);
      const RleVolume parallel = encode_parallel(vol, axis, 1, pool);
      EXPECT_TRUE(serial.identical(parallel));
    }
  }
}

// --- Slab-parallel classification ----------------------------------------

TEST(ClassifyParallel, MoreThreadsThanSlabs) {
  // nz=3 with a 16-thread pool: most workers find no slab to claim.
  const DensityVolume density = make_phantom("mri", 19, 11, 3);
  const TransferFunction tf = preset_for("mri");
  const ClassifyOptions opt;
  const ClassifiedVolume serial = classify(density, tf, opt);
  ThreadPool pool(16);
  const ClassifiedVolume parallel = classify_parallel(density, tf, opt, pool);
  EXPECT_EQ(classified_content_hash(serial), classified_content_hash(parallel));
}

// --- Pooled preparation scratch ------------------------------------------

TEST(PrepareScratch, EncodeChunkIntoReuseIsBitIdentical) {
  // One Chunk and one lane buffer reused across every axis and a mix of
  // chunk extents (growing, shrinking, regrowing): each rewrite must equal
  // a freshly allocated encode_chunk of the same range.
  const ClassifiedVolume vol = random_volume(19, 23, 11, 0.4, 7);
  const uint8_t threshold = 12;
  const size_t total = vol.size();
  RleVolume::Chunk reused;
  std::vector<ClassifiedVoxel> lanes;
  for (int axis = 0; axis < 3; ++axis) {
    const size_t cuts[] = {0, total / 2, total / 2 + 5, 2 * total / 3, total};
    for (size_t i = 0; i + 1 < 5; ++i) {
      const RleVolume::Chunk fresh =
          RleVolume::encode_chunk(vol, axis, threshold, cuts[i], cuts[i + 1]);
      RleVolume::encode_chunk_into(vol, axis, threshold, cuts[i], cuts[i + 1],
                                   &reused, &lanes);
      EXPECT_EQ(fresh.begin, reused.begin);
      EXPECT_EQ(fresh.end, reused.end);
      EXPECT_EQ(fresh.runs, reused.runs);
      ASSERT_EQ(fresh.voxels.size(), reused.voxels.size());
      EXPECT_EQ(0, std::memcmp(fresh.voxels.data(), reused.voxels.data(),
                               fresh.voxels.size() * sizeof(ClassifiedVoxel)));
      ASSERT_EQ(fresh.fragments.size(), reused.fragments.size());
      for (size_t f = 0; f < fresh.fragments.size(); ++f) {
        EXPECT_EQ(fresh.fragments[f].run_count, reused.fragments[f].run_count);
        EXPECT_EQ(fresh.fragments[f].voxel_count, reused.fragments[f].voxel_count);
        EXPECT_EQ(fresh.fragments[f].first_opaque, reused.fragments[f].first_opaque);
      }
    }
  }
}

TEST(PrepareScratch, PooledPrepareIsBitIdenticalAcrossGrowShrinkRegrow) {
  // One scratch cycled through the pool across volumes of growing,
  // shrinking and regrowing dims: every pooled build must hash identically
  // to a scratch-free build of the same volume.
  PrepareScratchPool pool;
  const TransferFunction tf = preset_for("mri");
  const ClassifyOptions copt;
  PrepareOptions popt;
  popt.threads = 4;
  const int dims[][3] = {{24, 24, 24}, {40, 40, 40}, {16, 12, 20}, {40, 40, 40}};
  for (const auto& d : dims) {
    const DensityVolume density = make_phantom("mri", d[0], d[1], d[2]);
    const EncodedVolume fresh = prepare_volume(density, tf, copt, popt);
    std::unique_ptr<PrepareScratch> scratch = pool.acquire();
    const EncodedVolume pooled =
        prepare_volume(density, tf, copt, popt, nullptr, nullptr, scratch.get());
    pool.release(std::move(scratch));
    EXPECT_EQ(fresh.content_hash(), pooled.content_hash());
  }
  const PoolStats stats = pool.stats();
  EXPECT_TRUE(stats.conserves());
  EXPECT_EQ(stats.outstanding, 0u);
  EXPECT_EQ(stats.misses, 1u);       // first acquire builds the scratch
  EXPECT_EQ(stats.hits, 3u);         // every later build reuses it warm
  EXPECT_GT(stats.retained_bytes, 0u);
}

TEST(PrepareScratch, SerialScratchPathMatchesBuild) {
  // threads <= 1 routes through the single-chunk scratch encoder; it must
  // reproduce EncodedVolume::build exactly, including classified_out (which
  // copies out of the scratch instead of moving its storage away).
  PrepareScratchPool pool;
  const TransferFunction tf = preset_for("ct");
  const ClassifyOptions copt;
  PrepareOptions popt;
  popt.threads = 1;
  for (const int n : {18, 30, 22}) {
    const DensityVolume density = make_phantom("ct", n, n, n);
    ClassifiedVolume want_classified;
    const EncodedVolume fresh =
        prepare_volume(density, tf, copt, popt, &want_classified);
    std::unique_ptr<PrepareScratch> scratch = pool.acquire();
    ClassifiedVolume got_classified;
    const EncodedVolume pooled = prepare_volume(density, tf, copt, popt,
                                                &got_classified, nullptr, scratch.get());
    EXPECT_EQ(fresh.content_hash(), pooled.content_hash());
    EXPECT_EQ(classified_content_hash(want_classified),
              classified_content_hash(got_classified));
    // The scratch still holds its classified storage after the copy-out.
    EXPECT_EQ(scratch->classified.size(), got_classified.size());
    pool.release(std::move(scratch));
  }
  EXPECT_TRUE(pool.stats().conserves());
}

TEST(PrepareScratchPool, RetentionBoundsAndTrim) {
  PrepareScratchPool pool(PrepareScratchPool::Options{/*max_retained=*/1,
                                                      /*max_retained_bytes=*/1u << 30});
  std::unique_ptr<PrepareScratch> a = pool.acquire();
  std::unique_ptr<PrepareScratch> b = pool.acquire();
  pool.release(std::move(a));
  pool.release(std::move(b));  // second release exceeds max_retained
  PoolStats s = pool.stats();
  EXPECT_TRUE(s.conserves());
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.retained, 1u);
  EXPECT_EQ(s.discards, 1u);
  EXPECT_EQ(s.outstanding, 0u);
  pool.trim();
  s = pool.stats();
  EXPECT_TRUE(s.conserves());
  EXPECT_EQ(s.retained, 0u);
  EXPECT_EQ(s.retained_bytes, 0u);
}

}  // namespace
}  // namespace psw
