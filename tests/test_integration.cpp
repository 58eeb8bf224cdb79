// Cross-module integration tests: the full pipeline (phantom -> classify
// -> encode -> parallel render -> trace -> machine / SVM simulation) under
// combinations of dataset kind, viewpoint and processor count, plus the
// end-to-end properties the paper's conclusions rest on.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/reference.hpp"
#include "memsim/experiment.hpp"
#include "parallel/new_renderer.hpp"
#include "parallel/old_renderer.hpp"
#include "phantom/resample.hpp"
#include "svmsim/svm.hpp"

namespace psw {
namespace {

constexpr double kPi = 3.14159265358979323846;

const Dataset& mri_scene() {
  static const Dataset d = make_dataset("mri", "it-mri", 48, 48, 34);
  return d;
}
const Dataset& ct_scene() {
  static const Dataset d = make_dataset("ct", "it-ct", 44, 44, 44);
  return d;
}

void expect_identical(const ImageU8& a, const ImageU8& b) {
  ASSERT_EQ(a.pixel_count(), b.pixel_count());
  for (size_t i = 0; i < a.pixel_count(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "pixel " << i;
  }
}

// All three renderers agree on both dataset kinds over a rotation sweep.
// The kind is a std::string, not a const char*: gtest prints a const char*
// tuple member with its address, which would put the load address into
// the test's name and change it on every build.
class PipelineAgreement
    : public ::testing::TestWithParam<std::tuple<std::string, int, double>> {};

TEST_P(PipelineAgreement, OldNewSerialIdentical) {
  const std::string& kind = std::get<0>(GetParam());
  const int procs = std::get<1>(GetParam());
  const double yaw = std::get<2>(GetParam());
  const Dataset& data = kind == "ct" ? ct_scene() : mri_scene();

  const Camera cam = Camera::orbit(data.dims, yaw, 0.3);
  SerialRenderer serial;
  ImageU8 want;
  serial.render(data.volume, cam, &want);

  SerialExecutor exec(procs);
  OldParallelRenderer old_r;
  NewParallelRenderer new_r;
  ImageU8 old_img, new_img;
  ParallelRenderStats stats;
  old_r.render(data.volume, cam, exec, &old_img, &stats);
  new_r.render(data.volume, cam, exec, &new_img, &stats);
  expect_identical(want, old_img);
  expect_identical(want, new_img);
}

INSTANTIATE_TEST_SUITE_P(
    KindsProcsAngles, PipelineAgreement,
    ::testing::Combine(::testing::Values("mri", "ct"), ::testing::Values(2, 7, 32),
                       ::testing::Values(0.0, 0.9, 2.4, 4.2)));

// A full 360-degree animation through the new renderer stays identical to
// serial at every frame (profile reuse, rescaling, axis switches included).
TEST(Integration, AnimationSweepMatchesSerial) {
  const Dataset& data = mri_scene();
  ParallelOptions opt;
  opt.profile_every = 4;
  NewParallelRenderer renderer(opt);
  SerialExecutor exec(6);
  SerialRenderer serial;
  ParallelRenderStats stats;
  for (int frame = 0; frame < 12; ++frame) {
    const Camera cam = Camera::orbit(data.dims, frame * (2 * kPi / 12), 0.4);
    ImageU8 want, got;
    serial.render(data.volume, cam, &want);
    renderer.render(data.volume, cam, exec, &got, &stats);
    expect_identical(want, got);
  }
}

// Rendering an up-sampled volume (the paper's methodology for its large
// data sets) produces a strongly correlated, larger image.
TEST(Integration, UpsampledVolumeRendersConsistently) {
  const DensityVolume small = make_mri_brain(32, 32, 32);
  const DensityVolume big = resample(small, 63, 63, 63);
  const ClassifyOptions copt;
  const TransferFunction tf = TransferFunction::mri_preset();
  const EncodedVolume enc_small =
      EncodedVolume::build(classify(small, tf, copt), copt.alpha_threshold);
  const EncodedVolume enc_big =
      EncodedVolume::build(classify(big, tf, copt), copt.alpha_threshold);

  SerialRenderer renderer;
  Camera cam_small = Camera::orbit({32, 32, 32}, 0.7, 0.2);
  Camera cam_big = Camera::orbit({63, 63, 63}, 0.7, 0.2);
  ImageU8 img_small, img_big;
  renderer.render(enc_small, cam_small, &img_small);
  SerialRenderer renderer2;
  renderer2.render(enc_big, cam_big, &img_big);
  EXPECT_GT(img_big.width(), img_small.width() * 3 / 2);
  double energy_small = 0, energy_big = 0;
  for (size_t i = 0; i < img_small.pixel_count(); ++i) energy_small += img_small.data()[i].a;
  for (size_t i = 0; i < img_big.pixel_count(); ++i) energy_big += img_big.data()[i].a;
  // Projected area scales ~4x when dimensions double.
  EXPECT_GT(energy_big, energy_small * 2.0);
}

// Traces are deterministic: tracing the same workload twice yields
// identical reference streams — lengths, sizes, read/write pattern and,
// since trace_frame rebases addresses onto a canonical layout, the
// addresses too, although each run allocates its images afresh.
TEST(Integration, TracesAreDeterministic) {
  for (Algo algo : {Algo::kOld, Algo::kNew}) {
    const TraceSet a = trace_frame(algo, mri_scene(), 4);
    const TraceSet b = trace_frame(algo, mri_scene(), 4);
    ASSERT_EQ(a.total_records(), b.total_records()) << algo_name(algo);
    for (int p = 0; p < 4; ++p) {
      const auto& ra = a.stream(p).records;
      const auto& rb = b.stream(p).records;
      ASSERT_EQ(ra.size(), rb.size());
      for (size_t i = 0; i < ra.size(); ++i) {
        ASSERT_EQ(ra[i].is_write(), rb[i].is_write())
            << algo_name(algo) << " p=" << p << " i=" << i;
        ASSERT_EQ(ra[i].size(), rb[i].size());
        ASSERT_EQ(ra[i].addr(), rb[i].addr());
      }
      ASSERT_EQ(a.stream(p).interval_start, b.stream(p).interval_start);
    }
  }
}

// The same trace through two identically-configured simulators gives the
// same result (the simulator itself is deterministic).
TEST(Integration, SimulationIsDeterministic) {
  const TraceSet traces = trace_frame(Algo::kNew, mri_scene(), 8);
  const SimResult a = simulate(MachineConfig::dash(), traces);
  const SimResult b = simulate(MachineConfig::dash(), traces);
  EXPECT_EQ(a.total_misses(), b.total_misses());
  EXPECT_DOUBLE_EQ(a.total_cycles, b.total_cycles);
}

// Larger caches never increase the miss count (inclusion-style sanity for
// the working-set sweeps of Figures 9/18).
TEST(Integration, MissCountMonotoneInCacheSize) {
  const TraceSet traces = trace_frame(Algo::kOld, mri_scene(), 8);
  uint64_t prev = ~0ull;
  for (int kb : {8, 32, 128, 512}) {
    MachineConfig m = MachineConfig::simulator();
    m.cache_bytes = static_cast<uint64_t>(kb) << 10;
    const uint64_t misses = simulate(m, traces).total_misses();
    EXPECT_LE(misses, prev) << kb << "KB";
    prev = misses;
  }
}

// Longer lines reduce total misses for this spatially-coherent workload
// (Figure 8's observation), at least up to 256B.
TEST(Integration, MissCountShrinksWithLineSize) {
  const TraceSet traces = trace_frame(Algo::kOld, mri_scene(), 8);
  uint64_t prev = ~0ull;
  for (int line : {16, 64, 256}) {
    MachineConfig m = MachineConfig::simulator();
    m.line_bytes = line;
    const uint64_t misses = simulate(m, traces).total_misses();
    EXPECT_LT(misses, prev) << line << "B";
    prev = misses;
  }
}

// The headline claims, end to end. The volume must be large enough that a
// processor's contiguous partition spans several 4KB pages, or page-level
// false sharing masks the new algorithm's SVM advantage.
TEST(Integration, PaperHeadlineClaims) {
  const int P = 8;
  static const Dataset data = make_dataset("mri", "it-mri-80", 80, 80, 56);

  // 1. Hardware-coherent machine: the new algorithm cuts true sharing and
  //    total cycles (Figures 13/14/16).
  const TraceSet old_t = trace_frame(Algo::kOld, data, P);
  const TraceSet new_t = trace_frame(Algo::kNew, data, P);
  const SimResult old_hw = simulate(MachineConfig::simulator(), old_t);
  const SimResult new_hw = simulate(MachineConfig::simulator(), new_t);
  EXPECT_LT(new_hw.misses_of(MissClass::kTrueShare),
            old_hw.misses_of(MissClass::kTrueShare) / 2);
  EXPECT_LT(new_hw.total_cycles, old_hw.total_cycles);

  // 2. SVM: the improvement is even larger in relative terms (Figure 20).
  SvmRunOptions svm_old, svm_new;
  svm_old.warmup_intervals = old_t.intervals() / 2;
  svm_new.warmup_intervals = new_t.intervals() / 2;
  svm_new.p2p_interphase_sync = true;
  const SvmResult old_svm = svm_simulate(SvmConfig{}, old_t, svm_old);
  const SvmResult new_svm = svm_simulate(SvmConfig{}, new_t, svm_new);
  EXPECT_LT(new_svm.total_cycles, old_svm.total_cycles);
  const double hw_gain = old_hw.total_cycles / new_hw.total_cycles;
  const double svm_gain = old_svm.total_cycles / new_svm.total_cycles;
  EXPECT_GT(svm_gain, hw_gain)
      << "the paper: improvement grows as communication gets more expensive";
}

}  // namespace
}  // namespace psw
