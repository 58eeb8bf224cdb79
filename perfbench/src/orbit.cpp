// orbit-mri256: the paper's own workload, in process. NewParallelRenderer on
// a ThreadedExecutor with P = nproc renders full 360-degree orbits of an MRI
// 256^3 phantom at 2 degrees per frame, re-profiling every
// profile_interval() frames. No service, socket or router.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "core/compositor.hpp"
#include "core/renderer.hpp"
#include "core/warp.hpp"
#include "parallel/animation.hpp"
#include "parallel/new_renderer.hpp"
#include "parallel/old_renderer.hpp"

namespace perfbench {
namespace {

constexpr int kSize = 256;
constexpr int kLap = 180;          // frames per 360-degree orbit at 2 degrees
constexpr int kSetupReps = 5;      // set-ups per run; setup_s is their median
constexpr int kVerifyEvery = 15;   // serial re-render every 15th view (12 views)

// Whole laps over the orbit for at least `seconds` (and at least one lap).
// `frame` renders view i and returns its wall ms. Returns the per-frame wall
// ms.
template <typename Frame>
Samples timed_laps(double seconds, Frame&& frame) {
  Samples wall;
  const Clock::time_point t0 = Clock::now();
  for (int lap = 0; lap < 1 || ms_since(t0) < seconds * 1e3; ++lap) {
    for (int i = 0; i < kLap; ++i) wall.add(frame(i));
  }
  return wall;
}

}  // namespace

void run_orbit(const RunConfig& cfg, Report* report) {
  const int procs = cfg.nproc;
  LoadBudget budget;
  budget.counts = {{"render_threads", procs}, {"prepare_threads", procs}};
  budget.client_threads = 1;  // the caller renders and consumes its own frames
  budget.client_connections = 0;
  if (!check_budget(budget, cfg.nproc)) {
    report->error("load budget exceeds nproc");
    return;
  }

  // Inputs, before any clock: the phantom density and the orbit's start.
  psw::serve::VolumeKey key;
  key.kind = "mri";
  key.nx = key.ny = key.nz = kSize;
  key.seed = mix_seed(cfg.seed, 0);
  VolumeInputs inputs;
  inputs.generate({key}, 1);
  psw::AnimationPath path;
  path.dims = {kSize, kSize, kSize};
  path.start_yaw = static_cast<double>(mix_seed(cfg.seed, 1) % 360) * 3.14159265358979323846 / 180.0;
  path.frames = kLap;
  psw::ParallelOptions popt;
  popt.profile_every = path.profile_interval();
  std::vector<psw::Camera> views;
  for (int i = 0; i < kLap; ++i) views.push_back(path.camera(i));

  // Window figures, accumulated over the set-up repetitions. Each lap of a
  // window opens a new animation on the warm volume and executor (renderer
  // reset: no profile yet), so a lap's first frame is the orbit's "first
  // frame" and every lap does identical work.
  struct Window {
    uint64_t frames = 0;
    double seconds = 0.0;
    double cpu_s = 0.0;
    uint64_t raw_bytes = 0;
    double fps() const { return static_cast<double>(frames) / seconds; }
  };
  psw::PrepareOptions prep;
  prep.threads = procs;
  Samples setup_s, setup_wall_s, classify_ms, encode_ms;  // setup_s: process CPU s
  std::unique_ptr<psw::EncodedVolume> volume;
  std::unique_ptr<psw::ThreadedExecutor> exec;
  std::unique_ptr<psw::NewParallelRenderer> renderer;
  std::vector<uint64_t> lap_hash, first_lap_hash;
  psw::ImageU8 image;
  psw::ParallelRenderStats stats;
  uint64_t mismatches = 0;
  Samples frame_ms, first_ms;
  // Per-layer samples of every window frame (ParallelRenderStats at P = nproc).
  Samples new_pn_ms, par_composite, par_warp, par_unattributed, imbalance;
  uint64_t steals = 0, lock_ops = 0, profiled = 0;
  auto window = [&](double seconds, Window* w) {
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const double limit_ms = seconds * 1e3;
    for (int i = 0; ms_since(t0) < limit_ms; i = (i + 1) % kLap) {
      if (i == 0) renderer->reset();
      const Clock::time_point f0 = Clock::now();
      renderer->render(*volume, views[i], *exec, &image, &stats);
      const double ms = ms_since(f0);
      if (hash_image(image) != lap_hash[i]) ++mismatches;
      w->raw_bytes += image.pixel_count() * sizeof(psw::Pixel8);
      ++w->frames;
      (i == 0 ? first_ms : frame_ms).add(ms);
      new_pn_ms.add(ms);
      par_composite.add(stats.composite_ms);
      par_warp.add(stats.warp_ms);
      par_unattributed.add(ms - stats.composite_ms - stats.warp_ms);
      imbalance.add(stats.work_imbalance());
      steals += stats.steals;
      lock_ops += stats.lock_ops;
      profiled += stats.profiled ? 1 : 0;
    }
    w->seconds += ms_since(t0) / 1e3;
    w->cpu_s += process_cpu_seconds() - cpu0;
  };

  // Set-up (prepare: classify + encode on P threads; start the executor;
  // the first frame), the rest of the warm-up lap, then a window of
  // seconds / kSetupReps; repeated. A traced run then makes the per-layer
  // passes below on the last set-up.
  Window main;
  double first_peak_rss_mb = 0.0;  // through the first set-up and window
  for (int rep = 0; rep < kSetupReps; ++rep) {
    renderer.reset();
    exec.reset();
    volume.reset();
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    psw::PrepareTiming timing;
    volume = std::make_unique<psw::EncodedVolume>(psw::prepare_volume(
        inputs.density(key), transfer_for(key), key.classify, prep, nullptr, &timing));
    exec = std::make_unique<psw::ThreadedExecutor>(procs);
    renderer = std::make_unique<psw::NewParallelRenderer>(popt);
    lap_hash.assign(kLap, 0);
    for (int i = 0; i < kLap; ++i) {
      renderer->render(*volume, views[i], *exec, &image, &stats);
      lap_hash[i] = hash_image(image);
      if (i == 0) {
        setup_s.add(process_cpu_seconds() - cpu0);
        setup_wall_s.add(ms_since(t0) / 1e3);
      }
    }
    classify_ms.add(timing.classify_ms);
    encode_ms.add(timing.encode_ms);
    if (first_lap_hash.empty()) first_lap_hash = lap_hash;
    if (lap_hash != first_lap_hash) report->error("a set-up's warm-up lap differs from the first's");
    window(cfg.seconds / kSetupReps, &main);
    if (rep == 0) first_peak_rss_mb = peak_rss_mb();
  }

  report->attempted = main.frames;
  std::printf("# fps: %llu frames in %.3f s\n", static_cast<unsigned long long>(main.frames),
              main.seconds);
  report->layer("fps", main.fps(), "1/s");
  report->percentiles("frame", frame_ms);
  std::printf("# first_frame: n=%zu (one per lap)\n", first_ms.size());
  report->layer("first_frame_p50_ms", first_ms.median(), "ms");
  report->e2e("cpu_ms_per_frame", main.cpu_s * 1e3 / static_cast<double>(main.frames), "ms");
  report->e2e("wire_bytes_per_frame",
              static_cast<double>(main.raw_bytes) / static_cast<double>(main.frames), "B");
  report->e2e("setup_s", setup_s.median(), "s");
  report->layer("setup_wall_s", setup_wall_s.median(), "s");
  report->layer("parallel.classify_ms", classify_ms.median(), "ms");
  report->layer("parallel.encode_ms", encode_ms.median(), "ms");

  if (cfg.traced) {
    const double n = static_cast<double>(main.frames);
    report->layer("parallel.new_pN_ms", new_pn_ms.median(), "ms");
    report->layer("parallel.composite_ms", par_composite.median(), "ms");
    report->layer("parallel.warp_ms", par_warp.median(), "ms");
    report->layer("parallel.unattributed_ms", par_unattributed.median(), "ms");
    report->layer("parallel.imbalance", imbalance.mean(), "ratio");
    report->layer("parallel.steals_per_frame", static_cast<double>(steals) / n, "count");
    report->layer("parallel.lock_ops_per_frame", static_cast<double>(lock_ops) / n, "count");
    report->layer("parallel.profiled_frac", static_cast<double>(profiled) / n, "ratio");

    // The old algorithm at P = nproc and the new one at P = 1, each over
    // whole laps of the same views.
    const double pass_s = cfg.seconds / 6;
    psw::OldParallelRenderer old_renderer(popt);
    const Samples old_ms = timed_laps(pass_s, [&](int i) {
      const Clock::time_point f0 = Clock::now();
      old_renderer.render(*volume, views[i], *exec, &image, &stats);
      const double ms = ms_since(f0);
      if (hash_image(image) != lap_hash[i]) ++mismatches;
      return ms;
    });
    psw::ThreadedExecutor exec1(1);
    psw::NewParallelRenderer renderer1(popt);
    const Samples p1_ms = timed_laps(pass_s, [&](int i) {
      if (i == 0) renderer1.reset();
      const Clock::time_point f0 = Clock::now();
      renderer1.render(*volume, views[i], exec1, &image, &stats);
      return ms_since(f0);
    });
    report->layer("parallel.old_pN_ms", old_ms.median(), "ms");
    report->layer("parallel.new_p1_ms", p1_ms.median(), "ms");
    report->layer("parallel.speedup_pN", p1_ms.median() / new_pn_ms.median(), "ratio");
    report->layer("parallel.new_vs_old_pN", old_ms.median() / new_pn_ms.median(), "ratio");

    // Kernel layer: composite_frame and warp_frame serially on the views.
    psw::IntermediateImage intermediate;
    Samples composite_ms, warp_ms;
    uint64_t lap_voxels = 0;
    double lap_composite_ns = 0.0;
    int kernel_frames = 0;
    timed_laps(pass_s, [&](int i) {
      const psw::Factorization f =
          psw::factorize(views[i], {volume->dim(0), volume->dim(1), volume->dim(2)});
      intermediate.resize(f.intermediate_width, f.intermediate_height);
      const Clock::time_point c0 = Clock::now();
      const psw::CompositeStats cs =
          psw::composite_frame(volume->for_axis(f.principal_axis), f, intermediate);
      const double cms = ms_since(c0);
      image.resize(f.final_width, f.final_height);
      const Clock::time_point w0 = Clock::now();
      psw::warp_frame(intermediate, f, image);
      const double wms = ms_since(w0);
      if (hash_image(image) != lap_hash[i]) ++mismatches;
      composite_ms.add(cms);
      warp_ms.add(wms);
      if (kernel_frames++ < kLap) {  // exactly one lap for the exact counts
        lap_voxels += cs.voxels_composited;
        lap_composite_ns += cms * 1e6;
      }
      return cms + wms;
    });
    report->layer("core.composite_ms", composite_ms.median(), "ms");
    report->layer("core.warp_ms", warp_ms.median(), "ms");
    report->layer("core.voxels_per_frame",
                  static_cast<double>(lap_voxels) / static_cast<double>(kLap), "count");
    report->layer("core.ns_per_voxel", lap_composite_ns / static_cast<double>(lap_voxels), "ns");
  }
  report->e2e("peak_rss_mb", first_peak_rss_mb, "MB");

  // Correctness: every frame of every lap hashed identically to the set-up
  // lap; now pin a fixed sample of those views to SerialRenderer.
  psw::SerialRenderer serial;
  for (int i = 0; i < kLap; i += kVerifyEvery) {
    serial.render(*volume, views[i], &image);
    if (hash_image(image) != lap_hash[i]) {
      report->error("orbit view " + std::to_string(i) + " differs from SerialRenderer");
    }
  }
  if (mismatches > 0) {
    report->error(std::to_string(mismatches) + " orbit frames differ from the same view's set-up frame");
  }
}

}  // namespace perfbench
