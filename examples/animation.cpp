// Animation: the paper's target workload (§4.1) — render a rotating
// sequence with the NEW parallel renderer on real threads, profiling every
// ~15 degrees and reusing the profile for predictively balanced contiguous
// partitions.
//
//   ./examples/animation [--size=128] [--threads=4] [--frames=45]
//                        [--step=2.0] [--save-every=0]
#include <cstdio>

#include "core/classify.hpp"
#include "parallel/animation.hpp"
#include "parallel/new_renderer.hpp"
#include "phantom/phantom.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace psw;
  const CliFlags flags(argc, argv);
  flags.require_known({"size", "threads", "frames", "step", "save-every"});
  const int n = flags.get_int("size", 128);
  const int threads = flags.get_int("threads", 4);
  const int save_every = flags.get_int("save-every", 0);

  std::printf("building %d^3 MRI phantom...\n", n);
  const DensityVolume density = make_mri_brain(n, n, n);
  const ClassifyOptions copt;
  const ClassifiedVolume classified =
      classify(density, TransferFunction::mri_preset(), copt);
  const EncodedVolume volume = EncodedVolume::build(classified, copt.alpha_threshold);

  AnimationPath path;
  path.dims = {n, n, n};
  path.frames = flags.get_int("frames", 45);
  path.degrees_per_frame = flags.get_double("step", 2.0);

  ParallelOptions popt;
  popt.profile_every = path.profile_interval();
  NewParallelRenderer renderer(popt);
  ThreadedExecutor exec(threads);
  ImageU8 image;
  ParallelRenderStats stats;

  std::printf("rendering %d frames at %.1f deg/frame on %d threads "
              "(re-profiling every %d frames)...\n",
              path.frames, path.degrees_per_frame, threads, popt.profile_every);

  const AnimationSummary summary =
      run_animation(path, [&](int frame, const Camera& cam) {
        renderer.render(volume, cam, exec, &image, &stats);
        if (save_every > 0 && frame % save_every == 0) {
          char name[64];
          std::snprintf(name, sizeof(name), "frame_%03d.ppm", frame);
          write_ppm(name, image);
        }
        return stats;
      });

  std::printf("\n%d frames in %.0f ms -> %.2f frames/sec "
              "(mean %.1f ms, worst %.1f ms)\n",
              summary.frames, summary.total_ms, summary.frames_per_second,
              summary.mean_frame_ms, summary.worst_frame_ms);
  std::printf("profiled frames: %d, steals: %llu, mean work imbalance: %.3f\n",
              summary.profiled_frames,
              static_cast<unsigned long long>(summary.total_steals),
              summary.mean_imbalance);
  std::printf("(the paper targets 10-30 frames/sec interactive rates on "
              "16-32 processor machines)\n");
  return 0;
}
