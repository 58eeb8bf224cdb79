// Old vs new parallel shear warper, side by side: renders the same frame
// with both partitioning schemes on real threads, verifies the images are
// identical, and contrasts their renderer-level behaviour (work balance,
// stealing, locks). Then runs both through the DASH machine model for the
// memory-system view the wall clock of one host cannot show.
//
//   ./examples/compare_algorithms [--size=96] [--threads=8] [--procs=16]
#include <cstdio>

#include "memsim/experiment.hpp"
#include "parallel/new_renderer.hpp"
#include "parallel/old_renderer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace psw;
  const CliFlags flags(argc, argv);
  flags.require_known({"size", "threads", "procs"});
  const int n = flags.get_int("size", 96);
  const int threads = flags.get_int("threads", 8);
  const int sim_procs = flags.get_int("procs", 16);

  std::printf("building %d^3 MRI phantom...\n", n);
  const Dataset data = make_dataset("mri", "example", n, n, n);
  const Camera cam = Camera::orbit(data.dims, 0.55, 0.35);

  // --- Real threads: identical output, different structure. ---
  ThreadedExecutor exec(threads);
  OldParallelRenderer old_renderer;
  NewParallelRenderer new_renderer;
  ImageU8 old_img, new_img;

  ParallelRenderStats old_stats, new_stats;
  for (int frame = 0; frame < 3; ++frame) {  // warm both (profile, caches)
    old_renderer.render(data.volume, cam, exec, &old_img, &old_stats);
    new_renderer.render(data.volume, cam, exec, &new_img, &new_stats);
  }

  bool identical = old_img.pixel_count() == new_img.pixel_count();
  for (size_t i = 0; identical && i < old_img.pixel_count(); ++i) {
    identical = old_img.data()[i] == new_img.data()[i];
  }
  std::printf("images identical: %s\n\n", identical ? "yes" : "NO (bug!)");

  TextTable table({"metric", "old (interleaved chunks)", "new (profiled contiguous)"});
  table.add_row({"frame time ms", fmt(old_stats.total_ms, 1), fmt(new_stats.total_ms, 1)});
  table.add_row({"work imbalance", fmt(old_stats.work_imbalance(), 3),
                 fmt(new_stats.work_imbalance(), 3)});
  table.add_row({"lock ops", std::to_string(old_stats.lock_ops),
                 std::to_string(new_stats.lock_ops)});
  table.add_row({"steals", std::to_string(old_stats.steals),
                 std::to_string(new_stats.steals)});
  table.add_row({"profiled frame", "-", new_stats.profiled ? "yes" : "no"});
  table.print();

  // --- Machine model: the paper's actual claim is about memory systems.
  std::printf("\nsimulating both on the DASH model with %d processors...\n", sim_procs);
  const SimResult old_sim =
      simulate(MachineConfig::dash(), trace_frame(Algo::kOld, data, sim_procs));
  const SimResult new_sim =
      simulate(MachineConfig::dash(), trace_frame(Algo::kNew, data, sim_procs));

  TextTable sim_table({"metric", "old", "new"});
  sim_table.add_row({"total Mcycles", fmt(old_sim.total_cycles / 1e6, 2),
                     fmt(new_sim.total_cycles / 1e6, 2)});
  sim_table.add_row({"true-sharing misses", std::to_string(old_sim.misses_of(MissClass::kTrueShare)),
                     std::to_string(new_sim.misses_of(MissClass::kTrueShare))});
  sim_table.add_row({"false-sharing misses", std::to_string(old_sim.misses_of(MissClass::kFalseShare)),
                     std::to_string(new_sim.misses_of(MissClass::kFalseShare))});
  sim_table.add_row({"memory stall Mcycles", fmt(old_sim.mem_sum() / 1e6, 2),
                     fmt(new_sim.mem_sum() / 1e6, 2)});
  sim_table.print();
  std::printf("\nspeed ratio (old/new cycles): %.2fx\n",
              old_sim.total_cycles / new_sim.total_cycles);
  return 0;
}
