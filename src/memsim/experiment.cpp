#include "memsim/experiment.hpp"

#include <cstdlib>
#include <stdexcept>

#include "parallel/new_renderer.hpp"
#include "parallel/old_renderer.hpp"

namespace psw {

namespace {

constexpr double kDeg = 3.14159265358979323846 / 180.0;

Camera warmup_camera(const WorkloadOptions& opt, const std::array<int, 3>& dims,
                     int frame, int total_warmup) {
  // Warm-up frames approach the measured viewpoint from below so the traced
  // frame's profile matches an ongoing rotation, as in the paper's
  // animation workload.
  const double yaw = opt.yaw - (total_warmup - frame) * opt.degrees_per_frame * kDeg;
  return Camera::orbit(dims, yaw, opt.pitch);
}

// Traced frames plus the renderer's address regions, captured while the
// renderer (and its intermediate image / profile) is still alive.
struct TracedRun {
  TraceSet traces;
  RegionRegistry regions;
};

TracedRun run_traced(Algo algo, const Dataset& data, int procs,
                     const WorkloadOptions& opt) {
  const Camera cam = Camera::orbit(data.dims, opt.yaw, opt.pitch);
  ImageU8 out;
  ParallelRenderStats stats;
  // Two identical frames are traced; the simulator treats the first as
  // cache/directory warm-up so the second measures steady state, where the
  // cross-phase and cross-frame sharing behaviour the paper studies is
  // visible as coherence misses.
  if (algo == Algo::kOld) {
    OldParallelRenderer renderer(opt.parallel);
    SerialExecutor warm(procs);
    renderer.render(data.volume, cam, warm, &out, &stats);
    TracingExecutor traced(procs);
    renderer.render(data.volume, cam, traced, &out, &stats);
    renderer.render(data.volume, cam, traced, &out, &stats);
    TracedRun run{std::move(traced.traces()), {}};
    register_render_regions(&run.regions, data.volume, renderer.intermediate(), out,
                            nullptr);
    return run;
  }
  NewParallelRenderer renderer(opt.parallel);
  SerialExecutor warm(procs);
  for (int frame = 0; frame < std::max(1, opt.warmup_frames); ++frame) {
    renderer.render(data.volume, warmup_camera(opt, data.dims, frame, opt.warmup_frames),
                    warm, &out, &stats);
  }
  TracingExecutor traced(procs);
  renderer.render(data.volume, cam, traced, &out, &stats);
  renderer.render(data.volume, cam, traced, &out, &stats);
  TracedRun run{std::move(traced.traces()), {}};
  register_render_regions(&run.regions, data.volume, renderer.intermediate(), out,
                          &renderer.profile());
  return run;
}

}  // namespace

const char* algo_name(Algo a) { return a == Algo::kOld ? "old" : "new"; }

bool default_verify_traces() {
  // Read once at first use. getenv is not thread-safe against concurrent
  // setenv, but nothing in this codebase mutates the environment.
  static const bool enabled = [] {
    const char* v = std::getenv("PSW_VERIFY_TRACES");  // NOLINT(concurrency-mt-unsafe)
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return enabled;
}

Dataset make_dataset(const std::string& kind, const std::string& name, int nx, int ny,
                     int nz, const PrepareOptions& prep) {
  Dataset d;
  d.name = name;
  d.dims = {nx, ny, nz};
  const DensityVolume density =
      kind == "ct" ? make_ct_head(nx, ny, nz) : make_mri_brain(nx, ny, nz);
  const TransferFunction tf =
      kind == "ct" ? TransferFunction::ct_preset() : TransferFunction::mri_preset();
  const ClassifyOptions copt;
  ClassifiedVolume classified;
  d.volume = prepare_volume(density, tf, copt, prep, &classified);
  d.transparent_fraction =
      classified_transparent_fraction(classified, copt.alpha_threshold);
  d.dense_bytes = classified.size() * sizeof(ClassifiedVoxel);
  return d;
}

DatasetSpec scale_spec(const DatasetSpec& spec, int divisor) {
  DatasetSpec s = spec;
  s.nx = std::max(16, spec.nx / divisor);
  s.ny = std::max(16, spec.ny / divisor);
  s.nz = std::max(16, spec.nz / divisor);
  return s;
}

TraceSet trace_frame(Algo algo, const Dataset& data, int procs,
                     const WorkloadOptions& opt) {
  TracedRun run = run_traced(algo, data, procs, opt);
  if (opt.verify_race_free) {
    RaceCheckOptions ropt;
    ropt.granularity = opt.race_granularity;
    const RaceReport report = check_races(run.traces, run.regions, ropt);
    if (!report.clean()) {
      throw std::runtime_error(std::string("data race in ") + algo_name(algo) +
                               " renderer trace (" + data.name + "):\n" +
                               report.summary(run.traces));
    }
  }
  // The renderer's structures cover every traced access; laying them out
  // canonically makes the simulated figures independent of heap placement.
  run.traces.rebase(run.regions.ranges());
  return std::move(run.traces);
}

RaceReport check_frame_races(Algo algo, const Dataset& data, int procs,
                             const WorkloadOptions& opt,
                             const RaceCheckOptions& ropt) {
  const TracedRun run = run_traced(algo, data, procs, opt);
  return check_races(run.traces, run.regions, ropt);
}

ParallelRenderStats frame_stats(Algo algo, const Dataset& data, int procs,
                                const WorkloadOptions& opt) {
  const Camera cam = Camera::orbit(data.dims, opt.yaw, opt.pitch);
  ImageU8 out;
  ParallelRenderStats stats;
  SerialExecutor exec(procs);
  if (algo == Algo::kOld) {
    OldParallelRenderer renderer(opt.parallel);
    renderer.render(data.volume, cam, exec, &out, &stats);
    renderer.render(data.volume, cam, exec, &out, &stats);
    return stats;
  }
  NewParallelRenderer renderer(opt.parallel);
  for (int frame = 0; frame < std::max(1, opt.warmup_frames); ++frame) {
    renderer.render(data.volume, warmup_camera(opt, data.dims, frame, opt.warmup_frames),
                    exec, &out, &stats);
  }
  renderer.render(data.volume, cam, exec, &out, &stats);
  return stats;
}

SimResult simulate(const MachineConfig& machine, const TraceSet& traces,
                   bool profiled_frame) {
  MultiProcSim sim(machine, traces.procs());
  SimOptions opt;
  opt.profiled_frame = profiled_frame;
  // trace_frame() records two identical frames; the first is warm-up.
  opt.warmup_intervals = traces.intervals() / 2;
  return sim.run(traces, opt);
}

std::vector<SpeedupPoint> speedup_curve(Algo algo, const Dataset& data,
                                        const MachineConfig& machine,
                                        const std::vector<int>& proc_counts,
                                        const WorkloadOptions& opt) {
  const TraceSet base_trace = trace_frame(algo, data, 1, opt);
  const double t1 = simulate(machine, base_trace).total_cycles;

  std::vector<SpeedupPoint> curve;
  for (int procs : proc_counts) {
    SpeedupPoint point;
    point.procs = procs;
    if (procs == 1) {
      point.cycles = t1;
    } else {
      const TraceSet traces = trace_frame(algo, data, procs, opt);
      point.cycles = simulate(machine, traces).total_cycles;
    }
    point.speedup = point.cycles > 0 ? t1 / point.cycles : 0.0;
    curve.push_back(point);
  }
  return curve;
}

}  // namespace psw
