// Experiment harness: builds datasets, traces steady-state frames of either
// parallel algorithm at a simulated processor count, and runs them through
// a machine model. Every bench binary in bench/ is a thin driver over these
// helpers; DESIGN.md maps paper figures to them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analyze/race_check.hpp"
#include "core/classify.hpp"
#include "core/rle_volume.hpp"
#include "memsim/mpsim.hpp"
#include "parallel/options.hpp"
#include "parallel/prepare.hpp"
#include "phantom/phantom.hpp"

namespace psw {

// True when the PSW_VERIFY_TRACES environment variable is set (non-empty,
// not "0"): every trace_frame() call then race-checks the captured streams
// before handing them to a simulator.
bool default_verify_traces();

enum class Algo { kOld, kNew };
const char* algo_name(Algo a);

// A classified + encoded phantom volume ready to render.
struct Dataset {
  std::string name;
  std::array<int, 3> dims{};
  EncodedVolume volume;
  size_t dense_bytes = 0;
  double transparent_fraction = 0.0;
};

// Builds the MRI-brain (kind="mri") or CT-head (kind="ct") phantom at the
// given dimensions, classifies with the matching preset, and encodes.
// `prep` selects the preparation pipeline (serial by default; with
// prep.threads > 1 classification and encoding run on a thread pool with
// bit-identical output).
Dataset make_dataset(const std::string& kind, const std::string& name, int nx, int ny,
                     int nz, const PrepareOptions& prep = {});

// Divides a paper dataset size by `divisor` (benches default to scaled
// volumes so simulator sweeps finish quickly; --scale=full uses divisor 1).
DatasetSpec scale_spec(const DatasetSpec& spec, int divisor);

struct WorkloadOptions {
  double yaw = 0.55;     // steady-state viewpoint (radians)
  double pitch = 0.35;
  double degrees_per_frame = 2.0;  // animation step during warm-up
  int warmup_frames = 2;           // frames before the traced frame
  ParallelOptions parallel;
  // Race-check the traced frames before returning them (throws on a race).
  // Defaults on when PSW_VERIFY_TRACES is set in the environment.
  bool verify_race_free = default_verify_traces();
  uint32_t race_granularity = 4;  // shadow-cell bytes for the verification pass
};

// Traces one steady-state frame at `procs` simulated processors. For the
// new algorithm, warm-up frames (untraced) populate the scanline profile so
// the traced frame uses the predictively balanced contiguous partition.
// Addresses are rebased to a canonical layout (TraceSet::rebase), so a
// workload traces, and simulates, identically in every process.
TraceSet trace_frame(Algo algo, const Dataset& data, int procs,
                     const WorkloadOptions& opt = {});

// Renders the same frame sequence and reports the renderer-level stats of
// the traced frame (lock ops, steals, bounds) without capturing a trace.
ParallelRenderStats frame_stats(Algo algo, const Dataset& data, int procs,
                                const WorkloadOptions& opt = {});

// Traces the same frame sequence as trace_frame() and race-checks it,
// returning the report instead of throwing. The renderer's data structures
// (volume, intermediate/final images, profile) are registered as named
// regions so findings carry their owning structure.
RaceReport check_frame_races(Algo algo, const Dataset& data, int procs,
                             const WorkloadOptions& opt = {},
                             const RaceCheckOptions& ropt = {});

// Runs the machine model over a trace.
SimResult simulate(const MachineConfig& machine, const TraceSet& traces,
                   bool profiled_frame = false);

struct SpeedupPoint {
  int procs = 0;
  double speedup = 0.0;
  double cycles = 0.0;
};

// Simulated self-relative speedup curve T(1)/T(P) on the given machine.
std::vector<SpeedupPoint> speedup_curve(Algo algo, const Dataset& data,
                                        const MachineConfig& machine,
                                        const std::vector<int>& proc_counts,
                                        const WorkloadOptions& opt = {});

}  // namespace psw
