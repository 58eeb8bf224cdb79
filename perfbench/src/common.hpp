// Shared machinery of the end-to-end benchmark: run configuration, exact
// sample statistics, frame hashing, process resource readings, the load
// budget, and the metric sink every workload reports into.
//
// The benchmark measures the program from outside: it times its own calls
// into each layer's public functions and reads the stats structs those calls
// return. Nothing here reaches into a layer's internals.
#pragma once
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/rle_volume.hpp"
#include "core/transfer.hpp"
#include "core/volume.hpp"
#include "parallel/prepare.hpp"
#include "serve/request.hpp"
#include "util/image.hpp"
#include "util/sync.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  int nproc = 1;
};

// Exact sample set: every value is kept, quantiles are computed from the
// sorted samples by linear interpolation between closest ranks (the
// "inclusive" definition), never from histogram buckets.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  // Number of samples strictly above quantile(q).
  size_t count_above(double q) const;

 private:
  std::vector<double> values_;
};

// 64-bit hash of a frame's dimensions and pixels. Word-at-a-time so that
// hashing every delivered frame stays a small fraction of a frame's cost.
uint64_t hash_image(const psw::ImageU8& image);

// Process CPU (user + system) seconds, from getrusage.
double process_cpu_seconds();
// Peak resident set of the process in MB (ru_maxrss).
double peak_rss_mb();

// Thread and connection counts of one workload, all derived from nproc.
// Printed before the workload starts; a workload whose client threads or
// client connections exceed nproc is refused.
struct LoadBudget {
  std::vector<std::pair<std::string, int>> counts;
  int client_threads = 0;
  int client_connections = 0;
};
// Prints the budget; returns false (with a message on stderr) when it
// exceeds nproc.
bool check_budget(const LoadBudget& budget, int nproc);

// Metric sink. Workloads record end-to-end and per-layer values under the
// names of BENCHMARK.json; main prints the set the run asked for.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // any entry makes the run incorrect

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void error(const std::string& message) { errors.push_back(message); }
  // Records p50 and p95 of a sample set as <prefix>_p50_ms and
  // <prefix>_p95_ms, printing n and the count beyond p95. Fewer than 10
  // samples beyond p95 is an error (the percentile would rest on too few
  // observations).
  void percentiles(const std::string& prefix, const Samples& s);
};

// Pre-generated phantom densities keyed by VolumeKey::canonical(), and the
// cache builder that prepares them. Inputs are generated from the workload
// seed before any clock starts; the builder then does exactly what
// VolumeCache::phantom_builder does minus the phantom generation: the same
// prepare_volume call with transient storage from a PrepareScratchPool.
class VolumeInputs {
 public:
  // Generates the densities of `keys` on up to `threads` threads.
  void generate(const std::vector<psw::serve::VolumeKey>& keys, int threads);
  const psw::DensityVolume& density(const psw::serve::VolumeKey& key) const;
  // Serial reference preparation (independent of the served build path).
  psw::EncodedVolume prepare_reference(const psw::serve::VolumeKey& key) const;

  // Builder for RenderService / VolumeCache. `prepare_threads` selects the
  // preparation pipeline. Build wall time and stage split are recorded for
  // the per-layer report. The returned builder holds pointers to this
  // object, which must outlive every service using it.
  std::function<std::shared_ptr<const psw::EncodedVolume>(
      const psw::serve::VolumeKey&, psw::PrepareTiming*)>
  builder(int prepare_threads);

  struct BuildRecord {
    double build_ms = 0.0;
    psw::PrepareTiming timing;
  };
  std::vector<BuildRecord> builds() const;
  void clear_builds();

 private:
  std::map<std::string, psw::DensityVolume> densities_;
  psw::PrepareScratchPool scratch_pool_;
  mutable psw::Mutex mutex_;
  std::vector<BuildRecord> builds_ PSW_GUARDED_BY(mutex_);
};

// The transfer function a volume key names (the default builder's rule).
psw::TransferFunction transfer_for(const psw::serve::VolumeKey& key);

// splitmix64 of (seed, stream): the benchmark's only source of derived
// seeds. Never 0 (a zero VolumeKey seed selects the generator default).
uint64_t mix_seed(uint64_t seed, uint64_t stream);

// operator new calls so far: counted by tools/alloc_probe in the traced
// binary, always 0 in the untraced one.
uint64_t alloc_count();

// Workload entry points.
void run_orbit(const RunConfig& cfg, Report* report);
void run_viewers_routed(const RunConfig& cfg, Report* report);
void run_churn_mixed(const RunConfig& cfg, Report* report);

}  // namespace perfbench
