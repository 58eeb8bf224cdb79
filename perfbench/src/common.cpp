#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "core/transfer.hpp"
#include "phantom/phantom.hpp"

#ifdef PERFBENCH_TRACED
#include "tools/alloc_probe.hpp"
#endif

namespace perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

size_t Samples::count_above(double q) const {
  const double cut = quantile(q);
  return static_cast<size_t>(
      std::count_if(values_.begin(), values_.end(), [cut](double v) { return v > cut; }));
}

void Report::percentiles(const std::string& prefix, const Samples& s) {
  const double p50 = s.median();
  const double p95 = s.quantile(0.95);
  const size_t beyond = s.count_above(0.95);
  std::printf("# %s: n=%zu p50=%.4f ms p95=%.4f ms beyond_p95=%zu\n", prefix.c_str(),
              s.size(), p50, p95, beyond);
  if (beyond < 10) {
    error(prefix + ": only " + std::to_string(beyond) +
          " samples beyond p95 (need >= 10); lengthen the run");
  }
  layer(prefix + "_p50_ms", p50, "ms");
  layer(prefix + "_p95_ms", p95, "ms");
}

uint64_t hash_image(const psw::ImageU8& image) {
  uint64_t h = 0x9e3779b97f4a7c15ull ^ (static_cast<uint64_t>(image.width()) << 32) ^
               static_cast<uint64_t>(image.height());
  const auto* bytes = reinterpret_cast<const unsigned char*>(image.data());
  const size_t n = image.pixel_count() * sizeof(psw::Pixel8);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes + i, 8);
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  for (; i < n; ++i) h = (h ^ bytes[i]) * 0x100000001b3ull;
  return h;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

bool check_budget(const LoadBudget& budget, int nproc) {
  std::printf("# load budget (nproc=%d):", nproc);
  for (const auto& [name, count] : budget.counts) std::printf(" %s=%d", name.c_str(), count);
  std::printf(" client_threads=%d client_connections=%d\n", budget.client_threads,
              budget.client_connections);
  if (budget.client_threads > nproc || budget.client_connections > nproc) {
    std::fprintf(stderr,
                 "perfbench: refusing to start: %d client threads / %d connections "
                 "exceed nproc=%d\n",
                 budget.client_threads, budget.client_connections, nproc);
    return false;
  }
  return true;
}

psw::TransferFunction transfer_for(const psw::serve::VolumeKey& key) {
  return key.tf_preset == 1 ? psw::TransferFunction::ct_preset()
                            : psw::TransferFunction::mri_preset();
}

void VolumeInputs::generate(const std::vector<psw::serve::VolumeKey>& keys, int threads) {
  std::vector<std::string> names;
  for (const auto& key : keys) names.push_back(key.canonical());
  std::vector<psw::DensityVolume> out(keys.size());
  std::vector<std::thread> workers;
  const size_t stride = static_cast<size_t>(std::max(1, threads));
  for (size_t t = 0; t < std::min(stride, keys.size()); ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < keys.size(); i += stride) {
        const auto& k = keys[i];
        out[i] = k.kind == "ct" ? psw::make_ct_head(k.nx, k.ny, k.nz, k.seed)
                                : psw::make_mri_brain(k.nx, k.ny, k.nz, k.seed);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (size_t i = 0; i < keys.size(); ++i) densities_[names[i]] = std::move(out[i]);
}

const psw::DensityVolume& VolumeInputs::density(const psw::serve::VolumeKey& key) const {
  const auto it = densities_.find(key.canonical());
  if (it == densities_.end()) {
    throw std::runtime_error("perfbench: no pre-generated density for " + key.canonical());
  }
  return it->second;
}

psw::EncodedVolume VolumeInputs::prepare_reference(const psw::serve::VolumeKey& key) const {
  return psw::prepare_volume(density(key), transfer_for(key), key.classify);
}

std::function<std::shared_ptr<const psw::EncodedVolume>(const psw::serve::VolumeKey&,
                                                        psw::PrepareTiming*)>
VolumeInputs::builder(int prepare_threads) {
  psw::PrepareOptions prep;
  prep.threads = prepare_threads;
  return [this, prep](const psw::serve::VolumeKey& key, psw::PrepareTiming* timing) {
    const Clock::time_point t0 = Clock::now();
    psw::PrepareTiming local;
    std::unique_ptr<psw::PrepareScratch> scratch = scratch_pool_.acquire();
    auto volume = std::make_shared<const psw::EncodedVolume>(psw::prepare_volume(
        density(key), transfer_for(key), key.classify, prep, nullptr, &local, scratch.get()));
    scratch_pool_.release(std::move(scratch));
    if (timing) *timing = local;
    const double ms = ms_since(t0);
    psw::MutexLock lock(mutex_);
    builds_.push_back({ms, local});
    return volume;
  };
}

std::vector<VolumeInputs::BuildRecord> VolumeInputs::builds() const {
  psw::MutexLock lock(mutex_);
  return builds_;
}

void VolumeInputs::clear_builds() {
  psw::MutexLock lock(mutex_);
  builds_.clear();
}

uint64_t mix_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) | 1;
}

uint64_t alloc_count() {
#ifdef PERFBENCH_TRACED
  return psw::tools::alloc_snapshot().allocations;
#else
  return 0;
#endif
}

}  // namespace perfbench
