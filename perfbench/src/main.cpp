// perfbench: one workload of the end-to-end benchmark per invocation.
//
//   perfbench --workload=orbit-mri256|viewers-routed|churn-mixed
//             --seed=N --seconds=S
//
// The untraced binary prints the end-to-end metrics; perfbench_traced (same
// sources plus the allocation probe) prints the per-layer metrics. Which
// name is which is declared once, in BENCHMARK.json: perfbench/run.py
// checks the set against it. Progress, sample counts and every figure go
// to stdout as '#' lines; the last line is one JSON object {"correct",
// "attempted", "failed", "metrics"}. Exit status is 0 only when the run
// completed and every output check passed.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/cli.hpp"

namespace {

// Every figure the run produced, gated or not, for a human reader.
void print_figures(const perfbench::Report& report) {
  for (const auto* set : {&report.end_to_end, &report.per_layer}) {
    for (const auto& [name, m] : *set) {
      std::printf("# %s = %.10g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
}

void print_result(const perfbench::Report& report, bool traced) {
  const bool correct = report.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  const auto& metrics = traced ? report.per_layer : report.end_to_end;
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  psw::CliFlags flags(argc, argv);
  flags.require_known({"workload", "seed", "seconds"});
  perfbench::RunConfig cfg;
  cfg.workload = flags.get("workload", "");
  try {
    cfg.seed = static_cast<uint64_t>(std::stoull(flags.get("seed", "1")));
  } catch (const std::exception&) {
    std::fprintf(stderr, "perfbench: --seed must be a non-negative integer\n");
    return 2;
  }
  if (!flags.has("seconds")) {
    std::fprintf(stderr, "perfbench: --seconds is required\n");
    return 2;
  }
  cfg.seconds = flags.get_double("seconds", 0.0);
#ifdef PERFBENCH_TRACED
  cfg.traced = true;
#endif
  cfg.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (cfg.seconds <= 0 || cfg.nproc < 1) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  perfbench::Report report;
  try {
    if (cfg.workload == "orbit-mri256") {
      perfbench::run_orbit(cfg, &report);
    } else if (cfg.workload == "viewers-routed") {
      perfbench::run_viewers_routed(cfg, &report);
    } else if (cfg.workload == "churn-mixed") {
      perfbench::run_churn_mixed(cfg, &report);
    } else {
      std::fprintf(stderr, "perfbench: unknown --workload '%s'\n", cfg.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    report.error(std::string("exception: ") + e.what());
  }
  print_figures(report);
  for (const std::string& e : report.errors) std::fprintf(stderr, "perfbench: FAIL: %s\n", e.c_str());
  std::printf("# attempted=%llu failed=%llu\n", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  print_result(report, cfg.traced);
  std::fflush(stdout);
  return report.errors.empty() ? 0 : 1;
}
