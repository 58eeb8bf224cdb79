// The paper's figures, regenerated and checked. Each entry of figures()
// names a figure, the shape the paper reports, the function that measures
// and prints its tables, and its claims: EXPERIMENTS.md's verdicts as rules
// over the printed numbers, each pinned to the dataset scales where it holds.
//
//   figures [--fig=13,14] [--scale=half|quarter|full] [--procs=1,2,4,8,16,32]
//           [--prepare-threads=N]
//
// --fig picks figures by id (all when absent). --scale divides the paper's
// dataset dimensions (default half) and the simulated caches by its square.
// Claims print PASS/FAIL with the measured value, EXPECTED for a known
// deviation (never fails; says whether it still reproduces), or SKIP when
// pinned to another scale or not measured. Exit status 1 if a claim fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baseline/raycaster.hpp"
#include "core/renderer.hpp"
#include "memsim/experiment.hpp"
#include "parallel/new_renderer.hpp"
#include "svmsim/svm.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace psw {
namespace {

constexpr Algo kOld = Algo::kOld;
constexpr Algo kNew = Algo::kNew;
constexpr int kFrames = 3;         // repetitions of each wall-clock Figure 2 stage
constexpr int kDetailProcs = 32;   // line-size and working-set figures
constexpr int kAblationProcs = 16;
const std::vector<int> kLineSizes{16, 32, 64, 128, 256};
const std::vector<int> kCacheKb{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
const std::vector<std::string> kMriSets{"mri-128", "mri-256", "mri-512"};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out(1);
  for (char ch : s) {
    if (ch == sep) {
      out.emplace_back();
    } else {
      out.back() += ch;
    }
  }
  return out;
}

// Scaled machines and datasets; each dataset is built once per process.
class Context {
 public:
  explicit Context(const CliFlags& flags) {
    const std::string scale = flags.get("scale", "half");
    divisor_ = scale == "full" ? 1 : (scale == "quarter" ? 4 : 2);
    const unsigned hw = std::thread::hardware_concurrency();
    prepare_.threads = flags.get_int("prepare-threads", hw > 0 ? static_cast<int>(hw) : 1);
    for (const std::string& p : split(flags.get("procs", "1,2,4,8,16,32"), ',')) {
      procs_.push_back(std::atoi(p.c_str()));
    }
  }

  int divisor() const { return divisor_; }
  std::vector<int> procs(int lo = 1, int hi = 1 << 30) const {
    std::vector<int> out;
    std::copy_if(procs_.begin(), procs_.end(), std::back_inserter(out),
                 [&](int p) { return p >= lo && p <= hi; });
    return out;
  }

  // Scales a machine's cache capacity with the dataset divisor (by
  // divisor^2, the growth rate of the algorithm's plane working set, §3.4.4)
  // so that the working-set/cache and volume/aggregate-cache ratios that
  // drive the paper's results are preserved at reduced dataset scale.
  MachineConfig machine(MachineConfig m) const {
    m.cache_bytes = std::max<uint64_t>(16u << 10, m.cache_bytes / (divisor_ * divisor_));
    return m;
  }

  // A scaled paper dataset by name: "mri-128" ... "mri-640", "ct-512".
  const Dataset& data(const std::string& paper_name) {
    auto it = cache_.find(paper_name);
    if (it != cache_.end()) return it->second;
    std::vector<DatasetSpec> specs(std::begin(kMriSpecs), std::end(kMriSpecs));
    specs.insert(specs.end(), std::begin(kCtSpecs), std::end(kCtSpecs));
    const DatasetSpec s = scale_spec(
        *std::find_if(specs.begin(), specs.end(), [&](auto& x) { return paper_name == x.name; }),
        divisor_);
    std::string name = paper_name;
    if (divisor_ > 1) name += '/' + std::to_string(divisor_);
    std::fprintf(stderr, "[figures] building %s (%dx%dx%d)...\n", name.c_str(), s.nx, s.ny,
                 s.nz);
    const std::string kind = paper_name.substr(0, paper_name.find('-'));
    Dataset d = make_dataset(kind, name, s.nx, s.ny, s.nz, prepare_);
    return cache_.emplace(paper_name, std::move(d)).first->second;
  }

 private:
  int divisor_ = 2;
  PrepareOptions prepare_;
  std::vector<int> procs_;
  std::map<std::string, Dataset> cache_;
};

// The numbers a figure printed, keyed "table|column|row".
using Record = std::map<std::string, double>;

// A printed table whose cells also go into the figure's Record. NaN prints
// as "-"; `digits` gives each value column's precision, the last repeating.
class Table {
 public:
  Table(Record& rec, std::string key, std::vector<std::string> header, std::vector<int> digits)
      : rec_(rec), key_(std::move(key)), header_(header), digits_(std::move(digits)),
        table_(std::move(header)) {}

  void row(const std::string& label, const std::vector<double>& values) {
    std::vector<std::string> cells{label};
    for (size_t i = 0; i < values.size(); ++i) {
      const int d = digits_[std::min(i, digits_.size() - 1)];
      cells.push_back(std::isnan(values[i]) ? "-" : fmt(values[i], d));
      rec_[key_ + '|' + header_[i + 1] + '|' + label] = values[i];
    }
    table_.add_row(std::move(cells));
  }
  void print() const { table_.print(); }

 private:
  Record& rec_;
  std::string key_;
  std::vector<std::string> header_;
  std::vector<int> digits_;
  TextTable table_;
};

void section(const std::string& title) { std::printf("\n--- %s ---\n", title.c_str()); }

// --- old/new speedup curves --------------------------------------------------

struct Curve {
  std::string label;
  Algo algo;
  std::string data;
  MachineConfig machine;
};

// Self-relative speedups T(1)/T(P), one column per curve, plus new/old
// when `ratio` (the curves are then old, new).
void speedup_table(Context& ctx, Record& rec, const std::string& key,
                   const std::vector<int>& procs, const std::vector<Curve>& curves,
                   bool ratio = false) {
  std::vector<std::string> header{"procs"};
  std::vector<std::vector<SpeedupPoint>> points;
  for (const Curve& c : curves) {
    std::fprintf(stderr, "[figures] %s %s %s...\n", c.machine.name.c_str(), algo_name(c.algo),
                 c.data.c_str());
    points.push_back(speedup_curve(c.algo, ctx.data(c.data), c.machine, procs));
    header.push_back(c.label);
  }
  if (ratio) header.push_back("new/old");
  Table t(rec, key, header, {2});
  for (size_t i = 0; i < procs.size(); ++i) {
    std::vector<double> row;
    for (const auto& p : points) row.push_back(p[i].speedup);
    if (ratio) row.push_back(points[1][i].speedup / std::max(1e-9, points[0][i].speedup));
    t.row(std::to_string(procs[i]), row);
  }
  t.print();
}

// Old vs new: one table per MRI set, or per machine for the CT head.
void old_vs_new(Context& ctx, Record& rec, const std::vector<MachineConfig>& machines,
                bool ct) {
  for (const MachineConfig& machine : machines) {
    const MachineConfig m = ctx.machine(machine);
    for (const std::string& set : ct ? std::vector<std::string>{"ct-512"} : kMriSets) {
      section(ct ? m.name : set);
      speedup_table(ctx, rec, ct ? m.name : set, ctx.procs(),
                    {{"old", kOld, set, m}, {"new", kNew, set, m}}, !ct);
    }
  }
}

// --- simulated memory behaviour ----------------------------------------------

using Metric = std::function<double(const SimResult&)>;

Metric rate(MissClass c) {
  return [c](const SimResult& r) { return 100 * r.miss_rate_of(c); };
}
Metric total_rate(bool with_cold) {
  return [with_cold](const SimResult& r) { return 100 * r.miss_rate(with_cold); };
}
Metric share(double (SimResult::*part)() const) {
  return [part](const SimResult& r) {
    const double total = r.busy_sum() + r.mem_sum() + r.sync_sum();
    return total > 0 ? 100 * (r.*part)() / total : 0;
  };
}

struct Col {
  std::string label;
  Algo algo;
  std::string data;
  int procs;  // 0: the row value is the processor count
  Metric metric;
  int digits = 3;
};

// Rows over a parameter; each cell is a metric of one traced frame on
// machine(row). Each distinct trace is made once (once per row when the
// row is the processor count) and simulated once per row.
void sim_table(Context& ctx, Record& rec, const std::string& key, const char* row_name,
               const std::vector<int>& rows, const std::function<MachineConfig(int)>& machine,
               const std::vector<Col>& cols) {
  using TraceKey = std::tuple<Algo, std::string, int>;
  std::map<TraceKey, TraceSet> traces;
  std::vector<std::string> header{row_name};
  std::vector<int> digits;
  for (const Col& c : cols) {
    header.push_back(c.label);
    digits.push_back(c.digits);
  }
  Table t(rec, key, header, digits);
  for (int row : rows) {
    if (cols[0].procs == 0) traces.clear();
    std::map<TraceKey, SimResult> results;
    std::vector<double> values;
    for (const Col& c : cols) {
      const TraceKey k{c.algo, c.data, c.procs == 0 ? row : c.procs};
      if (traces.count(k) == 0) {
        std::fprintf(stderr, "[figures] tracing %s %s P=%d...\n", algo_name(c.algo),
                     c.data.c_str(), std::get<2>(k));
        traces.emplace(k, trace_frame(c.algo, ctx.data(c.data), std::get<2>(k)));
      }
      if (results.count(k) == 0) results.emplace(k, simulate(machine(row), traces.at(k)));
      values.push_back(c.metric(results.at(k)));
    }
    t.row(std::to_string(row), values);
  }
  t.print();
}

// Busy / memory / sync shares of 512-class MRI frames vs processors.
void breakdown(Context& ctx, Record& rec, const MachineConfig& machine,
               const std::vector<Algo>& algos) {
  const MachineConfig m = ctx.machine(machine);
  section(m.name);
  std::vector<Col> cols;
  for (Algo a : algos) {
    const std::string pre = algos.size() > 1 ? std::string(algo_name(a)) + " " : "";
    cols.push_back({pre + "busy %", a, "mri-512", 0, share(&SimResult::busy_sum), 1});
    cols.push_back({pre + (pre.empty() ? "memory %" : "mem %"), a, "mri-512", 0,
                    share(&SimResult::mem_sum), 1});
    cols.push_back({pre + "sync %", a, "mri-512", 0, share(&SimResult::sync_sum), 1});
  }
  sim_table(ctx, rec, m.name, "procs", ctx.procs(), [m](int) { return m; }, cols);
}

// Miss rate by class (cold misses omitted, as in the paper) vs processors
// on the Simulator, 512-class MRI.
void misses(Context& ctx, Record& rec, const std::string& key, Algo algo, bool remote) {
  std::vector<Col> cols{{"capacity %", algo, "mri-512", 0, rate(MissClass::kCapacity)},
                        {"conflict %", algo, "mri-512", 0, rate(MissClass::kConflict)},
                        {"true-share %", algo, "mri-512", 0, rate(MissClass::kTrueShare)},
                        {"false-share %", algo, "mri-512", 0, rate(MissClass::kFalseShare)},
                        {"total %", algo, "mri-512", 0, total_rate(false)}};
  if (remote) {
    cols.push_back({"remote frac", algo, "mri-512", 0,
                    [](const SimResult& r) { return r.remote_fraction(); }, 2});
  }
  const MachineConfig m = ctx.machine(MachineConfig::simulator());
  sim_table(ctx, rec, key, "procs", ctx.procs(), [m](int) { return m; }, cols);
}

// Miss rates vs cache line size on the Simulator.
void line_sizes(Context& ctx, Record& rec, const std::vector<Col>& cols) {
  const MachineConfig base = ctx.machine(MachineConfig::simulator());
  const auto machine = [base](int line) {
    MachineConfig m = base;
    m.line_bytes = line;
    return m;
  };
  sim_table(ctx, rec, "", "line B", kLineSizes, machine, cols);
}

// Total miss rate vs per-processor cache size on the unscaled Simulator.
// Columns are labelled "P=<procs>" when they all trace one set, else by set.
void working_sets(Context& ctx, Record& rec, const std::string& key, Algo algo,
                  const std::vector<std::pair<std::string, int>>& sets_and_procs) {
  std::vector<Col> cols;
  for (const auto& [set, procs] : sets_and_procs) {
    const std::string label = sets_and_procs[0].first == sets_and_procs.back().first
                                  ? "P=" + std::to_string(procs)
                                  : set;
    cols.push_back({label, algo, set, procs, total_rate(true)});
  }
  const auto machine = [](int kb) {
    MachineConfig m = MachineConfig::simulator();
    m.cache_bytes = static_cast<uint64_t>(kb) << 10;
    return m;
  };
  sim_table(ctx, rec, key, "cache KB", kCacheKb, machine, cols);
}

// --- SVM ---------------------------------------------------------------------

// One SVM run over a traced frame; the first half of the intervals warms
// the protocol up uncounted.
SvmResult svm_run(const TraceSet& traces, bool p2p, uint64_t lock_ops) {
  SvmRunOptions opt;
  opt.warmup_intervals = traces.intervals() / 2;
  opt.p2p_interphase_sync = p2p;
  opt.lock_ops = lock_ops;
  return svm_simulate(SvmConfig{}, traces, opt);
}

// Each algorithm as the paper ran it on SVM: the new one syncs its phases
// point to point, and both pay the traced frame's task-queue lock traffic.
SvmResult svm_frame(Algo algo, const Dataset& data, int procs) {
  const TraceSet traces = trace_frame(algo, data, procs);
  return svm_run(traces, algo == kNew, frame_stats(algo, data, procs, {}).lock_ops);
}

void svm_speedups(Context& ctx, Record& rec) {
  for (const std::string& set : kMriSets) {
    const Dataset& data = ctx.data(set);
    section(set);
    const double old_t1 = svm_frame(kOld, data, 1).total_cycles;
    const double new_t1 = svm_frame(kNew, data, 1).total_cycles;
    Table t(rec, set, {"procs", "old", "new"}, {2});
    for (int p : ctx.procs(4)) {  // whole SMP nodes
      std::fprintf(stderr, "[figures] %s P=%d...\n", set.c_str(), p);
      t.row(std::to_string(p), {old_t1 / svm_frame(kOld, data, p).total_cycles,
                                new_t1 / svm_frame(kNew, data, p).total_cycles});
    }
    t.print();
  }
}

void svm_breakdown(Context& ctx, Record& rec, Algo algo) {
  Table t(rec, "",
          {"procs", "compute %", "data %", "lock %", "barrier %", "faults", "multi-writer pages"},
          {1, 1, 1, 1, 0});
  for (int p : ctx.procs(4)) {
    std::fprintf(stderr, "[figures] P=%d...\n", p);
    const SvmResult r = svm_frame(algo, ctx.data("mri-512"), p);
    const double total = r.compute_sum() + r.data_sum() + r.lock_sum() + r.barrier_sum();
    t.row(std::to_string(p),
          {100 * r.compute_sum() / total, 100 * r.data_sum() / total, 100 * r.lock_sum() / total,
           100 * r.barrier_sum() / total, static_cast<double>(r.page_faults),
           static_cast<double>(r.multi_writer_pages)});
  }
  t.print();
}

// --- bespoke figures ---------------------------------------------------------

// Figure 2: serial time of the ray caster vs the shear warper, each split
// into looping (the traversal-only instantiation of the same kernel) and
// compute. Each stage reports its
// fastest of kFrames repetitions: a repetition preempted by other work
// (ctest -j) can only be slower, so the minimum is the stable estimate.
void serial_breakdown(Context& ctx, Record& rec) {
  const Dataset& data = ctx.data("mri-256");
  // Rebuild the classified volume for the ray caster (same preset).
  const DatasetSpec spec = scale_spec({"mri-256", 256, 256, 167}, ctx.divisor());
  const ClassifiedVolume classified =
      classify(make_mri_brain(spec.nx, spec.ny, spec.nz), TransferFunction::mri_preset());
  const Camera cam = Camera::orbit(data.dims, 0.55, 0.35);
  const Factorization f = factorize(cam, data.dims);
  const RleVolume& rle = data.volume.for_axis(f.principal_axis);
  IntermediateImage img(f.intermediate_width, f.intermediate_height);
  ImageU8 final_img(f.final_width, f.final_height);
  double sw_composite = INFINITY, sw_loop = INFINITY, sw_warp = INFINITY;
  double rc_total = INFINITY, rc_loop = INFINITY;
  for (int frame = 0; frame < kFrames; ++frame) {
    img.clear();
    WallTimer t1;
    for (int v = 0; v < img.height(); ++v) composite_scanline(rle, f, v, img);
    sw_composite = std::min(sw_composite, t1.millis());
    WallTimer t2;
    warp_frame(img, f, final_img);
    sw_warp = std::min(sw_warp, t2.millis());
    IntermediateImage scratch(f.intermediate_width, f.intermediate_height);
    WallTimer t3;
    for (int v = 0; v < scratch.height(); ++v) {
      composite_scanline_traversal_only(rle, f, v, scratch);
    }
    sw_loop = std::min(sw_loop, t3.millis());
  }
  const RayCaster caster(classified, ClassifyOptions{}.alpha_threshold);
  for (int frame = 0; frame < kFrames; ++frame) {
    ImageU8 out;
    RayCastOptions opt;
    rc_total = std::min(rc_total, caster.render(cam, &out, opt).total_ms);
    opt.traversal_only = true;
    rc_loop = std::min(rc_loop, caster.render(cam, &out, opt).total_ms);
  }
  // Traversal-only cannot early-terminate, so it bounds looping from above.
  sw_loop = std::min(sw_loop, sw_composite);
  rc_loop = std::min(rc_loop, rc_total);

  Table t(rec, "", {"renderer", "looping ms", "compute ms", "warp ms", "total ms", "loop %"},
          {1, 1, 1, 1, 0});
  const double sw_total = sw_composite + sw_warp;
  t.row("ray caster (r-c)", {rc_loop, rc_total - rc_loop, NAN, rc_total, 100 * rc_loop / rc_total});
  t.row("shear warper (s-w)",
        {sw_loop, sw_composite - sw_loop, sw_warp, sw_total, 100 * sw_loop / sw_total});
  t.print();
  std::printf("\nray-caster / shear-warper total time ratio: %.1fx (paper: 4-7x)\n",
              rc_total / sw_total);
}

// Figure 10: the per-scanline compositing-cost profile of one frame.
void profile(Context& ctx, Record& rec) {
  const Dataset& data = ctx.data("mri-256");
  NewParallelRenderer renderer;
  SerialExecutor exec(1);
  ImageU8 out;
  ParallelRenderStats stats;
  renderer.render(data.volume, Camera::orbit(data.dims, 0.55, 0.35), exec, &out, &stats);
  const auto& cost = renderer.profile().cost();
  const int height = static_cast<int>(cost.size());
  const int lo = stats.active_lo, hi = stats.active_hi;
  std::printf("intermediate image: %d x %d (paper: 326 x 326 at full scale)\n",
              renderer.intermediate().width(), height);
  std::printf("active scanlines: [%d, %d) of %d — %.0f%% of the image is composited\n\n", lo, hi,
              height, 100.0 * (hi - lo) / height);
  rec["||empty above"] = lo;
  rec["||empty below"] = height - hi;
  // Mean cost per scanline of the middle third of the active range over
  // that of the outer thirds: above 1 for a bell-shaped profile.
  const int third = (hi - lo) / 3;
  double middle = 0, outer = 0;
  for (int v = lo; v < hi; ++v) (v >= lo + third && v < hi - third ? middle : outer) += cost[v];
  rec["||bell"] = (middle / third) / (outer / (hi - lo - third));

  uint64_t peak = 1;
  for (uint32_t c : cost) peak = std::max<uint64_t>(peak, c);
  const int buckets = 48;
  std::printf("scanline profile (each row = %d scanlines, bar = relative cost):\n",
              (height + buckets - 1) / buckets);
  for (int b = 0; b < buckets; ++b) {
    const int b_lo = b * height / buckets, b_hi = (b + 1) * height / buckets;
    uint64_t total = 0;
    for (int v = b_lo; v < b_hi; ++v) total += cost[v];
    const double mean = b_hi > b_lo ? static_cast<double>(total) / (b_hi - b_lo) : 0;
    std::printf("%4d | %s\n", b_lo, std::string(static_cast<int>(56.0 * mean / peak), '#').c_str());
  }
}

// Ablations of the partitioning design choices DESIGN.md calls out.
void ablations(Context& ctx, Record& rec) {
  const Dataset& data = ctx.data("mri-256");
  const int procs = kAblationProcs;
  std::printf("\n--- (1) initial-assignment balance, %d procs (no stealing) ---\n", procs);
  Table balance(rec, "1", {"partition", "work imbalance (max/mean - 1)"}, {3});
  for (bool profiled : {false, true}) {
    ParallelOptions opt;
    opt.stealing = false;
    opt.profile_every = 1000;
    NewParallelRenderer renderer(opt);
    SerialExecutor exec(procs);
    ImageU8 out;
    const Camera cam = Camera::orbit(data.dims, 0.55, 0.35);
    // Frame 1 always uses the uniform partition; frame 2 the profile.
    ParallelRenderStats stats;
    renderer.render(data.volume, cam, exec, &out, &stats);
    if (profiled) renderer.render(data.volume, cam, exec, &out, &stats);
    balance.row(profiled ? "profiled contiguous (§4.3)" : "uniform contiguous",
                {stats.work_imbalance()});
  }
  balance.print();

  std::printf("\n--- (2) stealing unit: lock operations per frame (new algo) ---\n");
  Table stealing(rec, "2", {"chunk scanlines", "lock ops", "steals"}, {0});
  for (int chunk : {1, 2, 4, 8, 16}) {
    WorkloadOptions wopt;
    wopt.parallel.chunk_scanlines = chunk;
    const ParallelRenderStats stats = frame_stats(kNew, data, procs, wopt);
    stealing.row(std::to_string(chunk),
                 {static_cast<double>(stats.lock_ops), static_cast<double>(stats.steals)});
  }
  stealing.print();
  std::printf("(the paper found 1-scanline stealing cost ~10x the lock traffic)\n");

  // (3) and (4): the old algorithm's simulated cycles (DASH) as one task
  // parameter varies; "edge/best" is the cheaper end of the sweep over its
  // minimum, above 1 when the best setting is an interior one.
  const auto sweep = [&](const char* key, const char* param, const std::vector<int>& values,
                         int ParallelOptions::*field, bool true_share) {
    std::vector<std::string> header{param, "Mcycles (DASH model)"};
    if (true_share) header.push_back("true-share %");
    Table t(rec, key, header, {2, 3});
    std::vector<double> cycles;
    for (int v : values) {
      WorkloadOptions wopt;
      wopt.parallel.*field = v;
      const SimResult r =
          simulate(ctx.machine(MachineConfig::dash()), trace_frame(kOld, data, procs, wopt));
      cycles.push_back(r.total_cycles / 1e6);
      std::vector<double> row{cycles.back()};
      if (true_share) row.push_back(100 * r.miss_rate_of(MissClass::kTrueShare));
      t.row(std::to_string(v), row);
    }
    t.print();
    rec[std::string(key) + "||edge/best"] = std::min(cycles.front(), cycles.back()) /
                                            *std::min_element(cycles.begin(), cycles.end());
  };
  std::printf("\n--- (3) old-algorithm task size vs simulated cycles (%d procs) ---\n", procs);
  sweep("3", "chunk scanlines", {1, 2, 4, 8, 16, 32}, &ParallelOptions::chunk_scanlines, true);
  std::printf("\n--- (4) old-algorithm warp tile size vs simulated cycles ---\n");
  sweep("4", "tile", {8, 16, 32, 64, 128}, &ParallelOptions::warp_tile, false);

  std::printf("\n--- (5) barrier vs p2p inter-phase sync on SVM (new algo) ---\n");
  const TraceSet traces = trace_frame(kNew, data, procs);
  Table sync(rec, "5", {"sync", "Mcycles (SVM model)"}, {2});
  for (bool p2p : {false, true}) {
    sync.row(p2p ? "p2p neighbour flags (§5.5.2)" : "global barrier",
             {svm_run(traces, p2p, 0).total_cycles / 1e6});
  }
  sync.print();
}

// Extension (§6 future work): the 640-class set up to 64 processors.
void extension(Context& ctx, Record& rec) {
  const MachineConfig m = ctx.machine(MachineConfig::simulator());
  speedup_table(ctx, rec, "", {1, 8, 16, 32, 64},
                {{"old", kOld, "mri-640", m}, {"new", kNew, "mri-640", m}}, true);
  std::printf("\nmiss breakdown at 64 processors:\n");
  Table miss(rec, "64", {"algorithm", "capacity %", "true-share %", "false-share %", "remote frac"},
             {3, 3, 3, 2});
  for (Algo algo : {kOld, kNew}) {
    const SimResult r = simulate(m, trace_frame(algo, ctx.data("mri-640"), 64));
    miss.row(algo_name(algo), {100 * r.miss_rate_of(MissClass::kCapacity),
                               100 * r.miss_rate_of(MissClass::kTrueShare),
                               100 * r.miss_rate_of(MissClass::kFalseShare), r.remote_fraction()});
  }
  miss.print();
}

// --- claims ------------------------------------------------------------------

// The scales a claim is pinned to, one bit per dataset divisor.
constexpr unsigned kFull = 1, kHalf = 2, kQuarter = 4, kBoth = kHalf | kQuarter;

// A claim's rule is "CELLS < bound", "CELLS > bound" or "CELLS rises".
// CELLS is a grid "tables|columns|rows" of comma lists (enumerated tables
// outermost), or two equal-sized grids joined by " / " or " + ". The rule
// holds when every cell is below (above) the bound, or when the cells rise
// strictly in order.
struct Claim {
  const char* id;
  unsigned scales;  // where it is pinned
  int deviation;    // the EXPERIMENTS.md known deviation it tracks, or 0
  const char* rule;
};

struct Figure {
  const char* id;  // the --fig value
  const char* name;
  const char* what;
  const char* shape;
  void (*run)(Context&, Record&);
  std::vector<Claim> claims;
};

std::vector<double> cells(const Record& rec, const std::string& grid) {
  const std::vector<std::string> axes = split(grid, '|');
  std::vector<double> out;
  for (const std::string& t : split(axes.at(0), ',')) {
    for (const std::string& c : split(axes.at(1), ',')) {
      for (const std::string& r : split(axes.at(2), ',')) out.push_back(rec.at(t + '|' + c + '|' + r));
    }
  }
  return out;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

// Evaluates a rule into (holds, what was measured). Throws std::out_of_range
// for a cell this run did not measure.
std::pair<bool, std::string> evaluate(const Record& rec, const std::string& rule) {
  const size_t lt = rule.rfind(" < "), gt = rule.rfind(" > ");
  const size_t cmp = lt == std::string::npos ? gt : gt == std::string::npos ? lt : std::max(lt, gt);
  const bool rises = rule.size() > 6 && rule.compare(rule.size() - 6, 6, " rises") == 0;
  const std::string expr = rises ? rule.substr(0, rule.size() - 6) : rule.substr(0, cmp);
  const size_t join = std::min(expr.find(" / "), expr.find(" + "));
  std::vector<double> v = cells(rec, expr.substr(0, join));
  if (join != std::string::npos) {
    const std::vector<double> w = cells(rec, expr.substr(join + 3));
    for (size_t i = 0; i < v.size(); ++i) v[i] = expr[join + 1] == '/' ? v[i] / w.at(i) : v[i] + w.at(i);
  }
  if (rises) {
    return {std::is_sorted(v.begin(), v.end(), std::less_equal<>()) &&
                std::adjacent_find(v.begin(), v.end()) == v.end(),
            num(v.front()) + " -> " + num(v.back())};
  }
  const double bound = std::stod(rule.substr(cmp + 3));
  if (rule[cmp + 1] == '<') {
    const double m = *std::max_element(v.begin(), v.end());
    return {m < bound, "max " + num(m)};
  }
  const double m = *std::min_element(v.begin(), v.end());
  return {m > bound, "min " + num(m)};
}

const std::vector<Figure>& figures() {
  static const std::vector<Figure> list{
      {"2", "Figure 2", "serial time breakdown, ray caster vs shear warper",
       "the ray caster's time is dominated by looping/traversal; the shear warper is ~4-7x "
       "faster overall and compositing-dominated",
       serial_breakdown,
       {{"fig2.raycaster-loop-bound", kBoth, 0, "|loop %|ray caster (r-c) > 50"},
        {"fig2.shear-warp-faster", kBoth, 0,
         "|total ms|ray caster (r-c) / |total ms|shear warper (s-w) > 2.5"},
        {"fig2.ratio-below-paper", kBoth, 2,
         "|total ms|ray caster (r-c) / |total ms|shear warper (s-w) < 4"}}},
      {"4", "Figure 4", "old-algorithm speedups on three platforms (512-class MRI)",
       "speedups fall well short of linear and flatten beyond ~8-16 processors; the "
       "distributed-memory DASH scales worst, the centralized Challenge best at its size",
       [](Context& ctx, Record& rec) {
         std::vector<Curve> curves;
         for (const MachineConfig& m :
              {MachineConfig::dash(), MachineConfig::challenge(), MachineConfig::simulator()}) {
           curves.push_back({m.name, kOld, "mri-512", ctx.machine(m)});
         }
         speedup_table(ctx, rec, "", ctx.procs(), curves);
       },
       {{"fig4.old-sublinear", kBoth, 0, "|DASH,Challenge,Simulator|32 < 19.2"},
        {"fig4.dash-worst", kHalf, 0, "|DASH,DASH|32 / |Challenge,Simulator|32 < 1"}}},
      {"5", "Figure 5", "old-algorithm time breakdown (512-class MRI)",
       "memory-system stall time dominates the decline: ~18% of time at 1 processor growing to "
       "~50% at 32 on DASH; smaller but still dominant on the simulated machine",
       [](Context& ctx, Record& rec) {
         breakdown(ctx, rec, MachineConfig::dash(), {kOld});
         breakdown(ctx, rec, MachineConfig::simulator(), {kOld});
       },
       {{"fig5.memory-dominates-dash", kBoth, 0,
         "DASH|memory %,memory %|1,2,4,8,16,32 / DASH|busy %,sync %|1,2,4,8,16,32 > 1"},
        {"fig5.dash-more-memory-bound", kBoth, 0,
         "DASH|memory %|1,2,4,8,16,32 / Simulator|memory %|1,2,4,8,16,32 > 1"}}},
      {"6", "Figure 6", "old-algorithm speedups vs data-set size",
       "DASH speedups are well below Challenge's at every size; on DASH the intermediate "
       "(256-class) set speeds up best, with both the smaller and the larger sets doing worse",
       [](Context& ctx, Record& rec) {
         for (const MachineConfig& machine : {MachineConfig::dash(), MachineConfig::challenge()}) {
           const MachineConfig m = ctx.machine(machine);
           section(m.name);
           std::vector<Curve> curves;
           for (const std::string& set : kMriSets) curves.push_back({set, kOld, set, m});
           speedup_table(ctx, rec, m.name, ctx.procs(), curves);
         }
       },
       {{"fig6.dash-256-best", kHalf, 0, "DASH|mri-256,mri-256|32 / DASH|mri-128,mri-512|32 > 1"},
        {"fig6.challenge-above-dash", kHalf, 0,
         "Challenge|mri-128,mri-256,mri-512|32 / DASH|mri-128,mri-256,mri-512|32 > 1"}}},
      {"7", "Figure 7", "old-algorithm miss breakdown vs processors (Simulator)",
       "replacement (capacity) and true-sharing misses dominate; true sharing grows to dominate "
       "as processors increase while capacity misses shrink (bigger aggregate cache); the "
       "overall rate grows slowly but the remote fraction rises sharply",
       [](Context& ctx, Record& rec) {
         misses(ctx, rec, "", kOld, true);
         std::printf("\n(miss rates are misses per data reference, cold misses omitted)\n");
       },
       {{"fig7.true-share-grows", kBoth, 0, "|true-share %|1,8,16,32 rises"},
        {"fig7.capacity-shrinks", kBoth, 0, "|capacity %|32 / |capacity %|1 < 0.5"},
        {"fig7.remote-rises", kBoth, 0, "|remote frac|1,8,32 rises"},
        {"fig7.mostly-remote", kBoth, 0, "|remote frac|32 > 0.9"},
        {"fig7.capacity-vanishes", kHalf, 3, "|capacity %|32 < 0.01"}}},
      {"8", "Figure 8", "old-algorithm miss breakdown vs line size (32 procs)",
       "miss rates (cold, capacity and true-sharing) drop quickly as lines grow to 256B — the "
       "parallel program keeps the serial algorithm's good spatial locality — and false sharing "
       "never becomes a major component",
       [](Context& ctx, Record& rec) {
         std::vector<Col> cols;
         for (auto [label, metric] : std::vector<std::pair<const char*, Metric>>{
                  {"cold %", rate(MissClass::kCold)},
                  {"capacity %", rate(MissClass::kCapacity)},
                  {"conflict %", rate(MissClass::kConflict)},
                  {"true %", rate(MissClass::kTrueShare)},
                  {"false %", rate(MissClass::kFalseShare)},
                  {"total %", total_rate(true)}}) {
           cols.push_back({label, kOld, "mri-512", kDetailProcs, metric});
         }
         line_sizes(ctx, rec, cols);
       },
       {{"fig8.misses-drop", kHalf, 0, "|total %|256 / |total %|16 < 0.5"},
        {"fig8.false-share-minor", kBoth, 0,
         "|false %|16,32,64,128,256 / |total %|16,32,64,128,256 < 0.2"}}},
      {"9", "Figure 9", "old-algorithm miss rate vs cache size (32 procs)",
       "a knee at a cache size that grows roughly with n^2 of the volume; past the knee the "
       "curve flattens at the sharing floor",
       [](Context& ctx, Record& rec) {
         working_sets(ctx, rec, "", kOld,
                      {{"mri-128", kDetailProcs}, {"mri-256", kDetailProcs}, {"mri-512", kDetailProcs}});
         std::printf("\n(values are total miss rate %%; knees mark the working sets)\n");
         // The knee: the smallest cache from which on every larger one stays
         // within 10% of the 1 MB miss rate.
         for (const std::string& set : kMriSets) {
           int knee = 1024;
           for (auto kb = kCacheKb.rbegin(); kb != kCacheKb.rend(); ++kb) {
             if (rec.at("|" + set + "|" + std::to_string(*kb)) > 1.1 * rec.at("|" + set + "|1024")) {
               break;
             }
             knee = *kb;
           }
           rec["knee KB|" + set + "|"] = knee;
         }
       },
       {{"fig9.knee-grows", kHalf, 0, "knee KB|mri-128,mri-256,mri-512| rises"},
        {"fig9.knee-grows-4x", kHalf, 0, "knee KB|mri-512| / knee KB|mri-128| > 3"}}},
      {"10", "Figure 10", "per-scanline profile, 256-class MRI brain",
       "a roughly bell-shaped cost distribution across the middle of the intermediate image "
       "with empty runs at both ends (the paper's 256x256x167 brain yields a 326x326 sheared "
       "image)",
       profile,
       {{"fig10.empty-ends", kBoth, 0, "||empty above,empty below > 0"},
        {"fig10.bell", kBoth, 0, "||bell > 1"}}},
      {"12", "Figure 12", "old vs new speedups on DASH (MRI sets)",
       "the new algorithm out-scales the old on every size, and the advantage grows with "
       "data-set size and processor count; unlike the old one, the new algorithm speeds up "
       "better on bigger data sets",
       [](Context& ctx, Record& rec) { old_vs_new(ctx, rec, {MachineConfig::dash()}, false); },
       {{"fig12.new-beats-old", kBoth, 0, "mri-128,mri-256|new/old|8,16,32 > 1"},
        {"fig12.512-new-trails", kHalf, 1, "mri-512|new/old|32 < 1"}}},
      {"13", "Figure 13", "old vs new speedups on the Simulator (MRI sets)",
       "same story as DASH with larger absolute speedups: the new algorithm wins everywhere, "
       "especially for larger data sets and more processors",
       [](Context& ctx, Record& rec) { old_vs_new(ctx, rec, {MachineConfig::simulator()}, false); },
       {{"fig13.new-beats-old", kBoth, 0, "mri-128,mri-256|new/old|8,16,32 > 1"},
        {"fig13.512-new-trails", kHalf, 1, "mri-512|new/old|32 < 1"}}},
      {"14", "Figure 14", "old vs new time breakdown (512-class MRI)",
       "the major difference is the data-access (memory) stall component, which no longer "
       "dominates in the new program, on DASH as well as the simulated machine; load balance is "
       "preserved",
       [](Context& ctx, Record& rec) {
         breakdown(ctx, rec, MachineConfig::dash(), {kOld, kNew});
         breakdown(ctx, rec, MachineConfig::simulator(), {kOld, kNew});
       },
       {{"fig14.new-less-memory-bound", kBoth, 0,
         "DASH,Simulator|new mem %|32 / DASH,Simulator|old mem %|32 < 1"},
        {"fig14.simulator-memory-collapses", kHalf, 0,
         "Simulator|new mem %|32 / Simulator|old mem %|32 < 0.333"}}},
      {"15", "Figure 15", "old vs new speedups, 512-class CT head",
       "the results mirror the MRI data sets: the new algorithm substantially outperforms and "
       "out-scales the old one, and (unlike the old) speeds up better on bigger data sets",
       [](Context& ctx, Record& rec) {
         old_vs_new(ctx, rec, {MachineConfig::dash(), MachineConfig::simulator()}, true);
       },
       {{"fig15.new-beats-old-dash", kBoth, 0, "DASH|new|32 / DASH|old|32 > 1"},
        {"fig15.new-beats-old-sim", kBoth, 0, "Simulator|new|32 / Simulator|old|32 > 1.25"}}},
      {"16", "Figure 16", "old vs new miss breakdown (Simulator, 512-class MRI)",
       "the new algorithm greatly decreases sharing misses — particularly true sharing at the "
       "compositing/warp interface — and also reduces false sharing (fewer partition borders)",
       [](Context& ctx, Record& rec) {
         for (Algo algo : {kOld, kNew}) {
           section(std::string(algo_name(algo)) + " algorithm");
           misses(ctx, rec, algo_name(algo), algo, false);
         }
       },
       {{"fig16.true-share-lower", kBoth, 0, "new|true-share %|8,16,32 / old|true-share %|8,16,32 < 1"},
        {"fig16.true-share-quartered", kHalf, 0, "new|true-share %|32 / old|true-share %|32 < 0.25"},
        {"fig16.false-share-cut", kBoth, 0, "new|false-share %|32 / old|false-share %|32 < 0.1"}}},
      {"17", "Figure 17", "miss rate vs line size, old vs new (32 procs)",
       "the new algorithm benefits even more from longer cache lines because each processor "
       "works on more contiguous scanlines of the intermediate image",
       [](Context& ctx, Record& rec) {
         line_sizes(ctx, rec,
                    {{"old total %", kOld, "mri-512", kDetailProcs, total_rate(true)},
                     {"new total %", kNew, "mri-512", kDetailProcs, total_rate(true)},
                     {"old true %", kOld, "mri-512", kDetailProcs, rate(MissClass::kTrueShare)},
                     {"new true %", kNew, "mri-512", kDetailProcs, rate(MissClass::kTrueShare)}});
       },
       {{"fig17.new-below-old", kBoth, 0,
         "|new total %|16,32,64,128,256 / |old total %|16,32,64,128,256 < 1"},
        {"fig17.new-true-4x-lower", kHalf, 0,
         "|new true %|16,32,64,128,256 / |old true %|16,32,64,128,256 < 0.25"}}},
      {"18", "Figure 18", "new-algorithm working sets",
       "(a) the knee moves to smaller caches as processors increase — a processor's contiguous "
       "block of scanlines contracts; (b) at 32 processors even the 512-class set's working "
       "set is tiny (~64KB in the paper)",
       [](Context& ctx, Record& rec) {
         std::printf("\n--- (a) miss rate %% vs cache size, 512-class MRI ---\n");
         working_sets(ctx, rec, "a", kNew, {{"mri-512", 4}, {"mri-512", 16}, {"mri-512", 32}});
         std::printf("\n--- (b) miss rate %% vs cache size across MRI sets (32 procs) ---\n");
         working_sets(ctx, rec, "b", kNew, {{"mri-128", 32}, {"mri-256", 32}, {"mri-512", 32}});
       },
       {{"fig18.working-set-shrinks", kHalf, 0, "a|P=32,P=16,P=4|256 rises"},
        {"fig18.512-fits", kHalf, 0, "b|mri-512|512 < 0.5"}}},
      {"19", "Figure 19", "old vs new speedups on Origin2000 (512-class MRI)",
       "the new algorithm significantly outperforms the old one, validating the DASH/simulator "
       "results on modern scalable ccNUMA hardware",
       [](Context& ctx, Record& rec) {
         const MachineConfig m = ctx.machine(MachineConfig::origin2000());
         // The paper's machine had 16 processors.
         speedup_table(ctx, rec, "", ctx.procs(1, 16),
                       {{"old", kOld, "mri-512", m}, {"new", kNew, "mri-512", m}});
       },
       {{"fig19.new-beats-old", kBoth, 0, "|new|2,4,8,16 / |old|2,4,8,16 > 1"}}},
      {"20", "Figure 20", "old vs new speedups on SVM (MRI sets)",
       "the old program barely speeds up (or slows down) on SVM; the new one achieves "
       "substantial speedups — the largest relative improvement of any platform, since "
       "coherence is page-grained and communication is most expensive here",
       svm_speedups,
       {{"fig20.old-barely-speeds-up", kBoth, 0, "mri-128,mri-256,mri-512|old|4,8,16,32 < 1.25"},
        {"fig20.new-beats-old-512", kBoth, 0, "mri-512|new|4,8,16,32 / mri-512|old|4,8,16,32 > 1"},
        {"fig20.new-beats-old-256", kHalf, 0, "mri-256|new|4,8,16,32 / mri-256|old|4,8,16,32 > 1"},
        {"fig20.new-grows-with-size", kBoth, 0, "mri-128,mri-256,mri-512|new|32 rises"},
        {"fig20.new-large-512", kHalf, 0, "mri-512|new|32 > 10"},
        {"fig20.old-slows-down", kBoth, 4, "mri-128,mri-256,mri-512|old|4,8,16 < 1"}}},
      {"21", "Figure 21", "old-algorithm SVM execution-time breakdown",
       "extremely high data wait and barrier wait: interleaved chunks smaller than a page cause "
       "page-level false sharing and fragmented communication, and contention delays the "
       "barrier's own synchronization messages",
       [](Context& ctx, Record& rec) { svm_breakdown(ctx, rec, kOld); },
       {{"fig21.wait-dominates", kBoth, 0, "|data %|4,8,16,32 + |barrier %|4,8,16,32 > 85"},
        {"fig21.data-dominates", kHalf, 0, "|data %|4,8,16,32 > 75"}}},
      {"22", "Figure 22", "new-algorithm SVM execution-time breakdown",
       "data and barrier wait collapse relative to the old program — coarse-grained private "
       "access patterns plus the eliminated inter-phase barrier — while lock time is slightly "
       "higher from chunk stealing; overall time improves dramatically",
       [](Context& ctx, Record& rec) { svm_breakdown(ctx, rec, kNew); },
       {{"fig22.few-faults", kBoth, 0, "|faults|4,8,16,32 < 300"},
        {"fig22.data-collapses", kHalf, 0, "|data %|4,8,16,32 < 25"},
        {"fig22.lock-higher", kBoth, 0, "|lock %|4,8,16,32 > 0.5"}}},
      {"ablation", "Ablations", "partitioning design choices",
       "profiled-contiguous beats uniform-contiguous on balance; chunked stealing slashes lock "
       "traffic vs per-scanline stealing; old-algorithm efficiency depends on task size",
       ablations,
       {{"ablation.profile-balances", kBoth, 0,
         "1|work imbalance (max/mean - 1)|profiled contiguous (§4.3) / "
         "1|work imbalance (max/mean - 1)|uniform contiguous < 0.5"},
        {"ablation.chunks-cut-locks", kBoth, 0, "2|lock ops|16,8,4,2,1 rises"},
        {"ablation.task-size-tuned", kBoth, 0, "3||edge/best > 1"},
        {"ablation.warp-tile-tuned", kBoth, 0, "4||edge/best > 1"}}},
      {"ext", "Extension", "scaling beyond the paper: 640-class MRI, up to 64 procs",
       "(paper future work) the new algorithm's communication advantages — true/false sharing "
       "several times lower — persist at 64 processors (see the miss table). Self-relative "
       "speedups at reduced dataset scale favour the old algorithm spuriously: its worse "
       "1-processor locality inflates its own baseline, and the aggregate cache crosses the "
       "scaled volume size between 32 and 64 processors; run --scale=full for the fair curve.",
       extension,
       {{"ext.true-share-lower", kHalf, 0, "64|true-share %|new / 64|true-share %|old < 0.333"},
        {"ext.false-share-lower", kHalf, 0, "64|false-share %|new / 64|false-share %|old < 0.1"},
        {"ext.new-trails-at-64", kHalf, 3, "|new/old|64 < 1"}}},
  };
  return list;
}

// Prints a figure's claims; returns how many failed.
int check_claims(const Figure& f, const Record& rec, unsigned scale) {
  const auto scales = [](unsigned s) {
    return std::string(s & kQuarter ? "quarter " : "") + (s & kHalf ? "half " : "") +
           (s & kFull ? "full " : "") + "scale";
  };
  std::printf("\nClaims (%s):\n", scales(scale).c_str());
  int failed = 0;
  for (const Claim& c : f.claims) {
    std::string status = "SKIP", detail = "pinned to " + scales(c.scales);
    if (c.scales & scale) {
      try {
        const auto [holds, measured] = evaluate(rec, c.rule);
        detail = measured;
        if (c.deviation > 0) {
          status = "EXPECTED";
          detail += " (known deviation " + std::to_string(c.deviation) +
                    (holds ? " reproduces)" : " NO LONGER reproduces)");
        } else {
          status = holds ? "PASS" : "FAIL";
          failed += holds ? 0 : 1;
        }
      } catch (const std::out_of_range&) {
        detail = "not measured in this run";
      }
    }
    std::printf("  %-8s %-32s %s: %s\n", status.c_str(), c.id, c.rule, detail.c_str());
  }
  return failed;
}

int run(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  flags.require_known({"fig", "scale", "procs", "prepare-threads"});
  const std::vector<std::string> wanted =
      flags.has("fig") ? split(flags.get("fig", ""), ',') : std::vector<std::string>{};
  const auto& all = figures();
  for (const std::string& id : wanted) {
    if (std::none_of(all.begin(), all.end(), [&](const Figure& f) { return id == f.id; })) {
      std::fprintf(stderr, "figures: unknown --fig=%s; known:", id.c_str());
      for (const Figure& f : all) std::fprintf(stderr, " %s", f.id);
      std::fprintf(stderr, "\n");
      return 2;
    }
  }
  Context ctx(flags);
  int failed = 0;
  for (const Figure& f : all) {
    if (!wanted.empty() && std::find(wanted.begin(), wanted.end(), f.id) == wanted.end()) continue;
    std::printf("================================================================\n");
    std::printf("%s — %s\n", f.name, f.what);
    std::printf("Paper shape: %s\n", f.shape);
    std::printf("================================================================\n");
    Record rec;
    f.run(ctx, rec);
    failed += check_claims(f, rec, static_cast<unsigned>(ctx.divisor()));
  }
  if (failed > 0) std::printf("\nfigures: %d claim(s) FAILED\n", failed);
  return failed > 0 ? 1 : 0;
}

}  // namespace
}  // namespace psw

int main(int argc, char** argv) { return psw::run(argc, argv); }
