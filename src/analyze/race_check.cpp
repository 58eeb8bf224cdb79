#include "analyze/race_check.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <set>
#include <tuple>

#include "analyze/shadow.hpp"
#include "analyze/sync_graph.hpp"
#include "core/intermediate_image.hpp"

namespace psw {

void RegionRegistry::add(std::string name, const void* base, size_t bytes) {
  add_range(std::move(name), reinterpret_cast<uint64_t>(base),
            reinterpret_cast<uint64_t>(base) + bytes);
}

void RegionRegistry::add_range(std::string name, uint64_t lo, uint64_t hi) {
  if (hi <= lo) return;
  regions_.push_back({lo, hi, std::move(name), regions_.size()});
  sorted_ = false;
}

std::vector<std::pair<uint64_t, uint64_t>> RegionRegistry::ranges() const {
  std::vector<std::pair<uint64_t, uint64_t>> out(regions_.size());
  for (const Region& r : regions_) out[r.order] = {r.lo, r.hi};
  return out;
}

const std::string& RegionRegistry::classify(uint64_t addr) const {
  static const std::string kUnregistered = "unregistered";
  if (!sorted_) {
    std::sort(regions_.begin(), regions_.end(),
              [](const Region& a, const Region& b) { return a.lo < b.lo; });
    sorted_ = true;
  }
  const auto it = std::upper_bound(
      regions_.begin(), regions_.end(), addr,
      [](uint64_t a, const Region& r) { return a < r.lo; });
  if (it == regions_.begin()) return kUnregistered;
  const Region& r = *(it - 1);
  return addr < r.hi ? r.name : kUnregistered;
}

void register_render_regions(RegionRegistry* regions, const EncodedVolume& volume,
                             const IntermediateImage& intermediate,
                             const ImageU8& final_image,
                             const ScanlineProfile* profile) {
  for (int axis = 0; axis < 3; ++axis) {
    const RleVolume& rle = volume.for_axis(axis);
    if (rle.run_count() > 0) {
      regions->add("volume runs", rle.runs_at(0, 0),
                   rle.run_count() * sizeof(uint16_t));
    }
    if (rle.voxel_count() > 0) {
      regions->add("voxel data", rle.voxels_at(0, 0),
                   rle.voxel_count() * sizeof(ClassifiedVoxel));
    }
  }
  const size_t inter_pixels =
      static_cast<size_t>(intermediate.width()) * intermediate.height();
  if (inter_pixels > 0) {
    regions->add("intermediate image", &intermediate.pixel(0, 0),
                 inter_pixels * sizeof(Rgba));
    regions->add("skip links", intermediate.skip_data(),
                 inter_pixels * sizeof(int32_t));
  }
  if (final_image.pixel_count() > 0) {
    regions->add("final image", final_image.data(),
                 final_image.pixel_count() * sizeof(Pixel8));
  }
  if (profile != nullptr && !profile->cost().empty()) {
    regions->add("scanline profile", profile->cost().data(),
                 profile->cost().size() * sizeof(uint32_t));
  }
}

namespace {

RaceEndpoint make_endpoint(const TraceSet& traces, const SyncGraph& graph, int seg,
                           uint32_t rec) {
  const int proc = graph.segment_proc(seg);
  const TraceRecord& r = traces.stream(proc).records[rec];
  RaceEndpoint e;
  e.proc = proc;
  e.interval = traces.interval_of(proc, rec);
  e.record = rec;
  e.write = r.is_write();
  e.addr = r.addr();
  e.size = r.size();
  return e;
}

class Detector {
 public:
  Detector(const TraceSet& traces, const SyncGraph& graph,
           const RegionRegistry& regions, const RaceCheckOptions& opt,
           RaceReport* report)
      : traces_(traces),
        graph_(graph),
        regions_(regions),
        opt_(opt),
        shadow_(opt.granularity),
        report_(report) {}

  void run() {
    for (const int seg : graph_.replay_order()) {
      const int proc = graph_.segment_proc(seg);
      const auto [begin, end] = graph_.segment_range(seg);
      const auto& records = traces_.stream(proc).records;
      for (size_t i = begin; i < end; ++i) {
        const TraceRecord& r = records[i];
        const uint64_t k0 = shadow_.first_key(r.addr());
        const uint64_t k1 = shadow_.last_key(r.addr(), r.size());
        for (uint64_t key = k0; key <= k1; ++key) {
          if (r.is_write()) {
            on_write(key, seg, static_cast<uint32_t>(i));
          } else {
            on_read(key, seg, static_cast<uint32_t>(i));
          }
        }
        ++report_->records_checked;
      }
    }
    report_->shadow_cells = shadow_.cells();
  }

 private:
  bool ordered_epoch(const ShadowEpoch& before, int seg) const {
    return graph_.ordered(before.seg, seg);
  }
  bool same_proc(const ShadowEpoch& e, int seg) const {
    return graph_.segment_proc(e.seg) == graph_.segment_proc(seg);
  }

  void report(uint64_t key, const ShadowEpoch& prior, int seg, uint32_t rec) {
    ++report_->races_total;
    if (report_->findings.size() >= opt_.max_findings) return;
    // One finding per (cell, prior segment, current segment) triple: a
    // single overlapping scanline would otherwise flood the report with a
    // finding per pixel.
    if (!reported_.insert({key, prior.seg, seg}).second) return;
    RaceFinding f;
    const auto [lo, hi] = shadow_.key_range(key);
    f.cell_lo = lo;
    f.cell_hi = hi;
    f.first = make_endpoint(traces_, graph_, prior.seg, prior.rec);
    f.second = make_endpoint(traces_, graph_, seg, rec);
    f.region = regions_.classify(f.second.addr);
    report_->findings.push_back(std::move(f));
  }

  void on_write(uint64_t key, int seg, uint32_t rec) {
    ShadowCell& c = shadow_.cell(key);
    if (c.write.valid() && !same_proc(c.write, seg) && !ordered_epoch(c.write, seg)) {
      report(key, c.write, seg, rec);
    }
    if (auto* reads = shadow_.reads_of(c)) {
      for (const ShadowEpoch& e : *reads) {
        if (e.valid() && !same_proc(e, seg) && !ordered_epoch(e, seg)) {
          report(key, e, seg, rec);
        }
      }
    } else if (c.read.valid() && !same_proc(c.read, seg) &&
               !ordered_epoch(c.read, seg)) {
      report(key, c.read, seg, rec);
    }
    // FastTrack write rule: the write epoch replaces all read state — any
    // future access racing with a dropped read would also race with this
    // write (or the read/write race was reported just now).
    c.write = {seg, rec};
    c.read = {};
    c.read_vec = -1;
  }

  void on_read(uint64_t key, int seg, uint32_t rec) {
    ShadowCell& c = shadow_.cell(key);
    if (c.write.valid() && !same_proc(c.write, seg) && !ordered_epoch(c.write, seg)) {
      report(key, c.write, seg, rec);
    }
    if (c.read_vec >= 0) {
      auto& reads = shadow_.inflate_reads(&c, graph_.procs());
      reads[graph_.segment_proc(seg)] = {seg, rec};
      return;
    }
    if (!c.read.valid() || same_proc(c.read, seg) || ordered_epoch(c.read, seg)) {
      c.read = {seg, rec};  // reads still totally ordered: keep one epoch
      return;
    }
    // Concurrent readers: inflate to one epoch per processor (FastTrack's
    // read-share transition).
    auto& reads = shadow_.inflate_reads(&c, graph_.procs());
    reads[graph_.segment_proc(c.read.seg)] = c.read;
    reads[graph_.segment_proc(seg)] = {seg, rec};
    c.read = {};
  }

  const TraceSet& traces_;
  const SyncGraph& graph_;
  const RegionRegistry& regions_;
  const RaceCheckOptions& opt_;
  ShadowMap shadow_;
  RaceReport* report_;
  std::set<std::tuple<uint64_t, int32_t, int32_t>> reported_;
};

void append_endpoint(std::string* out, const TraceSet& traces, const RaceEndpoint& e,
                     const char* label) {
  char buf[256];
  const std::string name = e.interval >= 0 && e.interval < traces.intervals()
                               ? traces.interval_name(e.interval)
                               : std::string("<pre>");
  std::snprintf(buf, sizeof(buf),
                "  %s: proc %d, interval %d (%s), record %zu: %s %u bytes @ 0x%llx\n",
                label, e.proc, e.interval, name.c_str(), e.record,
                e.write ? "write" : "read", e.size,
                static_cast<unsigned long long>(e.addr));
  *out += buf;
}

}  // namespace

std::string RaceReport::summary(const TraceSet& traces) const {
  std::string out;
  char buf[256];
  for (const RaceFinding& f : findings) {
    std::snprintf(buf, sizeof(buf), "race: %s/%s on %s, bytes [0x%llx, 0x%llx)\n",
                  f.first.write ? "write" : "read",
                  f.second.write ? "write" : "read", f.region.c_str(),
                  static_cast<unsigned long long>(f.cell_lo),
                  static_cast<unsigned long long>(f.cell_hi));
    out += buf;
    append_endpoint(&out, traces, f.first, "first ");
    append_endpoint(&out, traces, f.second, "second");
  }
  if (races_total > findings.size()) {
    std::snprintf(buf, sizeof(buf), "... %llu conflicting pairs in total\n",
                  static_cast<unsigned long long>(races_total));
    out += buf;
  }
  return out;
}

RaceReport check_races(const TraceSet& traces, const RegionRegistry& regions,
                       const RaceCheckOptions& opt) {
  assert((opt.granularity & (opt.granularity - 1)) == 0 && opt.granularity > 0 &&
         "shadow granularity must be a power of two");
  RaceReport report;
  report.procs = traces.procs();
  const SyncGraph graph(traces);
  Detector detector(traces, graph, regions, opt, &report);
  detector.run();
  return report;
}

}  // namespace psw
