#include "trace/sink.hpp"

#include <algorithm>

namespace psw {

TraceSet::TraceSet(int procs) : streams_(procs), hooks_(procs) {
  for (int p = 0; p < procs; ++p) hooks_[p].bind(this, p);
}

void TraceSet::begin_interval(const std::string& name, bool barrier) {
  interval_names_.push_back(name);
  for (auto& s : streams_) s.interval_start.push_back(s.records.size());
  if (barrier) sync_barrier();
}

void TraceSet::sync_barrier() {
  SyncEvent e;
  e.kind = SyncEvent::Kind::kBarrier;
  e.pos.reserve(streams_.size());
  for (const auto& s : streams_) e.pos.push_back(s.records.size());
  sync_events_.push_back(std::move(e));
}

void TraceSet::sync_release(int proc, uint64_t token) {
  SyncEvent e;
  e.kind = SyncEvent::Kind::kRelease;
  e.a = proc;
  e.token = token;
  e.pos.push_back(streams_[proc].records.size());
  sync_events_.push_back(std::move(e));
}

void TraceSet::sync_acquire(int proc, uint64_t token) {
  SyncEvent e;
  e.kind = SyncEvent::Kind::kAcquire;
  e.a = proc;
  e.token = token;
  e.pos.push_back(streams_[proc].records.size());
  sync_events_.push_back(std::move(e));
}

void TraceSet::sync_edge(int from_proc, int to_proc) {
  SyncEvent e;
  e.kind = SyncEvent::Kind::kEdge;
  e.a = from_proc;
  e.b = to_proc;
  e.pos.push_back(streams_[from_proc].records.size());
  e.pos.push_back(streams_[to_proc].records.size());
  sync_events_.push_back(std::move(e));
}

void TraceSet::rebase(const std::vector<std::pair<uint64_t, uint64_t>>& ranges) {
  constexpr uint64_t kPage = 4096;
  struct Slot {
    uint64_t lo, hi, base;
  };
  std::vector<Slot> slots;
  uint64_t next = uint64_t{1} << 32;
  for (const auto& [lo, hi] : ranges) {
    slots.push_back({lo, hi, next});
    next += ((hi - lo + kPage - 1) / kPage + 1) * kPage;  // a guard page between ranges
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) { return a.lo < b.lo; });
  for (TraceStream& s : streams_) {
    for (TraceRecord& r : s.records) {
      const uint64_t addr = r.addr();
      const auto it = std::upper_bound(slots.begin(), slots.end(), addr,
                                       [](uint64_t a, const Slot& slot) { return a < slot.lo; });
      if (it == slots.begin() || addr >= (it - 1)->hi) continue;
      r = TraceRecord((it - 1)->base + (addr - (it - 1)->lo), r.size(), r.is_write());
    }
  }
}

size_t TraceSet::total_records() const {
  size_t total = 0;
  for (const auto& s : streams_) total += s.records.size();
  return total;
}

std::pair<size_t, size_t> TraceSet::interval_range(int p, int i) const {
  const TraceStream& s = streams_[p];
  const size_t begin = s.interval_start[i];
  const size_t end = (i + 1 < static_cast<int>(s.interval_start.size()))
                         ? s.interval_start[i + 1]
                         : s.records.size();
  return {begin, end};
}

int TraceSet::interval_of(int p, size_t rec) const {
  const auto& starts = streams_[p].interval_start;
  const auto it = std::upper_bound(starts.begin(), starts.end(), rec);
  return static_cast<int>(it - starts.begin()) - 1;
}

}  // namespace psw
