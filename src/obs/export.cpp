#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "util/table.hpp"

namespace psw::obs {

int64_t TraceTree::start_ns() const {
  int64_t v = 0;
  for (const auto& s : spans) {
    if (v == 0 || s.t_start_ns < v) v = s.t_start_ns;
  }
  return v;
}

int64_t TraceTree::end_ns() const {
  int64_t v = 0;
  for (const auto& s : spans) {
    if (s.t_end_ns > v) v = s.t_end_ns;
  }
  return v;
}

double TraceTree::total_ms() const {
  return static_cast<double>(end_ns() - start_ns()) / 1e6;
}

double TraceTree::kind_ms(SpanKind k) const {
  double ms = 0.0;
  for (const auto& s : spans) {
    if (s.kind == k) ms += s.duration_ms();
  }
  return ms;
}

bool TraceTree::has_kind(SpanKind k) const {
  for (const auto& s : spans) {
    if (s.kind == k) return true;
  }
  return false;
}

std::vector<TraceTree> assemble_traces(std::vector<SpanRecord> spans) {
  // Group by trace id, preserving first-seen trace order; dedup span ids
  // within a trace (ring dump + flight recorder can both carry a span).
  std::vector<TraceTree> out;
  std::map<std::pair<uint64_t, uint64_t>, size_t> index;
  std::unordered_set<uint64_t> seen_span;
  for (const SpanRecord& s : spans) {
    const auto key = std::make_pair(s.trace_hi, s.trace_lo);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, out.size()).first;
      out.push_back(TraceTree{s.trace_hi, s.trace_lo, {}});
    }
    TraceTree& t = out[it->second];
    bool dup = false;
    for (const auto& existing : t.spans) {
      if (existing.span_id == s.span_id) {
        dup = true;
        break;
      }
    }
    if (!dup) t.spans.push_back(s);
  }
  for (TraceTree& t : out) {
    std::sort(t.spans.begin(), t.spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                if (a.t_start_ns != b.t_start_ns) return a.t_start_ns < b.t_start_ns;
                return a.span_id < b.span_id;
              });
  }
  return out;
}

namespace {

void format_span_line(std::string& out, const TraceTree& t,
                      const SpanRecord& s, int depth) {
  const double offset_ms =
      static_cast<double>(s.t_start_ns - t.start_ns()) / 1e6;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%*s%-13s %9.3f ms  +%8.3f ms  span=%s tag=%llu\n",
                depth * 2, "", to_string(s.kind), s.duration_ms(), offset_ms,
                span_id_hex(s.span_id).c_str(),
                static_cast<unsigned long long>(s.tag));
  out += buf;
}

void format_subtree(std::string& out, const TraceTree& t,
                    const std::unordered_map<uint64_t, std::vector<size_t>>& kids,
                    size_t idx, int depth) {
  const SpanRecord& s = t.spans[idx];
  format_span_line(out, t, s, depth);
  auto it = kids.find(s.span_id);
  if (it == kids.end() || depth > 16) return;
  for (size_t child : it->second) {
    format_subtree(out, t, kids, child, depth + 1);
  }
}

}  // namespace

std::string format_trace_tree(const TraceTree& t) {
  std::string out = "trace " + t.id_hex() + "  " + fmt(t.total_ms(), 3) +
                    " ms  " + std::to_string(t.spans.size()) + " spans\n";
  std::unordered_set<uint64_t> ids;
  for (const auto& s : t.spans) ids.insert(s.span_id);
  // parent span id -> children (span order is already by start time)
  std::unordered_map<uint64_t, std::vector<size_t>> kids;
  std::vector<size_t> roots;
  for (size_t i = 0; i < t.spans.size(); ++i) {
    const SpanRecord& s = t.spans[i];
    if (s.parent_id != 0 && s.parent_id != s.span_id &&
        ids.count(s.parent_id) != 0) {
      kids[s.parent_id].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  for (size_t r : roots) format_subtree(out, t, kids, r, 1);
  return out;
}

std::string format_phase_table(const TraceTree& t) {
  struct Phase {
    SpanKind kind;
    int count = 0;
    double total_ms = 0.0;
  };
  std::vector<Phase> phases;
  for (const auto& s : t.spans) {
    Phase* p = nullptr;
    for (auto& existing : phases) {
      if (existing.kind == s.kind) {
        p = &existing;
        break;
      }
    }
    if (p == nullptr) {
      phases.push_back(Phase{s.kind, 0, 0.0});
      p = &phases.back();
    }
    p->count += 1;
    p->total_ms += s.duration_ms();
  }
  std::sort(phases.begin(), phases.end(),
            [](const Phase& a, const Phase& b) { return a.total_ms > b.total_ms; });
  const double extent_ms = t.total_ms();
  TextTable table({"phase", "spans", "total ms", "% of request"});
  for (const auto& p : phases) {
    const double share = extent_ms > 0.0 ? 100.0 * p.total_ms / extent_ms : 0.0;
    table.add_row({to_string(p.kind), std::to_string(p.count),
                   fmt(p.total_ms, 3), fmt(share, 1)});
  }
  return table.to_string();
}

}  // namespace psw::obs
