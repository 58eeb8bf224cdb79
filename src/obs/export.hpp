// Reassembly for the tracing subsystem: assemble_traces/format_trace_tree
// turn span dumps from any number of processes (router + shards) back into
// per-request trees with a phase-breakdown table — shared by
// tools/traceview and the tests. Metrics export is obs/metric_sink.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace psw::obs {

// One reassembled request: every span sharing a trace id, deduplicated by
// span id (the same span can appear in a ring dump and the flight
// recorder) and sorted by start time.
struct TraceTree {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  std::vector<SpanRecord> spans;

  std::string id_hex() const { return trace_id_hex(trace_hi, trace_lo); }
  // The request's time extent: [min start, max end] across all spans.
  int64_t start_ns() const;
  int64_t end_ns() const;
  double total_ms() const;
  // Summed duration of spans of one kind (0 when absent).
  double kind_ms(SpanKind k) const;
  bool has_kind(SpanKind k) const;
};

// Groups spans by trace id. Spans may come from multiple dumps with a
// shared wall-clock axis (SpanRecorder::dump_json exports wall ns).
std::vector<TraceTree> assemble_traces(std::vector<SpanRecord> spans);

// Indented per-request tree: parentage from span ids, children ordered by
// start time; spans whose parent is absent from the dump root the tree.
std::string format_trace_tree(const TraceTree& t);

// Phase-breakdown table (kind, count, total ms, share of the request's
// time extent), widest phases first. Uses util/table.hpp.
std::string format_phase_table(const TraceTree& t);

}  // namespace psw::obs
