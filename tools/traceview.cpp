// traceview: reassembles span dumps from any number of processes (the
// cluster router plus each shard, or a single netserve) into per-request
// trace trees with a phase-breakdown table.
//
//   ./tools/traceview [--trace=HEX] dump1.json dump2.json ...
//
// Inputs are the kMetricsSelectorTrace documents (also written by
// netserve --trace-dump and clusterctl --trace-dir). Timestamps in the dumps
// are wall-anchored nanoseconds, so spans from different machines line up
// on one axis. --trace filters to a single trace id (full 32-digit hex or
// any suffix accepted by obs::parse_trace_id).
#include <cstdio>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/json_parse.hpp"

using namespace psw;

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  char buf[64 * 1024];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

// One span object from a dump ("trace"/"span"/"parent" hex strings,
// "kind" name, wall-ns timestamps). Returns false on malformed entries so
// a damaged dump degrades to fewer spans instead of aborting the view.
bool parse_span(const JsonValue& v, obs::SpanRecord* out) {
  if (!v.is_object()) return false;
  const JsonValue* trace = v.find("trace");
  const JsonValue* span = v.find("span");
  if (!trace || !span) return false;
  if (!obs::parse_trace_id(trace->as_string(), &out->trace_hi, &out->trace_lo)) {
    return false;
  }
  if (!obs::parse_hex_u64(span->as_string(), &out->span_id)) return false;
  if (const JsonValue* parent = v.find("parent")) {
    obs::parse_hex_u64(parent->as_string(), &out->parent_id);
  }
  if (const JsonValue* kind = v.find("kind")) {
    out->kind = obs::span_kind_from(kind->as_string());
    if (out->kind == obs::SpanKind::kCount) return false;
  }
  if (const JsonValue* t = v.find("start_ns")) {
    out->t_start_ns = static_cast<int64_t>(t->as_u64());
  }
  if (const JsonValue* t = v.find("end_ns")) {
    out->t_end_ns = static_cast<int64_t>(t->as_u64());
  }
  if (const JsonValue* tag = v.find("tag")) out->tag = tag->as_u64();
  return true;
}

void collect_spans(const JsonValue& arr, std::vector<obs::SpanRecord>* out,
                   size_t* malformed) {
  if (!arr.is_array()) return;
  for (const JsonValue& v : arr.items) {
    obs::SpanRecord s;
    if (parse_span(v, &s)) {
      out->push_back(s);
    } else {
      ++*malformed;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  flags.require_known({"trace"});
  const std::string filter = flags.get("trace", "");
  uint64_t want_hi = 0, want_lo = 0;
  if (!filter.empty() && !obs::parse_trace_id(filter, &want_hi, &want_lo)) {
    std::fprintf(stderr, "traceview: --trace=%s is not a hex trace id\n",
                 filter.c_str());
    return 2;
  }
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: traceview [--trace=HEX] dump1.json [dump2.json ...]\n");
    return 2;
  }

  std::vector<obs::SpanRecord> spans;
  size_t malformed = 0;
  for (const std::string& path : flags.positional()) {
    std::string text;
    if (!read_file(path, &text)) {
      std::fprintf(stderr, "traceview: cannot read %s\n", path.c_str());
      return 1;
    }
    JsonValue doc;
    std::string error;
    if (!json_parse(text, &doc, &error)) {
      std::fprintf(stderr, "traceview: %s: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    const size_t before = spans.size();
    if (const JsonValue* ring = doc.find("spans")) {
      collect_spans(*ring, &spans, &malformed);
    }
    if (const JsonValue* slow = doc.find("slow")) {
      if (slow->is_array()) {
        for (const JsonValue& t : slow->items) {
          if (const JsonValue* ts = t.find("spans")) {
            collect_spans(*ts, &spans, &malformed);
          }
        }
      }
    }
    const JsonValue* node = doc.find("node");
    std::printf("%s: %zu spans (node %s)\n", path.c_str(),
                spans.size() - before,
                node ? node->as_string().c_str() : "?");
  }
  if (malformed > 0) {
    std::fprintf(stderr, "traceview: skipped %zu malformed span entries\n",
                 malformed);
  }

  std::vector<obs::TraceTree> trees = obs::assemble_traces(std::move(spans));
  size_t shown = 0;
  for (const obs::TraceTree& t : trees) {
    if (!filter.empty() && (t.trace_hi != want_hi || t.trace_lo != want_lo)) {
      continue;
    }
    ++shown;
    std::printf("\ntrace %s: %zu spans, %.3f ms end to end\n",
                t.id_hex().c_str(), t.spans.size(), t.total_ms());
    std::fputs(obs::format_trace_tree(t).c_str(), stdout);
    std::fputs(obs::format_phase_table(t).c_str(), stdout);
  }
  std::printf("\ntraceview: %zu trace(s)%s from %zu dump(s)\n", shown,
              filter.empty() ? "" : " matching filter",
              flags.positional().size());
  return shown > 0 ? 0 : 1;
}
