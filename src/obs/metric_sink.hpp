// One declaration per metric. Each metrics struct lists what it measures
// once, in a `describe(MetricSink&)` function: one row per metric with its
// place in the JSON document, help text, kind and value. The two sinks
// behind render_json and render_prometheus turn the same rows into the
// nested JSON document and the Prometheus text exposition, so the formats
// cannot drift apart.
//
// Naming rule: a row's JSON path is the open sections, its group and its
// key. Its Prometheus series is "psw_" + that path joined by '_', plus
// "_total" for counters; rows inside a list item carry the item's label
// (the router's per-shard rows: shard="<id>").
#pragma once

#include <cstdint>
#include <string>

#include "util/buffer_pool.hpp"
#include "util/function_ref.hpp"
#include "util/histogram.hpp"

namespace psw::obs {

// Where a row sits: `group` is the JSON object holding it inside the open
// section ("" = the section itself), `key` its member name. Rows of one
// group are consecutive.
struct Row {
  const char* group;
  const char* key;
  const char* help;
};

class MetricSink {
 public:
  virtual ~MetricSink() = default;

  virtual void counter(const Row& row, uint64_t v) = 0;
  virtual void gauge(const Row& row, double v) = 0;
  // A gauge that JSON shows as true/false (Prometheus: 1/0).
  virtual void flag(const Row& row, bool v) = 0;
  // An enumerated state: a JSON string; in Prometheus a gauge of 1 whose
  // `key` label carries the state.
  virtual void state(const Row& row, const std::string& v) = 0;
  // Latency summary in ms. JSON: {count, mean_ms, p50_ms, p95_ms, p99_ms,
  // max_ms}; Prometheus: the same quantiles plus _sum and _count.
  virtual void summary(const Row& row, const LatencyHistogram& h) = 0;

  // A section: a JSON object under `key`, whose name joins the path.
  virtual void begin(const char* key) = 0;
  virtual void end() = 0;
  // A list of items: a JSON array under `key` of objects opened with
  // "id": <id>; in Prometheus every row inside carries label="<id>".
  virtual void begin_list(const char* key, const char* label) = 0;
  virtual void begin_item(const std::string& id) = 0;
  virtual void end_item() = 0;
  virtual void end_list() = 0;
  // An already-encoded JSON document ("" becomes null); Prometheus skips
  // it (the router embeds each shard's own document, which the shard
  // exports itself).
  virtual void document(const char* key, const std::string& json) = 0;
};

using Describe = FunctionRef<void(MetricSink&)>;

// The rows `describe` emits, as one JSON object / as Prometheus text.
std::string render_json(Describe describe);
std::string render_prometheus(Describe describe);

// PoolStats rows under `group` (frame_pool, net_pool, router_pool, ...).
void describe_pool(MetricSink& sink, const char* group, const PoolStats& pool);

}  // namespace psw::obs
