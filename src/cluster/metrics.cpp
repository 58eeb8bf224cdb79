#include "cluster/metrics.hpp"

#include <cctype>

#include "serve/metrics.hpp"
#include "util/json.hpp"

namespace psw::cluster {

const char* to_string(ShardState s) {
  switch (s) {
    case ShardState::kConnecting: return "connecting";
    case ShardState::kHealthy: return "healthy";
    case ShardState::kDraining: return "draining";
    case ShardState::kEjected: return "ejected";
  }
  return "?";
}

namespace {

// Parses the unsigned integer following `"key":` starting at `from`;
// returns false when the key is absent before `until`.
bool scan_from(const std::string& json, const std::string& key, size_t from,
               size_t until, uint64_t* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos || at >= until) return false;
  size_t p = at + needle.size();
  while (p < until && std::isspace(static_cast<unsigned char>(json[p]))) ++p;
  uint64_t v = 0;
  bool any = false;
  while (p < until && std::isdigit(static_cast<unsigned char>(json[p]))) {
    v = v * 10 + static_cast<uint64_t>(json[p] - '0');
    any = true;
    ++p;
  }
  if (!any) return false;
  *out = v;
  return true;
}

// [start, end) of the brace-balanced block of the first `"object": {`.
bool object_extent(const std::string& json, const std::string& object,
                   size_t* begin, size_t* end) {
  const std::string needle = "\"" + object + "\":";
  size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  size_t p = json.find('{', at + needle.size());
  if (p == std::string::npos) return false;
  int depth = 0;
  for (size_t i = p; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) {
      *begin = p;
      *end = i + 1;
      return true;
    }
  }
  return false;
}

}  // namespace

uint64_t scan_json_u64(const std::string& json, const std::string& key) {
  uint64_t v = 0;
  scan_from(json, key, 0, json.size(), &v);
  return v;
}

uint64_t scan_json_u64_in(const std::string& json, const std::string& object,
                          const std::string& key) {
  size_t begin = 0, end = 0;
  if (!object_extent(json, object, &begin, &end)) return 0;
  uint64_t v = 0;
  scan_from(json, key, begin, end, &v);
  return v;
}

std::string aggregate_metrics_json(const RouterMetrics& m,
                                   const std::vector<ShardSnapshot>& shards,
                                   const PoolStats& pool) {
  // Cluster rollups from the embedded shard documents, plus the merged
  // router-observed latency distribution.
  uint64_t completed = 0, cache_hits = 0, cache_misses = 0;
  size_t healthy = 0, in_ring = 0;
  LatencyHistogram merged;
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardSnapshot& s = shards[i];
    completed += scan_json_u64_in(s.metrics_json, "completion", "completed");
    cache_hits += scan_json_u64_in(s.metrics_json, "volume_cache", "hits");
    cache_misses += scan_json_u64_in(s.metrics_json, "volume_cache", "misses");
    if (s.state == ShardState::kHealthy || s.state == ShardState::kDraining) {
      ++healthy;
    }
    if (s.in_ring) ++in_ring;
    if (i < m.shards.size()) merged.merge(m.shards[i]->frame_latency_ms);
  }

  JsonWriter w;
  w.begin_object();
  w.key("router").begin_object()
      .field("clients_accepted", m.clients_accepted.load())
      .field("clients_rejected", m.clients_rejected.load())
      .field("hello_rejects", m.hello_rejects.load())
      .field("protocol_errors", m.protocol_errors.load())
      .field("requests_routed", m.requests_routed.load())
      .field("streams_routed", m.streams_routed.load())
      .field("frames_forwarded", m.frames_forwarded.load())
      .field("metrics_served", m.metrics_served.load())
      .field("reroutes", m.reroutes.load())
      .field("unavailable_rejections", m.unavailable_rejections.load());
  w.key("frame_latency_ms");
  merged.write_json(w);
  w.end_object();

  w.key("router_pool");
  serve::write_pool_json(w, pool);

  w.key("cluster").begin_object()
      .field("shards", static_cast<uint64_t>(shards.size()))
      .field("shards_healthy", static_cast<uint64_t>(healthy))
      .field("shards_in_ring", static_cast<uint64_t>(in_ring))
      .field("frames_completed", completed)
      .field("cache_hits", cache_hits)
      .field("cache_misses", cache_misses)
      .end_object();

  w.key("shards").begin_array();
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardSnapshot& s = shards[i];
    w.begin_object()
        .field("id", s.id)
        .field("state", to_string(s.state))
        .field("weight", s.weight)
        .field("in_ring", s.in_ring);
    if (i < m.shards.size()) {
      const ShardCounters& c = *m.shards[i];
      w.field("routed_requests", c.routed_requests.load())
          .field("routed_streams", c.routed_streams.load())
          .field("forwarded_frames", c.forwarded_frames.load())
          .field("forwarded_errors", c.forwarded_errors.load())
          .field("probes_ok", c.probes_ok.load())
          .field("probe_failures", c.probe_failures.load())
          .field("ejections", c.ejections.load())
          .field("rejoins", c.rejoins.load())
          .field("inflight_requests", c.inflight_requests.load())
          .field("active_streams", c.active_streams.load());
      w.key("frame_latency_ms");
      c.frame_latency_ms.write_json(w);
    }
    // The shard's own metrics document, embedded verbatim (it is already
    // JSON; an empty snapshot becomes null).
    w.key("metrics");
    if (s.metrics_json.empty()) {
      w.value("null");  // placeholder replaced below
    } else {
      w.value("@SHARD@");  // placeholder replaced below
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();

  // JsonWriter only emits scalar values; splice the raw shard documents in
  // place of the placeholders it wrote.
  std::string out = w.str();
  size_t cursor = 0;
  for (const ShardSnapshot& s : shards) {
    const std::string placeholder =
        s.metrics_json.empty() ? "\"null\"" : "\"@SHARD@\"";
    const size_t at = out.find(placeholder, cursor);
    if (at == std::string::npos) break;
    const std::string replacement = s.metrics_json.empty() ? "null" : s.metrics_json;
    out.replace(at, placeholder.size(), replacement);
    cursor = at + replacement.size();
  }
  return out;
}

}  // namespace psw::cluster
