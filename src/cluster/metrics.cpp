#include "cluster/metrics.hpp"

#include "obs/metric_sink.hpp"
#include "obs/trace.hpp"
#include "util/json_parse.hpp"

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

void ShardCounters::describe(obs::MetricSink& sink) const {
  sink.counter({"", "routed_requests", "Requests routed"}, routed_requests.load());
  sink.counter({"", "routed_streams", "Streams routed"}, routed_streams.load());
  sink.counter({"", "forwarded_frames", "Frames forwarded"}, forwarded_frames.load());
  sink.counter({"", "forwarded_errors", "Error replies forwarded"}, forwarded_errors.load());
  sink.counter({"", "probes_ok", "Health probes answered"}, probes_ok.load());
  sink.counter({"", "probe_failures", "Health probes failed"}, probe_failures.load());
  sink.counter({"", "ejections", "Ejections"}, ejections.load());
  sink.counter({"", "rejoins", "Rejoins after an ejection"}, rejoins.load());
  sink.gauge({"", "inflight_requests", "Routed, unanswered requests"}, inflight_requests.load());
  sink.gauge({"", "active_streams", "Open stream proxies"}, active_streams.load());
  sink.summary({"", "frame_latency_ms", "Server total_ms of forwarded frames"}, frame_latency_ms);
}

void RouterMetrics::describe(obs::MetricSink& sink) const {
  sink.counter({"router", "clients_accepted", "Clients accepted"}, clients_accepted.load());
  sink.counter({"router", "clients_rejected", "Clients over the cap"}, clients_rejected.load());
  sink.counter({"router", "hello_rejects", "Unsupported hellos"}, hello_rejects.load());
  sink.counter({"router", "protocol_errors", "Framing errors"}, protocol_errors.load());
  sink.counter({"router", "requests_routed", "Requests routed"}, requests_routed.load());
  sink.counter({"router", "streams_routed", "Streams routed"}, streams_routed.load());
  sink.counter({"router", "frames_forwarded", "Frames forwarded"}, frames_forwarded.load());
  sink.counter({"router", "metrics_served", "Metrics documents served"}, metrics_served.load());
  sink.counter({"router", "reroutes", "Sessions re-pinned after shard loss"}, reroutes.load());
  sink.counter({"router", "unavailable_rejections", "Requests with no eligible shard"},
               unavailable_rejections.load());
  LatencyHistogram merged;
  for (const auto& s : shards) merged.merge(s->frame_latency_ms);
  sink.summary({"router", "frame_latency_ms", "Frame latency, all shards"}, merged);
}

void describe_cluster(obs::MetricSink& sink, const RouterMetrics& m,
                      const std::vector<ShardSnapshot>& shards, const PoolStats& pool,
                      const obs::SpanRecorder* recorder) {
  // Cluster rollups from the shard documents, parsed here rather than on
  // every probe.
  uint64_t completed = 0, cache_hits = 0, cache_misses = 0, healthy = 0, in_ring = 0;
  for (const ShardSnapshot& s : shards) {
    JsonValue doc;
    if (json_parse(s.metrics_json, &doc)) {
      const auto u64 = [&doc](const char* path) {
        const JsonValue* v = doc.find_path(path);
        return v != nullptr ? v->as_u64() : 0;
      };
      completed += u64("service.completion.completed");
      cache_hits += u64("service.volume_cache.hits");
      cache_misses += u64("service.volume_cache.misses");
    }
    if (s.state == ShardState::kHealthy || s.state == ShardState::kDraining) ++healthy;
    if (s.in_ring) ++in_ring;
  }

  m.describe(sink);
  obs::describe_pool(sink, "router_pool", pool);
  sink.gauge({"cluster", "shards", "Shards configured"}, shards.size());
  sink.gauge({"cluster", "shards_healthy", "Shards healthy or draining"}, healthy);
  sink.gauge({"cluster", "shards_in_ring", "Shards taking placements"}, in_ring);
  sink.counter({"cluster", "frames_completed", "Frames completed, all shards"}, completed);
  sink.counter({"cluster", "cache_hits", "Volume cache hits, all shards"}, cache_hits);
  sink.counter({"cluster", "cache_misses", "Volume cache misses, all shards"}, cache_misses);
  if (recorder != nullptr) recorder->describe(sink);

  sink.begin_list("shards", "shard");
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardSnapshot& s = shards[i];
    sink.begin_item(s.id);
    sink.state({"", "state", "Shard state"}, to_string(s.state));
    sink.gauge({"", "weight", "Ring weight"}, s.weight);
    sink.flag({"", "in_ring", "Takes new placements"}, s.in_ring);
    if (i < m.shards.size()) m.shards[i]->describe(sink);
    sink.document("metrics", s.metrics_json);
    sink.end_item();
  }
  sink.end_list();
}

std::string aggregate_metrics_json(const RouterMetrics& m,
                                   const std::vector<ShardSnapshot>& shards,
                                   const PoolStats& pool, const obs::SpanRecorder* recorder) {
  return obs::render_json(
      [&](obs::MetricSink& sink) { describe_cluster(sink, m, shards, pool, recorder); });
}

}  // namespace psw::cluster
