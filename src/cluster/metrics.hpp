// Router-level counters and the aggregated cluster metrics document.
//
// The router's own counters (clients, routed requests/streams, forwarded
// frames, re-routes, probe failures, ejections) are plain atomics written
// by the poll thread and readable from any thread. Each shard's own
// metrics arrive as the JSON document its kMetricsReply returns to the
// health prober; the aggregate embeds each verbatim and, when rendered,
// parses them for a few cluster-wide sums. Router-observed per-shard frame
// latencies merge into one cluster distribution (LatencyHistogram::merge).
// Every metric is one row of a describe() function (obs/metric_sink.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/buffer_pool.hpp"
#include "util/histogram.hpp"

namespace psw::obs {
class MetricSink;
class SpanRecorder;
}  // namespace psw::obs

namespace psw::cluster {

// Lifecycle of one shard as the router sees it.
enum class ShardState : int {
  kConnecting = 0,  // control channel not yet established
  kHealthy,         // probed OK, taking placements
  kDraining,        // healthy but administratively out of the ring
  kEjected,         // failed out; reconnect with backoff in progress
};

const char* to_string(ShardState s);

// Counters for one shard. All relaxed: independent monotonic event counts
// and gauges — readers never infer cross-field ordering from them.
struct ShardCounters {
  std::atomic<uint64_t> routed_requests{0};
  std::atomic<uint64_t> routed_streams{0};
  std::atomic<uint64_t> forwarded_frames{0};
  std::atomic<uint64_t> forwarded_errors{0};
  std::atomic<uint64_t> probes_ok{0};
  std::atomic<uint64_t> probe_failures{0};
  std::atomic<uint64_t> ejections{0};
  std::atomic<uint64_t> rejoins{0};
  std::atomic<int64_t> inflight_requests{0};  // gauge: routed, not yet replied
  std::atomic<int64_t> active_streams{0};     // gauge: open stream proxies
  LatencyHistogram frame_latency_ms;  // server total_ms of forwarded frames

  // Rows inside the shard's item of the aggregated document.
  void describe(obs::MetricSink& sink) const;
};

struct RouterMetrics {
  explicit RouterMetrics(size_t shard_count) {
    shards.reserve(shard_count);
    for (size_t i = 0; i < shard_count; ++i) {
      shards.push_back(std::make_unique<ShardCounters>());
    }
  }

  std::atomic<uint64_t> clients_accepted{0};
  std::atomic<uint64_t> clients_rejected{0};  // accept cap
  std::atomic<uint64_t> hello_rejects{0};     // unsupported hello version
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> requests_routed{0};
  std::atomic<uint64_t> streams_routed{0};
  std::atomic<uint64_t> frames_forwarded{0};
  std::atomic<uint64_t> metrics_served{0};     // aggregated endpoint hits
  std::atomic<uint64_t> reroutes{0};           // session re-pinned after loss
  std::atomic<uint64_t> unavailable_rejections{0};  // no eligible shard

  std::vector<std::unique_ptr<ShardCounters>> shards;

  // Group "router": the counters above plus every shard's frame latency
  // merged into one distribution.
  void describe(obs::MetricSink& sink) const;
};

// One shard's contribution to the aggregated document.
struct ShardSnapshot {
  std::string id;
  ShardState state = ShardState::kConnecting;
  int weight = 1;
  bool in_ring = false;
  std::string metrics_json;  // last kMetricsReply payload; may be empty
};

// Rows of the aggregated cluster document: router counters with the merged
// cluster-wide latency, the router's payload pool (`router_pool`, shaped
// like netserve's `net_pool`), cluster rollups summed from the shard
// documents, the list of shards (state, router-side counters, the embedded
// shard document) and, with a recorder, its span counters.
void describe_cluster(obs::MetricSink& sink, const RouterMetrics& m,
                      const std::vector<ShardSnapshot>& shards, const PoolStats& pool,
                      const obs::SpanRecorder* recorder = nullptr);

// Those rows as the aggregated JSON document.
std::string aggregate_metrics_json(const RouterMetrics& m,
                                   const std::vector<ShardSnapshot>& shards,
                                   const PoolStats& pool,
                                   const obs::SpanRecorder* recorder = nullptr);

}  // namespace psw::cluster
