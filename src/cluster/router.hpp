// PSWN front-end router: the horizontal-scale layer in front of netserve.
//
// One poll thread speaks the versioned wire protocol on both faces. On the
// south face it accepts clients through the same net::Loop as NetServer
// (net/loop.hpp: accept path, hello handshake, typed errors, orderly bye,
// idle harvest). On the north face it proxies to N backend netserve shards
// over non-blocking upstream connections, one per (client, shard) pair,
// which join the loop's poll set beside the shard control connections —
// frames are forwarded verbatim, so each shard's per-connection
// delta-codec chains line up one-to-one with the client's decoders and no
// pixel is ever re-encoded in flight. Every connection is a net::Conn
// (net/conn.hpp): a reply travels to the client as the pooled payload it
// arrived in, behind the header it arrived with — one copy out of the
// receive buffer, one CRC check, no re-encode.
//
// Placement: a request names a volume; its canonical key hashes onto a
// weighted consistent-hash ring of the healthy, non-draining shards
// (cluster/hash_ring.hpp). Repeated requests for one volume therefore land
// on the same shard and its VolumeCache stays hot; `replicate` > 1 widens
// the candidate set to the first k distinct ring successors and the
// least-loaded candidate wins (k-way replication of hot volumes).
//
// Affinity: the first routed request pins its session to the chosen shard;
// every later request of that session follows the pin regardless of ring
// churn, because the shard holds the session's delta-encoder state and §4.2
// renderer profile. Only shard loss breaks a pin: in-flight requests and
// open streams get a typed kUnavailable error, and the session's next
// request re-places on the rebuilt ring (counted as a re-route).
//
// Health: a control connection per shard probes with kMetricsRequest every
// probe_interval_ms; the reply doubles as the shard's metrics snapshot for
// the aggregated cluster document. `eject_after_failures` consecutive
// probe failures (or any data-path loss) ejects the shard — ring rebuild,
// typed errors for its in-flight work — and reconnect-with-backoff later
// rejoins it. set_drain() is the administrative version: the shard leaves
// the ring (no new placements) but pinned sessions keep flowing.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/metrics.hpp"
#include "net/conn.hpp"
#include "net/loop.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"
#include "util/buffer_pool.hpp"
#include "util/sync.hpp"

namespace psw::cluster {

struct ShardSpec {
  std::string id;                    // stable ring identity ("shard-0", ...)
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int weight = 1;
};

// Listening address, client cap and client idle timeout come from
// net::ListenOptions (net/loop.hpp), shared with netserve.
struct RouterOptions : net::ListenOptions {
  int vnodes = 64;     // ring points per unit of shard weight
  int replicate = 1;   // k-way placement candidates (least-loaded wins)
  double probe_interval_ms = 250.0;
  double probe_timeout_ms = 2'000.0;   // unanswered probe counts as a failure
  int eject_after_failures = 3;
  double reconnect_backoff_ms = 50.0;  // control-channel retry, doubles...
  double reconnect_backoff_max_ms = 2'000.0;  // ...up to this cap
  size_t max_send_buffer_bytes = 32u << 20;   // per connection, either face
  std::string name = "pswvr-router";
  // Distributed tracing: kRouterProxy spans of sampled proxied requests
  // land here (not owned; null disables recording — trace contexts still
  // forward verbatim). `trace_node` labels the router in trace dumps.
  obs::SpanRecorder* recorder = nullptr;
  std::string trace_node = "router";
};

class Router : private net::Loop::Handler {
 public:
  Router(std::vector<ShardSpec> shards, RouterOptions options = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Binds, listens and starts the poll thread; shard control channels begin
  // connecting immediately. False (with *error) when the bind fails.
  bool start(std::string* error = nullptr);

  // Closes every connection (clients, upstreams, control) and joins the
  // poll thread. Idempotent.
  void stop();

  bool running() const { return loop_.running(); }
  uint16_t port() const { return loop_.port(); }
  const RouterOptions& options() const { return options_; }
  const RouterMetrics& metrics() const { return metrics_; }
  // The payload pool every router connection reads into and forwards from.
  PoolStats pool_stats() const { return pool_.stats(); }

  // Blocks until at least `n` shards are healthy (probed OK) or timeout.
  bool wait_healthy(size_t n, double timeout_ms) const;

  ShardState shard_state(size_t shard) const {
    return static_cast<ShardState>(
        // relaxed: state is a monotonically published gauge for observers;
        // no other memory is inferred from it.
        published_state_[shard].load(std::memory_order_relaxed));
  }

  // Administrative drain: true if the shard id exists. Applied by the poll
  // thread on its next wakeup (the call itself never blocks on it).
  bool set_drain(const std::string& shard_id, bool draining);

  // The aggregated cluster metrics document (also served to any client
  // sending kMetricsRequest), and the same rows (describe_cluster, minus
  // the embedded shard documents) as Prometheus text
  // (kMetricsSelectorPrometheus).
  std::string metrics_json() const;
  std::string prometheus_text() const;

  // Span-dump JSON from the configured recorder (kMetricsSelectorTrace);
  // empty but well-formed without one.
  std::string trace_dump_json() const;

 private:
  // Every shard's state and last probe document, for the exports.
  std::vector<ShardSnapshot> snapshots() const;

  // In-flight proxy bookkeeping, one entry per forwarded request or open
  // stream. Sampled entries carry the trace context, so frame receipt can
  // close a kRouterProxy span and a shard loss can correlate its typed
  // errors and log lines with the trace.
  struct ProxyEntry {
    obs::TraceContext trace;
    int64_t start_ns = 0;  // steady ns when the request was forwarded
  };

  // One proxied upstream connection: the shard-side half of one client.
  struct Upstream {
    size_t shard = 0;
    net::Conn io;  // hello queued first
    std::map<uint64_t, ProxyEntry> inflight_requests;  // by request id
    std::map<uint64_t, ProxyEntry> active_streams;     // by stream id
  };

  struct ClientConn : net::Peer {
    std::map<size_t, Upstream> upstreams;       // by shard index
    std::map<uint64_t, size_t> session_pins;    // session -> shard index
    // Sessions whose pinned shard was lost; the next request re-places and
    // counts a re-route.
    std::set<uint64_t> lost_pins;
  };

  // Control/probe channel state per shard (poll thread only).
  struct Shard {
    ShardSpec spec;
    net::Conn ctl;  // hello queued first
    bool hello_done = false;
    bool probe_outstanding = false;
    serve::Clock::time_point probe_sent{};
    serve::Clock::time_point next_probe{};
    serve::Clock::time_point next_reconnect{};
    double backoff_ms = 0.0;
    int consecutive_failures = 0;
    bool healthy = false;
    bool draining = false;
  };

  // --- net::Loop::Handler ---
  // Watched connections: {client id, shard} is an upstream, {0, shard} a
  // shard's control channel.
  std::unique_ptr<net::Peer> make_peer() override {
    return std::make_unique<ClientConn>();
  }
  // Drain requests, then shard reconnects, probes and probe timeouts.
  void tick() override;
  // The client face: routes requests, answers metrics requests.
  bool on_message(net::Peer& peer, net::InMessage& msg) override;
  // Cuts a client whose send queue passed max_send_buffer_bytes.
  void flushed(net::Peer& peer) override;
  bool busy(const net::Peer& peer) const override;
  void watch() override;
  net::Conn* watched(const net::WatchKey& key) override;
  bool on_watched_message(const net::WatchKey& key, net::InMessage& msg) override;
  // A lost upstream ejects its shard; a lost control channel is a failure.
  void watched_lost(const net::WatchKey& key, const char* why,
                    net::WireStatus status) override;

  // --- client face ---
  static ClientConn& client(net::Peer& peer) { return static_cast<ClientConn&>(peer); }
  // Places a request (or a stream: `stream`) on a shard and forwards it,
  // opening the proxy entry its reply closes; `id` is the id replies carry.
  void route(ClientConn& conn, net::InMessage& msg, uint64_t session_id,
             const serve::VolumeKey& volume, uint64_t id,
             const obs::TraceContext& trace, bool stream);
  // Ring placement + affinity. Returns false (typed error already sent)
  // when no shard is eligible.
  bool pick_shard(ClientConn& conn, uint64_t session_id,
                  const serve::VolumeKey& volume, uint64_t error_request_id,
                  const obs::TraceContext& trace, size_t* shard_out);
  // Closes a kRouterProxy span (forwarded -> reply) for a sampled entry.
  void record_proxy_span(const ProxyEntry& entry, uint64_t tag);

  // --- upstream face ---
  // Starts a non-blocking connect to a shard with our hello already
  // queued; an invalid Conn when the connect cannot even start.
  net::Conn dial(size_t shard);
  Upstream* upstream_for(ClientConn& conn, size_t shard);
  // The warm forward path: per-type proxy bookkeeping, then the reply goes
  // to the client's Conn as it arrived.
  bool forward_upstream_message(ClientConn& conn, Upstream& up,
                                net::InMessage& msg);
  // Typed kUnavailable for everything in flight on a lost upstream, then
  // unpins its sessions.
  void upstream_lost(ClientConn& conn, Upstream& up, const std::string& why);

  // --- shard lifecycle ---
  void advance_shard(Shard& s, serve::Clock::time_point now);
  bool handle_ctl_message(Shard& s, const net::InMessage& msg);
  void ctl_failure(Shard& s, const std::string& why);
  // Closes the control channel and schedules a reconnect with backoff.
  void drop_ctl(Shard& s);
  void eject_shard(size_t shard, const std::string& why);
  void mark_healthy(Shard& s);
  void rebuild_ring();
  void publish_state(size_t shard);
  size_t shard_index(const Shard& s) const;

  std::vector<ShardSpec> specs_;
  RouterOptions options_;
  RouterMetrics metrics_;
  HashRing ring_;
  BufferPool pool_;

  // Poll-thread-owned state. ring_shard_map_[ring node index] = shard
  // index, rebuilt alongside the ring (the ring only holds the eligible
  // subset of shards_). The clients are the loop's peers.
  std::vector<Shard> shards_;
  std::vector<size_t> ring_shard_map_;

  // Cross-thread surface. published_state_ mirrors each shard's lifecycle
  // for observers; drain_want_ carries set_drain() requests to the poll
  // thread; snapshot_mutex_ guards the per-shard metrics JSON copies the
  // prober refreshes and metrics_json() reads.
  std::unique_ptr<std::atomic<int>[]> published_state_;
  std::unique_ptr<std::atomic<bool>[]> drain_want_;
  mutable Mutex snapshot_mutex_;
  std::vector<std::string> shard_metrics_ PSW_GUARDED_BY(snapshot_mutex_);

  net::Loop loop_;  // set_drain() wakes it from any thread
};

}  // namespace psw::cluster
