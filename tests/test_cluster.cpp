// Sharded-cluster tests: consistent-hash ring properties (balance,
// weighting, minimal disruption, replication candidates), and router
// end-to-end behavior against real in-process netserve shards — frames
// proxied through the router stay bit-identical to direct renderer output,
// session affinity survives an administrative drain, streams arrive in
// order, the aggregated metrics document rolls shard counters up, a hello
// with the wrong protocol version gets a typed error then close, and
// losing a shard mid-stream yields typed kUnavailable errors, an ejection,
// a ring rebuild and a counted re-route instead of a hang. The port onto
// net::Conn is pinned too: set_drain racing stop()/start() cycles, garbage
// bytes answered with a typed error, a slow reader's stream arriving
// bit-identical, a stalled reader cut at the send-buffer bound, and warm
// forwarding served entirely from recycled pool buffers. The ClusterTrace
// suite pins the tracing contract across the router hop: span parentage,
// bit-identity of traced frames, duration consistency with measured e2e
// latency, metrics-selector dumps, and trace ids on typed errors. The
// ClusterMetrics suite pins the aggregated document's shard ids and
// embedded documents, and that a shard and the router expose the same
// metric set as JSON and as Prometheus text.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "cluster/metrics.hpp"
#include "cluster/router.hpp"
#include "core/classify.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "parallel/new_renderer.hpp"
#include "phantom/phantom.hpp"
#include "serve/service.hpp"
#include "util/json_parse.hpp"
#include "util/timer.hpp"

namespace psw::cluster {
namespace {

constexpr double kDeg = 3.14159265358979323846 / 180.0;

// The unsigned integer at a dotted path of a metrics document; 0 when the
// document does not parse or the path is absent.
uint64_t metric_u64(const std::string& json, const std::string& path) {
  JsonValue doc;
  if (!json_parse(json, &doc)) return 0;
  const JsonValue* v = doc.find_path(path);
  return v != nullptr ? v->as_u64() : 0;
}

uint64_t pixel_hash(const ImageU8& img) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto* bytes = reinterpret_cast<const uint8_t*>(img.data());
  for (size_t i = 0; i < img.pixel_count() * sizeof(Pixel8); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h ^ (static_cast<uint64_t>(img.width()) << 32) ^
         static_cast<uint64_t>(img.height());
}

// --- hash ring ------------------------------------------------------------

HashRing ring_of(const std::vector<RingNode>& nodes, int vnodes = 64) {
  HashRing ring(vnodes);
  ring.rebuild(nodes);
  return ring;
}

std::vector<RingNode> shard_nodes(int n) {
  std::vector<RingNode> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back({"shard-" + std::to_string(i), 1});
  return nodes;
}

TEST(HashRing, TwoAndFourNodeOwnershipIsBalanced) {
  const int kKeys = 4000;
  {
    const HashRing ring = ring_of(shard_nodes(2));
    int counts[2] = {0, 0};
    for (int i = 0; i < kKeys; ++i) {
      ++counts[ring.owner(HashRing::hash_key("key-" + std::to_string(i)))];
    }
    for (int c : counts) {
      EXPECT_GT(c, kKeys / 4);
      EXPECT_LT(c, 3 * kKeys / 4);
    }
  }
  {
    const HashRing ring = ring_of(shard_nodes(4));
    int counts[4] = {0, 0, 0, 0};
    for (int i = 0; i < kKeys; ++i) {
      ++counts[ring.owner(HashRing::hash_key("key-" + std::to_string(i)))];
    }
    for (int c : counts) {
      EXPECT_GT(c, kKeys / 10);
      EXPECT_LT(c, 2 * kKeys / 5);
    }
  }
}

TEST(HashRing, WeightScalesOwnedKeyspace) {
  const HashRing ring = ring_of({{"light", 1}, {"heavy", 2}});
  int light = 0, heavy = 0;
  for (int i = 0; i < 4000; ++i) {
    const size_t o = ring.owner(HashRing::hash_key("key-" + std::to_string(i)));
    (o == 0 ? light : heavy) += 1;
  }
  // A weight-2 node owns ~2x the keyspace of a weight-1 node.
  EXPECT_GT(heavy, light * 13 / 10);
  EXPECT_LT(heavy, light * 3);
}

TEST(HashRing, RemovingANodeOnlyMovesItsOwnKeys) {
  const HashRing before = ring_of(shard_nodes(4));
  // Dropping the *last* node keeps the surviving indices aligned, so the
  // minimal-disruption property is directly comparable.
  const HashRing after = ring_of(shard_nodes(3));
  int moved_from_survivor = 0, remapped = 0;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t h = HashRing::hash_key("key-" + std::to_string(i));
    const size_t o1 = before.owner(h);
    const size_t o2 = after.owner(h);
    if (o1 == 3) {
      ++remapped;
      EXPECT_LT(o2, 3u);
    } else if (o1 != o2) {
      ++moved_from_survivor;
    }
  }
  EXPECT_EQ(moved_from_survivor, 0);
  EXPECT_GT(remapped, 0);
}

TEST(HashRing, PickReturnsDistinctNodesOwnerFirst) {
  const HashRing ring = ring_of(shard_nodes(4));
  for (int i = 0; i < 50; ++i) {
    const uint64_t h = HashRing::hash_key("volume-" + std::to_string(i));
    const std::vector<size_t> three = ring.pick(h, 3);
    ASSERT_EQ(three.size(), 3u);
    EXPECT_EQ(three[0], ring.owner(h));
    EXPECT_NE(three[0], three[1]);
    EXPECT_NE(three[0], three[2]);
    EXPECT_NE(three[1], three[2]);
    // k beyond the node count saturates at every distinct node.
    EXPECT_EQ(ring.pick(h, 99).size(), 4u);
  }
}

// --- router end-to-end ----------------------------------------------------

RouterOptions fast_probes() {
  RouterOptions ropt;
  ropt.probe_interval_ms = 50.0;
  return ropt;
}

// Shard options for the clusters that set none. A named object rather than
// a `= {}` default argument: GCC 12 at -O3 reports the temporary's string
// member as maybe-uninitialized in every inlined caller.
const net::NetServerOptions kDefaultShardOptions{};

// N in-process netserve shards fronted by a Router, all on ephemeral ports.
// With `traced` every process-level component gets its own SpanRecorder,
// exactly like netserve --trace-sample / clusterctl wire them up.
class MiniCluster {
 public:
  explicit MiniCluster(int n, bool traced = false,
                       RouterOptions ropt = fast_probes())
      : MiniCluster(n, traced, std::move(ropt), kDefaultShardOptions) {}

  MiniCluster(int n, bool traced, RouterOptions ropt,
              const net::NetServerOptions& shard_opt) {
    std::vector<ShardSpec> specs;
    for (int i = 0; i < n; ++i) {
      serve::ServiceOptions sopt;
      sopt.worker_threads = 2;
      net::NetServerOptions nopt = shard_opt;
      if (traced) {
        recorders_.push_back(std::make_unique<obs::SpanRecorder>());
        sopt.recorder = recorders_.back().get();
        nopt.recorder = recorders_.back().get();
        nopt.trace_node = "shard-" + std::to_string(i);
      }
      services_.push_back(std::make_unique<serve::RenderService>(sopt));
      servers_.push_back(
          std::make_unique<net::NetServer>(*services_.back(), nopt));
      std::string error;
      ok_ = servers_.back()->start(&error);
      EXPECT_TRUE(ok_) << error;
      if (!ok_) return;
      specs.push_back({"shard-" + std::to_string(i), "127.0.0.1",
                       servers_.back()->port(), 1});
    }
    if (traced) {
      ropt.recorder = &router_recorder_;
      ropt.trace_node = "router";
    }
    router_ = std::make_unique<Router>(specs, ropt);
    std::string error;
    ok_ = router_->start(&error);
    EXPECT_TRUE(ok_) << error;
  }

  ~MiniCluster() {
    if (router_) router_->stop();
    for (auto& s : servers_) s->stop();
  }

  bool healthy(size_t n) const {
    return ok_ && router_->wait_healthy(n, 10'000.0);
  }

  Router& router() { return *router_; }
  net::NetServer& server(size_t i) { return *servers_[i]; }
  serve::RenderService& service(size_t i) { return *services_[i]; }
  obs::SpanRecorder& shard_recorder(size_t i) { return *recorders_[i]; }
  obs::SpanRecorder& router_recorder() { return router_recorder_; }

 private:
  bool ok_ = false;
  obs::SpanRecorder router_recorder_;
  std::vector<std::unique_ptr<obs::SpanRecorder>> recorders_;
  std::vector<std::unique_ptr<serve::RenderService>> services_;
  std::vector<std::unique_ptr<net::NetServer>> servers_;
  std::unique_ptr<Router> router_;
};

// First seed >= start_seed whose mri-36 volume the n-shard ring (built
// exactly as the router builds it) places on shard `want`.
serve::VolumeKey key_owned_by(size_t want, int nshards, uint64_t start_seed = 1) {
  const HashRing ring = ring_of(shard_nodes(nshards));
  serve::VolumeKey key;
  key.kind = "mri";
  key.nx = key.ny = key.nz = 36;
  for (uint64_t seed = start_seed; seed < start_seed + 100'000; ++seed) {
    key.seed = seed;
    if (ring.owner(HashRing::hash_key(key.canonical())) == want) return key;
  }
  ADD_FAILURE() << "no seed places a volume on shard " << want;
  return key;
}

bool wait_state(const Router& router, size_t shard, ShardState want,
                double timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(static_cast<int64_t>(timeout_ms));
  while (std::chrono::steady_clock::now() < deadline) {
    if (router.shard_state(shard) == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return router.shard_state(shard) == want;
}

TEST(ClusterRouter, ProxiedFramesBitIdenticalToDirectRender) {
  MiniCluster cluster(2);
  ASSERT_TRUE(cluster.healthy(2));

  serve::VolumeKey key;
  key.kind = "mri";
  key.nx = key.ny = key.nz = 40;
  const int kFrames = 4;
  const double start_yaw = 0.4, pitch = 0.3, step_deg = 3.0;

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", cluster.router().port(), &error))
      << error;

  std::vector<uint64_t> served;
  for (int f = 0; f < kFrames; ++f) {
    net::RenderRequestMsg req;
    req.request_id = static_cast<uint64_t>(f) + 1;
    req.session_id = 7;
    req.volume = key;
    req.camera = Camera::orbit({key.nx, key.ny, key.nz},
                               start_yaw + f * step_deg * kDeg, pitch);
    ImageU8 image;
    net::FrameMsg meta;
    ASSERT_TRUE(client.render(req, &image, &meta, &error)) << error;
    served.push_back(pixel_hash(image));
  }
  client.send_bye(nullptr);

  // Same frames, no network, no router.
  serve::ServiceOptions sopt;
  sopt.worker_threads = 2;
  const DensityVolume density = make_mri_brain(key.nx, key.ny, key.nz);
  const ClassifiedVolume classified =
      classify(density, TransferFunction::mri_preset(), key.classify);
  const EncodedVolume volume =
      EncodedVolume::build(classified, key.classify.alpha_threshold);
  NewParallelRenderer renderer(sopt.parallel);
  ThreadedExecutor exec(sopt.worker_threads);
  ImageU8 direct;
  ParallelRenderStats stats;
  for (int f = 0; f < kFrames; ++f) {
    renderer.render(volume,
                    Camera::orbit({key.nx, key.ny, key.nz},
                                  start_yaw + f * step_deg * kDeg, pitch),
                    exec, &direct, &stats);
    EXPECT_EQ(pixel_hash(direct), served[f]) << "frame " << f;
  }

  const RouterMetrics& m = cluster.router().metrics();
  EXPECT_EQ(m.requests_routed.load(), static_cast<uint64_t>(kFrames));
  EXPECT_EQ(m.frames_forwarded.load(), static_cast<uint64_t>(kFrames));
  EXPECT_EQ(m.protocol_errors.load(), 0u);
  // Affinity: one session, one shard — all four frames on the same shard.
  const uint64_t s0 = m.shards[0]->routed_requests.load();
  const uint64_t s1 = m.shards[1]->routed_requests.load();
  EXPECT_TRUE((s0 == 4 && s1 == 0) || (s0 == 0 && s1 == 4))
      << "s0=" << s0 << " s1=" << s1;
}

TEST(ClusterRouter, AffinityHoldsThroughDrainAndNewPlacementsAvoidIt) {
  MiniCluster cluster(2);
  ASSERT_TRUE(cluster.healthy(2));
  Router& router = cluster.router();

  const serve::VolumeKey key_a = key_owned_by(0, 2);
  const serve::VolumeKey key_b = key_owned_by(0, 2, key_a.seed + 1);
  ASSERT_NE(key_a.canonical(), key_b.canonical());

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;

  const auto render = [&](uint64_t session, const serve::VolumeKey& key,
                          uint64_t id) {
    net::RenderRequestMsg req;
    req.request_id = id;
    req.session_id = session;
    req.volume = key;
    req.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.3, 0.3);
    ImageU8 image;
    net::FrameMsg meta;
    ASSERT_TRUE(client.render(req, &image, &meta, &error)) << error;
  };

  // Session 1 pins to shard-0 (key_a's ring owner).
  render(1, key_a, 1);
  EXPECT_EQ(router.metrics().shards[0]->routed_requests.load(), 1u);

  ASSERT_TRUE(router.set_drain("shard-0", true));
  ASSERT_TRUE(wait_state(router, 0, ShardState::kDraining, 5'000.0));

  // The pinned session keeps flowing to the draining shard...
  render(1, key_a, 2);
  EXPECT_EQ(router.metrics().shards[0]->routed_requests.load(), 2u);
  // ...but a new session's placement avoids it, even for a volume the ring
  // would have put there.
  render(2, key_b, 3);
  EXPECT_EQ(router.metrics().shards[1]->routed_requests.load(), 1u);

  // Undrain: the shard rejoins the ring and fresh placements return.
  ASSERT_TRUE(router.set_drain("shard-0", false));
  ASSERT_TRUE(wait_state(router, 0, ShardState::kHealthy, 5'000.0));
  render(3, key_b, 4);
  EXPECT_EQ(router.metrics().shards[0]->routed_requests.load(), 3u);

  client.send_bye(nullptr);
  EXPECT_EQ(router.metrics().reroutes.load(), 0u);  // drain never breaks pins
}

TEST(ClusterRouter, StreamArrivesInOrderAndComplete) {
  MiniCluster cluster(2);
  ASSERT_TRUE(cluster.healthy(2));

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", cluster.router().port(), &error))
      << error;

  net::StreamRequestMsg req;
  req.stream_id = 11;
  req.session_id = 4;
  req.volume = key_owned_by(1, 2);
  req.frames = 6;
  req.step_deg = 4.0;
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  uint32_t next_seq = 0;
  net::StreamEndMsg end;
  bool ended = false;
  while (!ended) {
    net::NetClient::Event event;
    ASSERT_TRUE(client.next_event(&event, &error)) << error;
    ASSERT_NE(event.kind, net::NetClient::Event::Kind::kError);
    if (event.kind == net::NetClient::Event::Kind::kStreamEnd) {
      end = event.end;
      ended = true;
      continue;
    }
    EXPECT_EQ(event.frame.stream_id, req.stream_id);
    EXPECT_EQ(event.frame.seq, next_seq++);
  }
  client.send_bye(nullptr);

  EXPECT_EQ(end.frames_sent, req.frames);
  EXPECT_EQ(end.frames_dropped, 0u);
  EXPECT_EQ(next_seq, req.frames);
  EXPECT_EQ(cluster.router().metrics().streams_routed.load(), 1u);
  EXPECT_GE(cluster.router().metrics().frames_forwarded.load(),
            static_cast<uint64_t>(req.frames));
}

TEST(ClusterRouter, AggregatedMetricsRollUpBothShards) {
  MiniCluster cluster(2);
  ASSERT_TRUE(cluster.healthy(2));
  Router& router = cluster.router();

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;

  // One frame on each shard: distinct sessions, ring-targeted volumes.
  for (size_t shard = 0; shard < 2; ++shard) {
    net::RenderRequestMsg req;
    req.request_id = shard + 1;
    req.session_id = shard + 1;
    req.volume = key_owned_by(shard, 2);
    req.camera = Camera::orbit({req.volume.nx, req.volume.ny, req.volume.nz},
                               0.2, 0.3);
    ImageU8 image;
    net::FrameMsg meta;
    ASSERT_TRUE(client.render(req, &image, &meta, &error)) << error;
  }

  // The cluster rollup sums the shard documents the prober snapshots, so
  // give the next probe cycle a chance to pick the renders up.
  std::string json;
  uint64_t completed = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (completed < 2 && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(client.fetch_metrics(&json, &error)) << error;
    completed = metric_u64(json, "cluster.frames_completed");
    if (completed < 2) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  client.send_bye(nullptr);

  EXPECT_EQ(completed, 2u);
  EXPECT_EQ(metric_u64(json, "router.requests_routed"), 2u);
  EXPECT_EQ(metric_u64(json, "cluster.shards"), 2u);
  EXPECT_EQ(metric_u64(json, "cluster.shards_in_ring"), 2u);
  JsonValue doc;
  ASSERT_TRUE(json_parse(json, &doc, &error)) << error;
  const JsonValue* shards = doc.find("shards");
  ASSERT_TRUE(shards != nullptr && shards->is_array());
  ASSERT_EQ(shards->items.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const JsonValue& shard = shards->items[i];
    EXPECT_EQ(shard.find("id")->as_string(), "shard-" + std::to_string(i));
    // Each shard's own document is embedded verbatim.
    EXPECT_NE(shard.find_path("metrics.service.volume_cache.hits"), nullptr);
  }
  EXPECT_GE(router.metrics().metrics_served.load(), 1u);
}

// Placement at width 2: concurrent sessions on volumes the ring puts on
// each shard keep both shards forwarding, and each shard builds each of its
// volumes once, so both run at least 90% warm. Asserted as counts, not as
// throughput: a throughput ratio here would measure cache fit, not compute.
TEST(ClusterRouter, TwoShardsBothForwardAndServeWarmFromCache) {
  MiniCluster cluster(2);
  ASSERT_TRUE(cluster.healthy(2));
  constexpr int kFrames = 10;
  std::vector<serve::VolumeKey> keys;  // two volumes per shard
  for (size_t shard = 0; shard < 2; ++shard) {
    keys.push_back(key_owned_by(shard, 2));
    keys.push_back(key_owned_by(shard, 2, keys.back().seed + 1));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < keys.size(); ++s) {
    sessions.emplace_back([&, s] {
      net::NetClient client;
      std::string error;
      if (!client.connect("127.0.0.1", cluster.router().port(), &error)) {
        failures.fetch_add(kFrames);
        return;
      }
      const serve::VolumeKey& key = keys[s];
      for (int f = 0; f < kFrames; ++f) {
        net::RenderRequestMsg req;
        req.request_id = static_cast<uint64_t>(f) + 1;
        req.session_id = s + 1;
        req.volume = key;
        req.camera = Camera::orbit({key.nx, key.ny, key.nz},
                                   0.13 * static_cast<double>(s) + f * 2.0 * kDeg, 0.35);
        ImageU8 image;
        net::FrameMsg meta;
        if (!client.render(req, &image, &meta, &error)) failures.fetch_add(1);
      }
      client.send_bye(nullptr);
    });
  }
  for (std::thread& t : sessions) t.join();
  EXPECT_EQ(failures.load(), 0);

  const RouterMetrics& m = cluster.router().metrics();
  EXPECT_EQ(m.protocol_errors.load(), 0u);
  for (size_t shard = 0; shard < 2; ++shard) {
    EXPECT_EQ(m.shards[shard]->forwarded_frames.load(), 2u * kFrames) << shard;
    EXPECT_EQ(cluster.server(shard).metrics().protocol_errors.load(), 0u);
    const serve::CacheStats cache = cluster.service(shard).cache_stats();
    EXPECT_EQ(cache.misses, 2u) << shard;
    EXPECT_EQ(cache.hits, 2u * kFrames - 2) << shard;
    EXPECT_GE(cache.hit_rate(), 0.90) << shard;
  }
}

// A shard's idle harvest closes a router upstream that has nothing in
// flight with a clean EOF. That is the shard tidying up, not a failure: the
// shard stays in the ring and the next request redials, bit-identically.
TEST(ClusterRouter, IdleHarvestedUpstreamIsRedialedNotEjected) {
  net::NetServerOptions shard_opt;
  shard_opt.idle_timeout_ms = 100.0;
  MiniCluster cluster(1, false, fast_probes(), shard_opt);
  ASSERT_TRUE(cluster.healthy(1));

  serve::VolumeKey key;
  key.kind = "mri";
  key.nx = key.ny = key.nz = 32;
  const auto request_for = [&key](uint64_t id) {
    net::RenderRequestMsg req;
    req.request_id = id;
    req.session_id = 3;
    req.volume = key;
    req.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.3 * id, 0.2);
    return req;
  };
  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", cluster.router().port(), &error)) << error;
  ImageU8 image;
  net::FrameMsg meta;
  ASSERT_TRUE(client.render(request_for(1), &image, &meta, &error)) << error;

  // Quiet for several idle timeouts: the shard harvests the upstream.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_GE(cluster.server(0).metrics().idle_timeouts.load(), 1u);
  EXPECT_EQ(cluster.router().metrics().shards[0]->ejections.load(), 0u);

  const net::RenderRequestMsg again = request_for(2);
  ASSERT_TRUE(client.render(again, &image, &meta, &error)) << error;
  client.send_bye(nullptr);
  EXPECT_EQ(cluster.router().metrics().shards[0]->ejections.load(), 0u);

  const DensityVolume density = make_mri_brain(key.nx, key.ny, key.nz);
  const ClassifiedVolume classified =
      classify(density, TransferFunction::mri_preset(), key.classify);
  const EncodedVolume volume =
      EncodedVolume::build(classified, key.classify.alpha_threshold);
  NewParallelRenderer renderer(serve::ServiceOptions{}.parallel);
  ThreadedExecutor exec(2);
  ImageU8 direct;
  ParallelRenderStats stats;
  renderer.render(volume, again.camera, exec, &direct, &stats);
  EXPECT_EQ(pixel_hash(direct), pixel_hash(image));
}

TEST(ClusterRouter, HelloVersionMismatchGetsTypedErrorThenClose) {
  MiniCluster cluster(1);
  ASSERT_TRUE(cluster.healthy(1));

  std::string error;
  net::UniqueFd fd =
      net::tcp_connect("127.0.0.1", cluster.router().port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  net::HelloMsg hello;
  hello.version = 99;
  hello.name = "from-the-future";
  std::vector<uint8_t> payload, wire;
  hello.encode(&payload);
  net::encode_message(net::MsgType::kHello, payload, &wire);
  ASSERT_GT(::send(fd.get(), wire.data(), wire.size(), 0), 0);

  // Typed kError, then EOF — never a HelloAck in a protocol the peer
  // cannot parse.
  std::vector<uint8_t> in(4096);
  size_t have = 0;
  bool got_eof = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!got_eof && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd.get(), in.data() + have, in.size() - have, 0);
    if (n == 0) got_eof = true;
    if (n > 0) have += static_cast<size_t>(n);
  }
  ASSERT_TRUE(got_eof);
  net::WireMessage msg;
  size_t consumed = 0;
  ASSERT_EQ(net::decode_message(in.data(), have, &msg, &consumed),
            net::WireStatus::kOk);
  EXPECT_EQ(msg.type, net::MsgType::kError);
  net::ErrorMsg err;
  ASSERT_TRUE(net::ErrorMsg::decode(msg.payload, &err));
  EXPECT_NE(err.message.find("unsupported protocol version"), std::string::npos)
      << err.message;
  EXPECT_GE(cluster.router().metrics().hello_rejects.load(), 1u);
}

// The acceptance fault-injection scenario: kill the shard a stream is
// pinned to, mid-stream. The client must get a typed kUnavailable error
// (not a hang or a crash), the router must eject the shard and rebuild the
// ring, and the session's next request must re-place on the survivor and
// count as a re-route.
TEST(ClusterRouter, ShardLossMidStreamYieldsTypedErrorAndReroutes) {
  MiniCluster cluster(2);
  ASSERT_TRUE(cluster.healthy(2));
  Router& router = cluster.router();

  const size_t owner = 0;
  const size_t survivor = 1;
  const serve::VolumeKey key = key_owned_by(owner, 2);

  net::NetClientOptions copt;
  copt.recv_timeout_ms = 15'000.0;
  net::NetClient client(copt);
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;

  net::StreamRequestMsg req;
  req.stream_id = 21;
  req.session_id = 9;
  req.volume = key;
  req.frames = 400;  // far more than can finish before the kill
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  // Confirm the stream is flowing, then pull the shard out from under it.
  for (int i = 0; i < 2; ++i) {
    net::NetClient::Event event;
    ASSERT_TRUE(client.next_event(&event, &error)) << error;
    ASSERT_EQ(event.kind, net::NetClient::Event::Kind::kFrame);
  }
  cluster.server(owner).stop();

  // In-flight frames may still drain; the next non-frame event must be the
  // typed loss error, and it must arrive well before the recv timeout.
  bool got_error = false;
  net::ErrorMsg err;
  for (int i = 0; i < 1000 && !got_error; ++i) {
    net::NetClient::Event event;
    ASSERT_TRUE(client.next_event(&event, &error)) << error;
    if (event.kind == net::NetClient::Event::Kind::kError) {
      err = event.error;
      got_error = true;
    }
  }
  ASSERT_TRUE(got_error);
  EXPECT_EQ(err.status,
            static_cast<uint16_t>(serve::ServeStatus::kUnavailable));
  EXPECT_EQ(err.request_id, req.stream_id);
  EXPECT_NE(err.message.find("lost"), std::string::npos) << err.message;

  // Data-path loss ejects immediately; the ring rebuilds around the hole.
  ASSERT_TRUE(wait_state(router, owner, ShardState::kEjected, 5'000.0));
  EXPECT_GE(router.metrics().shards[owner]->ejections.load(), 1u);

  // Same session, same volume: the broken pin re-places on the survivor.
  net::RenderRequestMsg rreq;
  rreq.request_id = 100;
  rreq.session_id = req.session_id;
  rreq.volume = key;
  rreq.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.5, 0.3);
  ImageU8 image;
  net::FrameMsg meta;
  ASSERT_TRUE(client.render(rreq, &image, &meta, &error)) << error;
  EXPECT_GT(image.pixel_count(), 0u);
  EXPECT_GE(router.metrics().reroutes.load(), 1u);
  EXPECT_GE(router.metrics().shards[survivor]->routed_requests.load(), 1u);
  client.send_bye(nullptr);
}

TEST(ClusterRouter, NoHealthyShardGivesTypedUnavailable) {
  // Reserve a port nobody listens on: the router's only shard is dead on
  // arrival, so the ring never has a member.
  std::string error;
  net::UniqueFd placeholder = net::tcp_listen("127.0.0.1", 0, 1, &error);
  ASSERT_TRUE(placeholder.valid()) << error;
  const uint16_t dead_port = net::local_port(placeholder.get());
  placeholder.reset();

  RouterOptions ropt;
  ropt.probe_interval_ms = 50.0;
  Router router({{"shard-0", "127.0.0.1", dead_port, 1}}, ropt);
  ASSERT_TRUE(router.start(&error)) << error;

  // The south face still welcomes clients; placement is what fails, with
  // a typed kUnavailable naming the condition.
  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;
  net::RenderRequestMsg req;
  req.request_id = 1;
  req.session_id = 1;
  req.volume = key_owned_by(0, 1);
  req.camera = Camera::orbit({req.volume.nx, req.volume.ny, req.volume.nz},
                             0.2, 0.3);
  ImageU8 image;
  net::FrameMsg meta;
  EXPECT_FALSE(client.render(req, &image, &meta, &error));
  EXPECT_NE(error.find("no healthy shard"), std::string::npos) << error;
  EXPECT_GE(router.metrics().unavailable_rejections.load(), 1u);
  router.stop();
}

// --- tracing across the router hop ----------------------------------------

// set_drain() signals the poll thread from any thread, while stop() and
// start() retire and re-create the wake pipe. Under TSan this pins the fd
// handoff: the wake must never race the pipe's teardown or write into a
// recycled fd number. The router must come out of the cycles serving.
TEST(ClusterRouter, SetDrainRacesStopStartCycles) {
  MiniCluster cluster(1);
  ASSERT_TRUE(cluster.healthy(1));
  Router& router = cluster.router();

  std::atomic<bool> done{false};
  std::thread toggler([&] {
    bool draining = false;
    while (!done.load()) {
      draining = !draining;
      router.set_drain("shard-0", draining);
    }
  });
  std::string error;
  bool restarted = true;
  for (int cycle = 0; cycle < 25 && restarted; ++cycle) {
    router.stop();
    restarted = router.start(&error);
  }
  done.store(true);
  toggler.join();
  ASSERT_TRUE(restarted) << error;

  ASSERT_TRUE(router.set_drain("shard-0", false));
  ASSERT_TRUE(wait_state(router, 0, ShardState::kHealthy, 10'000.0));
  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;
  net::RenderRequestMsg req;
  req.request_id = 1;
  req.session_id = 1;
  req.volume = key_owned_by(0, 1);
  req.camera = Camera::orbit({req.volume.nx, req.volume.ny, req.volume.nz},
                             0.2, 0.3);
  ImageU8 image;
  net::FrameMsg meta;
  EXPECT_TRUE(client.render(req, &image, &meta, &error)) << error;
  client.send_bye(nullptr);
}

TEST(ClusterRouter, GarbageBytesGetTypedErrorThenClose) {
  MiniCluster cluster(1);
  ASSERT_TRUE(cluster.healthy(1));
  const uint64_t errors_before = cluster.router().metrics().protocol_errors.load();

  std::string error;
  net::UniqueFd fd =
      net::tcp_connect("127.0.0.1", cluster.router().port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd.get(), garbage, sizeof(garbage) - 1, 0), 0);

  // A framed kError, then EOF.
  std::vector<uint8_t> in(4096);
  size_t have = 0;
  bool got_eof = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!got_eof && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd.get(), in.data() + have, in.size() - have, 0);
    if (n == 0) got_eof = true;
    if (n > 0) have += static_cast<size_t>(n);
  }
  ASSERT_TRUE(got_eof);
  net::WireMessage msg;
  size_t consumed = 0;
  ASSERT_EQ(net::decode_message(in.data(), have, &msg, &consumed),
            net::WireStatus::kOk);
  EXPECT_EQ(msg.type, net::MsgType::kError);
  net::ErrorMsg err;
  ASSERT_TRUE(net::ErrorMsg::decode(msg.payload, &err));
  EXPECT_FALSE(err.message.empty());
  EXPECT_EQ(consumed, have);  // nothing after the error
  EXPECT_EQ(cluster.router().metrics().protocol_errors.load(), errors_before + 1);
}

// Reads until the peer closes (or 10 s pass); true on EOF. The bytes read
// land in *in when it is given.
bool read_to_eof(int fd, std::vector<uint8_t>* in = nullptr) {
  std::vector<uint8_t> buf(4096);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n == 0) return true;
    if (n > 0 && in != nullptr) in->insert(in->end(), buf.begin(), buf.begin() + n);
  }
  return false;
}

// A request before the hello gets a typed kError naming the hello, then a
// close — the same gate netserve applies.
TEST(ClusterRouter, RequestBeforeHelloIsRejected) {
  MiniCluster cluster(1);
  ASSERT_TRUE(cluster.healthy(1));
  const uint64_t errors_before = cluster.router().metrics().protocol_errors.load();

  std::string error;
  net::UniqueFd fd = net::tcp_connect("127.0.0.1", cluster.router().port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  net::RenderRequestMsg req;
  req.request_id = 1;
  req.volume = key_owned_by(0, 1);
  req.camera = Camera::orbit({req.volume.nx, req.volume.ny, req.volume.nz}, 0.1, 0.3);
  std::vector<uint8_t> payload, wire;
  req.encode(&payload);
  net::encode_message(net::MsgType::kRenderRequest, payload, &wire);
  ASSERT_GT(::send(fd.get(), wire.data(), wire.size(), 0), 0);

  std::vector<uint8_t> in;
  ASSERT_TRUE(read_to_eof(fd.get(), &in));
  net::WireMessage msg;
  size_t consumed = 0;
  ASSERT_EQ(net::decode_message(in.data(), in.size(), &msg, &consumed),
            net::WireStatus::kOk);
  EXPECT_EQ(msg.type, net::MsgType::kError);
  net::ErrorMsg err;
  ASSERT_TRUE(net::ErrorMsg::decode(msg.payload, &err));
  EXPECT_EQ(err.message, "expected hello first");
  EXPECT_EQ(consumed, in.size());  // nothing after the error
  EXPECT_EQ(cluster.router().metrics().protocol_errors.load(), errors_before + 1);
  EXPECT_EQ(cluster.router().metrics().requests_routed.load(), 0u);
}

// A client that stays quiet past idle_timeout_ms is closed, but one whose
// stream is still open upstream is busy however long it has been since it
// last sent a byte: here a cold volume keeps the stream open, with nothing
// flowing either way, for several timeouts before its first frame.
TEST(ClusterRouter, IdleClientIsHarvestedButAnOpenStreamIsNot) {
  RouterOptions ropt = fast_probes();
  ropt.idle_timeout_ms = 40.0;
  MiniCluster cluster(1, /*traced=*/false, ropt);
  ASSERT_TRUE(cluster.healthy(1));

  net::NetClientOptions copt;
  copt.recv_timeout_ms = 5'000.0;
  net::NetClient quiet(copt), viewer(copt);
  std::string error;
  ASSERT_TRUE(quiet.connect("127.0.0.1", cluster.router().port(), &error)) << error;
  ASSERT_TRUE(viewer.connect("127.0.0.1", cluster.router().port(), &error)) << error;

  net::StreamRequestMsg req;
  req.stream_id = 1;
  req.session_id = 1;
  req.volume.kind = "mri";
  req.volume.nx = req.volume.ny = req.volume.nz = 128;
  req.step_deg = 3.0;
  req.frames = 4;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(viewer.open_stream(req, &error)) << error;
  uint32_t frames = 0;
  bool ended = false;
  net::NetClient::Event event;
  while (!ended) {
    ASSERT_TRUE(viewer.next_event(&event, &error)) << error;
    ASSERT_NE(event.kind, net::NetClient::Event::Kind::kError) << event.error.message;
    if (event.kind == net::NetClient::Event::Kind::kFrame) ++frames;
    ended = event.kind == net::NetClient::Event::Kind::kStreamEnd;
  }
  EXPECT_EQ(frames, req.frames);
  // Only a stream that outlived the timeout several times over shows the
  // exemption at work.
  const double stream_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  EXPECT_GT(stream_ms, 3 * ropt.idle_timeout_ms);

  EXPECT_FALSE(quiet.next_event(&event, &error));
  EXPECT_EQ(error, "connection closed by server");
}

// With max_connections = 2, a third client is closed as soon as it is
// accepted, without a byte, and counted once; the admitted two still work.
TEST(ClusterRouter, ClientsPastTheCapAreClosedAtOnce) {
  RouterOptions ropt = fast_probes();
  ropt.max_connections = 2;
  MiniCluster cluster(1, /*traced=*/false, ropt);
  ASSERT_TRUE(cluster.healthy(1));
  Router& router = cluster.router();

  std::string error;
  net::NetClient a, b;
  ASSERT_TRUE(a.connect("127.0.0.1", router.port(), &error)) << error;
  ASSERT_TRUE(b.connect("127.0.0.1", router.port(), &error)) << error;
  net::UniqueFd third = net::tcp_connect("127.0.0.1", router.port(), &error);
  ASSERT_TRUE(third.valid()) << error;
  std::vector<uint8_t> in;
  EXPECT_TRUE(read_to_eof(third.get(), &in));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(router.metrics().clients_rejected.load(), 1u);
  EXPECT_EQ(router.metrics().clients_accepted.load(), 2u);
  std::string json;
  EXPECT_TRUE(a.fetch_metrics(&json, &error)) << error;
  EXPECT_TRUE(b.fetch_metrics(&json, &error)) << error;
}

// A reader with a 2 KB kernel receive buffer sips the stream, so the
// router's client send queue backs up and drains in many partial sendmsg
// slices. The frames must still arrive complete, in order, and
// bit-identical to a direct render.
TEST(ClusterRouter, SlowReaderGetsCompleteBitIdenticalStream) {
  MiniCluster cluster(1);
  ASSERT_TRUE(cluster.healthy(1));

  net::NetClientOptions copt;
  copt.recv_buffer_bytes = 2 * 1024;
  net::NetClient client(copt);
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", cluster.router().port(), &error))
      << error;

  net::StreamRequestMsg req;
  req.stream_id = 3;
  req.session_id = 8;
  req.volume.kind = "mri";  // default phantom seed, so the direct render matches
  req.volume.nx = req.volume.ny = req.volume.nz = 36;
  req.start_yaw = 0.3;
  req.pitch = 0.25;
  req.step_deg = 4.0;
  req.frames = 8;
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  std::vector<uint64_t> received;
  net::StreamEndMsg end;
  for (;;) {
    net::NetClient::Event event;
    ASSERT_TRUE(client.next_event(&event, &error)) << error;
    ASSERT_NE(event.kind, net::NetClient::Event::Kind::kError);
    if (event.kind == net::NetClient::Event::Kind::kStreamEnd) {
      end = event.end;
      break;
    }
    EXPECT_EQ(event.frame.seq, received.size());
    received.push_back(pixel_hash(event.image));
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  client.send_bye(nullptr);
  ASSERT_EQ(received.size(), req.frames);
  EXPECT_EQ(end.frames_sent, req.frames);
  EXPECT_EQ(end.frames_dropped, 0u);

  const serve::VolumeKey& key = req.volume;
  const DensityVolume density = make_mri_brain(key.nx, key.ny, key.nz);
  const ClassifiedVolume classified =
      classify(density, TransferFunction::mri_preset(), key.classify);
  const EncodedVolume volume =
      EncodedVolume::build(classified, key.classify.alpha_threshold);
  serve::ServiceOptions sopt;
  sopt.worker_threads = 2;
  NewParallelRenderer renderer(sopt.parallel);
  ThreadedExecutor exec(sopt.worker_threads);
  ImageU8 direct;
  ParallelRenderStats stats;
  for (size_t seq = 0; seq < received.size(); ++seq) {
    renderer.render(volume,
                    Camera::orbit({key.nx, key.ny, key.nz},
                                  req.start_yaw + seq * req.step_deg * kDeg,
                                  req.pitch),
                    exec, &direct, &stats);
    EXPECT_EQ(pixel_hash(direct), received[seq]) << "seq " << seq;
  }
  EXPECT_EQ(cluster.router().metrics().protocol_errors.load(), 0u);
}

// Forwarded delta frames cannot be dropped, so a client that stops reading
// is cut once its router send queue passes max_send_buffer_bytes instead of
// growing the router's memory without bound.
TEST(ClusterRouter, StalledReaderIsCutPastTheSendBufferBound) {
  RouterOptions ropt = fast_probes();
  ropt.max_send_buffer_bytes = 64 * 1024;
  MiniCluster cluster(1, /*traced=*/false, ropt);
  ASSERT_TRUE(cluster.healthy(1));
  Router& router = cluster.router();

  net::NetClientOptions copt;
  copt.recv_buffer_bytes = 4 * 1024;
  net::NetClient client(copt);
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;
  net::StreamRequestMsg req;
  req.stream_id = 5;
  req.session_id = 2;
  req.volume = key_owned_by(0, 1);
  req.step_deg = 1.0;
  req.frames = 5000;
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  // Don't read until the router has given up on us.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (router.metrics().protocol_errors.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(router.metrics().protocol_errors.load(), 1u);

  // What the kernel already held still arrives, then the connection ends
  // short of the stream.
  uint32_t frames = 0;
  bool stream_ended = false;
  net::NetClient::Event event;
  while (client.next_event(&event, &error)) {
    if (event.kind == net::NetClient::Event::Kind::kStreamEnd) stream_ended = true;
    if (event.kind == net::NetClient::Event::Kind::kFrame) ++frames;
  }
  EXPECT_FALSE(stream_ended);
  EXPECT_LT(frames, req.frames);
}

// The warm forward path allocates nothing: once a stream's first frames
// have warmed the router's payload pool, every later frame is received
// into, and forwarded from, a recycled pooled buffer. After stop() every
// buffer is home.
TEST(ClusterRouter, WarmForwardingDrawsOnlyRecycledBuffers) {
  MiniCluster cluster(1);
  ASSERT_TRUE(cluster.healthy(1));
  Router& router = cluster.router();

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;
  net::StreamRequestMsg req;
  req.stream_id = 6;
  req.session_id = 3;
  req.volume = key_owned_by(0, 1);
  req.step_deg = 3.0;
  req.frames = 40;
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  const uint32_t kWarmFrames = 8;
  uint32_t frames = 0;
  uint64_t warm_misses = 0;
  for (;;) {
    net::NetClient::Event event;
    ASSERT_TRUE(client.next_event(&event, &error)) << error;
    ASSERT_NE(event.kind, net::NetClient::Event::Kind::kError);
    if (event.kind == net::NetClient::Event::Kind::kStreamEnd) break;
    if (++frames == kWarmFrames) warm_misses = router.pool_stats().misses;
  }
  ASSERT_EQ(frames, req.frames);
  const PoolStats after = router.pool_stats();
  EXPECT_EQ(after.misses, warm_misses);
  EXPECT_GE(after.acquires, static_cast<uint64_t>(req.frames));

  std::string json;
  ASSERT_TRUE(client.fetch_metrics(&json, &error)) << error;
  EXPECT_GE(metric_u64(json, "router_pool.acquires"),
            static_cast<uint64_t>(req.frames));
  client.send_bye(nullptr);

  router.stop();
  const PoolStats stopped = router.pool_stats();
  EXPECT_TRUE(stopped.conserves());
  EXPECT_EQ(stopped.outstanding, 0u);
}

TEST(ClusterTrace, SampledRequestYieldsOneTreeSpanningRouterAndShard) {
  MiniCluster cluster(2, /*traced=*/true);
  ASSERT_TRUE(cluster.healthy(2));

  serve::VolumeKey key;
  key.kind = "mri";
  key.nx = key.ny = key.nz = 36;

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", cluster.router().port(), &error))
      << error;

  const auto request_for = [&key](uint64_t id) {
    net::RenderRequestMsg req;
    req.request_id = id;
    req.session_id = 5;
    req.volume = key;
    req.camera = Camera::orbit({key.nx, key.ny, key.nz}, 0.5, 0.3);
    return req;
  };

  // Untraced first: nothing recorded anywhere on the unsampled path.
  net::RenderRequestMsg plain = request_for(1);
  ImageU8 plain_img;
  net::FrameMsg plain_meta;
  ASSERT_TRUE(client.render(plain, &plain_img, &plain_meta, &error)) << error;
  EXPECT_EQ(cluster.router_recorder().recorded(), 0u);
  EXPECT_EQ(cluster.shard_recorder(0).recorded(), 0u);
  EXPECT_EQ(cluster.shard_recorder(1).recorded(), 0u);

  // Same camera, sampled: pixels must not change, spans must appear.
  uint64_t root = 0;
  net::RenderRequestMsg traced = request_for(2);
  traced.trace = obs::make_sampled_trace(&root);
  ImageU8 traced_img;
  net::FrameMsg traced_meta;
  WallTimer rtt;
  ASSERT_TRUE(client.render(traced, &traced_img, &traced_meta, &error)) << error;
  const double rtt_ms = rtt.millis();
  EXPECT_EQ(pixel_hash(plain_img), pixel_hash(traced_img));
  ASSERT_TRUE(traced_meta.trace.sampled());

  // The shard-side kSend span lands on the shard's poll thread right after
  // the frame drains; the router's proxy span on frame receipt. Wait for
  // both before assembling the tree.
  std::vector<obs::SpanRecord> all;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    all = cluster.router_recorder().snapshot();
    for (size_t i = 0; i < 2; ++i) {
      const std::vector<obs::SpanRecord> s = cluster.shard_recorder(i).snapshot();
      all.insert(all.end(), s.begin(), s.end());
    }
    bool sent = false, proxied = false;
    for (const obs::SpanRecord& s : all) {
      sent |= s.kind == obs::SpanKind::kSend;
      proxied |= s.kind == obs::SpanKind::kRouterProxy;
    }
    if (sent && proxied) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (std::chrono::steady_clock::now() < deadline);
  const std::vector<obs::TraceTree> trees = obs::assemble_traces(std::move(all));
  ASSERT_EQ(trees.size(), 1u);
  const obs::TraceTree& t = trees[0];
  EXPECT_EQ(t.trace_hi, traced.trace.trace_hi);
  EXPECT_EQ(t.trace_lo, traced.trace.trace_lo);

  // Parentage across the hop: the router's proxy span and the shard's
  // request span are siblings under the client root (the router forwards
  // the payload verbatim, it cannot rewrite the parent id inside it).
  const obs::SpanRecord* proxy = nullptr;
  const obs::SpanRecord* request = nullptr;
  for (const obs::SpanRecord& s : t.spans) {
    if (s.kind == obs::SpanKind::kRouterProxy) proxy = &s;
    if (s.kind == obs::SpanKind::kRequest) request = &s;
  }
  ASSERT_NE(proxy, nullptr);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(proxy->parent_id, root);
  EXPECT_EQ(request->parent_id, root);
  for (const obs::SpanRecord& s : t.spans) {
    if (s.kind == obs::SpanKind::kRouterProxy ||
        s.kind == obs::SpanKind::kRequest) {
      continue;
    }
    EXPECT_EQ(s.parent_id, request->span_id) << obs::to_string(s.kind);
  }

  // Phase coverage: the tree must contain the stages named in the issue's
  // acceptance criterion (cache build appears because request 2 re-renders
  // a cached volume — the *first* request built it, untraced).
  EXPECT_TRUE(t.has_kind(obs::SpanKind::kQueueWait));
  EXPECT_TRUE(t.has_kind(obs::SpanKind::kComposite));
  EXPECT_TRUE(t.has_kind(obs::SpanKind::kWarp));
  EXPECT_TRUE(t.has_kind(obs::SpanKind::kFrameEncode));
  EXPECT_TRUE(t.has_kind(obs::SpanKind::kSend));
  // The printed tree (what traceview shows) names every stage.
  const std::string tree = obs::format_trace_tree(t);
  for (const char* stage : {"router-proxy", "request", "queue-wait", "composite",
                            "warp", "frame-encode", "send"}) {
    EXPECT_NE(tree.find(stage), std::string::npos) << stage << "\n" << tree;
  }

  // Duration consistency: stage spans nest inside the request span, the
  // request span inside the proxy span (same steady clock, one process),
  // and everything inside the measured round-trip.
  EXPECT_LE(t.kind_ms(obs::SpanKind::kQueueWait) +
                t.kind_ms(obs::SpanKind::kComposite) +
                t.kind_ms(obs::SpanKind::kWarp),
            request->duration_ms() + 0.5);
  EXPECT_GE(proxy->duration_ms() + 0.5, request->duration_ms());
  EXPECT_LE(proxy->duration_ms(), rtt_ms + 0.5);

  // A traced cache MISS records the build stages too.
  serve::VolumeKey cold = key;
  cold.seed = 77;
  net::RenderRequestMsg miss = request_for(3);
  miss.volume = cold;
  miss.trace = obs::make_sampled_trace();
  ImageU8 miss_img;
  net::FrameMsg miss_meta;
  ASSERT_TRUE(client.render(miss, &miss_img, &miss_meta, &error)) << error;
  bool saw_build = false, saw_classify = false, saw_encode = false;
  for (const obs::SpanRecord& s : miss_meta.spans) {
    saw_build |= s.kind == obs::SpanKind::kCacheBuild;
    saw_classify |= s.kind == obs::SpanKind::kClassify;
    saw_encode |= s.kind == obs::SpanKind::kEncodeVolume;
  }
  EXPECT_TRUE(saw_build);
  EXPECT_TRUE(saw_classify);
  EXPECT_TRUE(saw_encode);
  client.send_bye(nullptr);
}

TEST(ClusterTrace, SelectorFetchesPrometheusAndTraceDumpThroughRouter) {
  MiniCluster cluster(2, /*traced=*/true);
  ASSERT_TRUE(cluster.healthy(2));

  net::NetClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", cluster.router().port(), &error))
      << error;

  net::RenderRequestMsg req;
  req.request_id = 1;
  req.session_id = 2;
  req.volume.kind = "mri";
  req.volume.nx = req.volume.ny = req.volume.nz = 36;
  req.camera = Camera::orbit({36, 36, 36}, 0.2, 0.3);
  req.trace = obs::make_sampled_trace();
  ImageU8 image;
  net::FrameMsg meta;
  ASSERT_TRUE(client.render(req, &image, &meta, &error)) << error;

  // Selector 0 (empty payload) keeps the legacy JSON document.
  std::string json;
  ASSERT_TRUE(client.fetch_metrics(&json, &error)) << error;
  EXPECT_EQ(json.front(), '{');

  // Selector 1: Prometheus exposition with router counters.
  std::string prom;
  ASSERT_TRUE(
      client.fetch_metrics(&prom, &error, net::kMetricsSelectorPrometheus))
      << error;
  EXPECT_NE(prom.find("# TYPE psw_router_requests_routed_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("psw_router_requests_routed_total 1"), std::string::npos);
  EXPECT_NE(prom.find("psw_trace_spans_recorded_total"), std::string::npos);

  // Selector 2: the router's span dump, with the proxy span of our trace.
  std::string dump;
  ASSERT_TRUE(client.fetch_metrics(&dump, &error, net::kMetricsSelectorTrace))
      << error;
  EXPECT_NE(dump.find("\"node\": \"router\""), std::string::npos);
  EXPECT_NE(dump.find(obs::trace_id_hex(req.trace)), std::string::npos);
  EXPECT_NE(dump.find("router-proxy"), std::string::npos);

  // An unknown selector degrades to the JSON document, never an error.
  std::string fallback;
  ASSERT_TRUE(client.fetch_metrics(&fallback, &error, 250)) << error;
  EXPECT_EQ(fallback.front(), '{');
  client.send_bye(nullptr);
}

TEST(ClusterTrace, UnavailableErrorCarriesTheTraceId) {
  // Router with one dead-on-arrival shard: a traced request fails with a
  // typed kUnavailable that must carry the request's trace context so the
  // client-side error can be correlated with server-side dumps.
  std::string error;
  net::UniqueFd placeholder = net::tcp_listen("127.0.0.1", 0, 1, &error);
  ASSERT_TRUE(placeholder.valid()) << error;
  const uint16_t dead_port = net::local_port(placeholder.get());
  placeholder.reset();

  RouterOptions ropt;
  ropt.probe_interval_ms = 50.0;
  Router router({{"shard-0", "127.0.0.1", dead_port, 1}}, ropt);
  ASSERT_TRUE(router.start(&error)) << error;

  // Drive a stream request so next_event() surfaces the raw ErrorMsg (with
  // its trace block) instead of render() flattening it into a string.
  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port(), &error)) << error;
  net::StreamRequestMsg req;
  req.stream_id = 4;
  req.session_id = 1;
  req.volume = key_owned_by(0, 1);
  req.frames = 8;
  req.trace = obs::make_sampled_trace();
  ASSERT_TRUE(client.open_stream(req, &error)) << error;

  net::NetClient::Event event;
  ASSERT_TRUE(client.next_event(&event, &error)) << error;
  ASSERT_EQ(event.kind, net::NetClient::Event::Kind::kError);
  EXPECT_EQ(event.error.status,
            static_cast<uint16_t>(serve::ServeStatus::kUnavailable));
  ASSERT_TRUE(event.error.trace.sampled());
  EXPECT_EQ(event.error.trace.trace_hi, req.trace.trace_hi);
  EXPECT_EQ(event.error.trace.trace_lo, req.trace.trace_lo);
  router.stop();
}

// --- one declaration per metric ---------------------------------------------

// Shard ids and documents reach the aggregated document intact: a shard
// named "null" without a snapshot yet (as while it connects) and one named
// "@SHARD@" with a real one.
TEST(ClusterMetrics, AggregateKeepsEveryShardIdAndDocument) {
  RouterMetrics m(2);
  std::vector<ShardSnapshot> shards(2);
  shards[0].id = "null";
  shards[1].id = "@SHARD@";
  shards[1].state = ShardState::kHealthy;
  shards[1].in_ring = true;
  shards[1].metrics_json = "{\"service\": {\"completion\": {\"completed\": 5}}}";
  const std::string json = aggregate_metrics_json(m, shards, PoolStats{});
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(json, &doc, &error)) << error << "\n" << json;
  const JsonValue* list = doc.find("shards");
  ASSERT_TRUE(list != nullptr && list->is_array());
  ASSERT_EQ(list->items.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_NE(list->items[i].find("id"), nullptr);
    ASSERT_NE(list->items[i].find("metrics"), nullptr);
    EXPECT_EQ(list->items[i].find("id")->as_string(), shards[i].id);
  }
  EXPECT_TRUE(list->items[0].find("metrics")->is_null());
  const JsonValue* completed = list->items[1].find_path("metrics.service.completion.completed");
  ASSERT_NE(completed, nullptr) << json;
  EXPECT_EQ(completed->as_u64(), 5u);
  EXPECT_EQ(metric_u64(json, "cluster.frames_completed"), 5u);
}

// Leaf paths of a metrics document: object members join the path with '.',
// list items add nothing (the router's shard list), and a latency summary
// ({count, mean_ms, p50_ms, ...}) is one leaf unless `expand` asks for its
// members. The router's embedded shard documents are skipped: each shard
// exports those itself.
void collect_leaves(const JsonValue& v, const std::string& path, bool expand,
                    std::set<std::string>* out) {
  if (v.is_object() && (expand || v.find("p95_ms") == nullptr)) {
    for (const auto& [key, member] : v.members) {
      if (path == "shards" && key == "metrics") continue;
      collect_leaves(member, path.empty() ? key : path + "." + key, expand, out);
    }
  } else if (v.is_array()) {
    for (const JsonValue& item : v.items) collect_leaves(item, path, expand, out);
  } else {
    out->insert(path);
  }
}

std::set<std::string> leaves(const std::string& json, bool expand) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(json_parse(json, &doc, &error)) << error;
  std::set<std::string> out;
  collect_leaves(doc, "", expand, &out);
  return out;
}

// The Prometheus text declares exactly the families the JSON leaves map to
// by the naming rule: "psw_" + the path with '_' for '.', plus "_total" on
// counters. The shard list's "id" is the `shard` label, not a series.
void expect_same_metric_set(const std::string& json, const std::string& prom) {
  std::map<std::string, std::string> declared;  // family -> TYPE
  std::istringstream lines(prom);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream words(line);
    std::string hash, tag, name, type;
    if (words >> hash >> tag >> name >> type && hash == "#" && tag == "TYPE") {
      declared[name] = type;
    }
  }
  std::set<std::string> mapped;
  for (const std::string& path : leaves(json, /*expand=*/false)) {
    if (path == "shards.id") continue;
    std::string name = "psw_" + path;
    std::replace(name.begin(), name.end(), '.', '_');
    auto it = declared.find(name + "_total");
    if (it == declared.end()) it = declared.find(name);
    if (it == declared.end()) {
      ADD_FAILURE() << path << " has no Prometheus series " << name << "[_total]";
      continue;
    }
    EXPECT_EQ(it->second == "counter", it->first != name) << it->first << " is a " << it->second;
    mapped.insert(it->first);
  }
  for (const auto& [name, type] : declared) {
    EXPECT_EQ(mapped.count(name), 1u) << name << " (" << type << ") has no JSON leaf";
  }
}

// Every leaf the documents carried before the metrics were declared once,
// by object. Only the frame copy counter (net.frames.copy_bytes and
// net.frames.bytes_copied_per_frame, never written) has gone since.
using LeafList = std::vector<std::pair<std::string, std::string>>;
const char* const kPoolLeaves =
    "acquires hits misses releases discards outstanding retained retained_bytes hit_rate";
const char* const kSummaryLeaves = "count mean_ms p50_ms p95_ms p99_ms max_ms";
const LeafList kServerLeaves = {
    {"service.admission",
     "submitted accepted rejected_queue_full rejected_deadline rejected_shutdown "
     "async_submitted"},
    {"service.completion", "completed shed_deadline shed_shutdown failed"},
    {"service.scheduler",
     "batches batched_frames profiled_frames sessions_created sessions_evicted queue_depth "
     "queue_depth_max"},
    {"service.latency_ms.queue_wait", kSummaryLeaves},
    {"service.latency_ms.cache_miss_build", kSummaryLeaves},
    {"service.latency_ms.composite", kSummaryLeaves},
    {"service.latency_ms.warp", kSummaryLeaves},
    {"service.latency_ms.total", kSummaryLeaves},
    {"service.volume_cache", "hits misses evictions resident_bytes budget_bytes hit_rate"},
    {"service.frame_pool", kPoolLeaves},
    {"service.prepare_pool", kPoolLeaves},
    {"net.connections", "accepted closed rejected idle_timeouts protocol_errors"},
    {"net.traffic",
     "requests_received streams_opened streams_completed errors_sent bytes_in bytes_out"},
    {"net.frames", "sent dropped orphaned_completions raw_bytes wire_bytes wire_ratio"},
    {"net_pool", kPoolLeaves}};
const LeafList kRouterLeaves = {
    {"router",
     "clients_accepted clients_rejected hello_rejects protocol_errors requests_routed "
     "streams_routed frames_forwarded metrics_served reroutes unavailable_rejections"},
    {"router.frame_latency_ms", kSummaryLeaves},
    {"router_pool", kPoolLeaves},
    {"cluster", "shards shards_healthy shards_in_ring frames_completed cache_hits cache_misses"},
    {"shards",
     "id state weight in_ring routed_requests routed_streams forwarded_frames forwarded_errors "
     "probes_ok probe_failures ejections rejoins inflight_requests active_streams"},
    {"shards.frame_latency_ms", kSummaryLeaves}};

void expect_leaves_kept(const std::string& json, const LeafList& objects) {
  const std::set<std::string> have = leaves(json, /*expand=*/true);
  for (const auto& [object, keys] : objects) {
    std::istringstream words(keys);
    for (std::string key; words >> key;) {
      EXPECT_EQ(have.count(object + "." + key), 1u) << object << "." << key;
    }
  }
}

// One declaration per metric: a live shard and the router, both with span
// recorders, expose the same metric set as JSON and as Prometheus text.
TEST(ClusterMetrics, JsonAndPrometheusExposeTheSameMetrics) {
  MiniCluster cluster(2, /*traced=*/true);
  ASSERT_TRUE(cluster.healthy(2));
  net::NetServer& server = cluster.server(0);
  Router& router = cluster.router();

  const std::string server_json = server.metrics_json();
  expect_same_metric_set(server_json, server.prometheus_text());
  expect_leaves_kept(server_json, kServerLeaves);
  EXPECT_EQ(leaves(server_json, false).count("trace.spans_recorded"), 1u);

  const std::string router_json = router.metrics_json();
  expect_same_metric_set(router_json, router.prometheus_text());
  expect_leaves_kept(router_json, kRouterLeaves);
  EXPECT_EQ(leaves(router_json, false).count("trace.spans_recorded"), 1u);
}

}  // namespace
}  // namespace psw::cluster
