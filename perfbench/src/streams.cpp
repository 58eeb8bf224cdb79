// The networked workloads. Both drive real sockets on loopback through the
// public client (net::NetClient) and read the stats the program already
// returns: FrameMsg render_ms/total_ms, the service metrics document,
// RouterMetrics.
//
// viewers-routed: a cluster::Router in front of in-process netserve shards
//   (RenderService with 1 render worker each). Every viewer streams full
//   orbits of its own warm 128^3 volume and reopens its stream after each.
// churn-mixed: one netserve reached directly. Viewers stream warm orbits
//   (the reads) while churners open one-shot renders of volumes that always
//   miss the cache, build, evict and ship a keyframe (the writes).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "cluster/hash_ring.hpp"
#include "cluster/router.hpp"
#include "common.hpp"
#include "core/renderer.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/json_parse.hpp"

namespace perfbench {
namespace {

using psw::serve::VolumeKey;

constexpr int kSize = 128;
constexpr uint32_t kOrbit = 180;  // frames per stream: 360 degrees at 2 degrees
constexpr double kStepDeg = 2.0;
constexpr double kPitch = 0.35;
constexpr double kDeg = 3.14159265358979323846 / 180.0;
constexpr int kSetupReps = 5;
constexpr uint32_t kVerifyEvery = 15;  // serial re-render of every 15th view
constexpr size_t kChurnVerify = 24;    // serial re-renders of churn frames
constexpr int kChurnSet = 3;           // volumes each churner cycles through
constexpr int kHopOpens = 10;          // per viewer and path, for cluster.hop_ms

VolumeKey make_key(bool ct, uint64_t seed) {
  VolumeKey key;
  key.kind = ct ? "ct" : "mri";
  key.tf_preset = ct ? 1 : 0;
  key.nx = key.ny = key.nz = kSize;
  key.seed = seed;
  return key;
}

psw::Camera view(const VolumeKey& key, double start_yaw, uint32_t seq) {
  // The server's stream camera, expression for expression.
  return psw::Camera::orbit({key.nx, key.ny, key.nz},
                            start_yaw + static_cast<double>(seq) * kStepDeg * kDeg, kPitch);
}

// Set-up / window hand-off between the main thread and the client threads.
// Viewers report their first frame (the end of the set-up) and the end of
// their warm-up orbit, then block until the main thread either opens the
// timed window or dismisses them (a discarded set-up repetition).
class Phases {
 public:
  void first_frame() {
    psw::MutexLock lock(mu_);
    ++firsts_;
    cv_.notify_all();
  }
  void wait_first_frames(int n) {
    psw::MutexLock lock(mu_);
    while (firsts_ < n) cv_.wait(mu_);
  }
  void arrive() {
    psw::MutexLock lock(mu_);
    ++arrived_;
    cv_.notify_all();
  }
  void wait_arrivals(int n) {
    psw::MutexLock lock(mu_);
    while (arrived_ < n) cv_.wait(mu_);
  }
  // Returns true when the window opened, false when dismissed.
  bool wait_decision() {
    psw::MutexLock lock(mu_);
    while (decision_ == 0) cv_.wait(mu_);
    return decision_ == 1;
  }
  void decide(bool run, double seconds) {
    psw::MutexLock lock(mu_);
    start_ = Clock::now();
    end_ = start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    decision_ = run ? 1 : 2;
    cv_.notify_all();
  }
  // Valid once decided (read by client threads after wait_decision()).
  Clock::time_point start() {
    psw::MutexLock lock(mu_);
    return start_;
  }
  Clock::time_point end() {
    psw::MutexLock lock(mu_);
    return end_;
  }

 private:
  psw::Mutex mu_;
  psw::CondVar cv_;
  int firsts_ PSW_GUARDED_BY(mu_) = 0;
  int arrived_ PSW_GUARDED_BY(mu_) = 0;
  int decision_ PSW_GUARDED_BY(mu_) = 0;
  Clock::time_point start_ PSW_GUARDED_BY(mu_), end_ PSW_GUARDED_BY(mu_);
};

// What one client thread saw: window figures, and whole-run counts for the
// checks.
struct ClientTally {
  // Frames delivered in the windows, and those that failed.
  uint64_t frames = 0;
  uint64_t failed = 0;
  uint64_t wire_bytes = 0;
  uint64_t raw_bytes = 0;
  Samples frame_gap_ms, first_ms;
  // Server-side split of the same frames (per-layer report).
  Samples render_ms, wait_ms, delivery_ms;
  uint64_t dropped = 0;
  // Whole run.
  uint64_t frames_total = 0;
  uint64_t streams_total = 0;
  uint64_t opens_total = 0;  // churn one-shot opens
  uint64_t mismatches = 0;
  std::string error;

  void add(const ClientTally& o) {
    frames += o.frames;
    failed += o.failed;
    wire_bytes += o.wire_bytes;
    raw_bytes += o.raw_bytes;
    frame_gap_ms.append(o.frame_gap_ms);
    first_ms.append(o.first_ms);
    render_ms.append(o.render_ms);
    wait_ms.append(o.wait_ms);
    delivery_ms.append(o.delivery_ms);
    dropped += o.dropped;
    frames_total += o.frames_total;
    streams_total += o.streams_total;
    opens_total += o.opens_total;
    mismatches += o.mismatches;
    if (error.empty()) error = o.error;
  }
};

// A timed window; closed (never containing anything) during a warm-up.
struct Window {
  bool open = false;
  Clock::time_point start, end;
  bool contains(Clock::time_point t) const { return open && t >= start && t < end; }
};

// One frame delivered to a client, booked into its tally.
void book_frame(ClientTally* out, const Window& w, Clock::time_point t,
                const psw::net::FrameMsg& meta, const psw::ImageU8& image, uint64_t bytes,
                double latency_ms, bool first) {
  if (!w.contains(t)) return;
  ++out->frames;
  out->failed += meta.dropped_before;
  out->wire_bytes += bytes;
  out->raw_bytes += image.pixel_count() * sizeof(psw::Pixel8);
  (first ? out->first_ms : out->frame_gap_ms).add(latency_ms);
  out->render_ms.add(meta.render_ms);
  out->wait_ms.add(meta.total_ms - meta.render_ms);
  if (first) out->delivery_ms.add(latency_ms - meta.total_ms);
  out->dropped += meta.dropped_before;
}

struct ViewerSpec {
  uint16_t port = 0;
  uint64_t session = 0;
  VolumeKey key;
  double start_yaw = 0.0;
  bool keep_images = false;  // keep the warm-up orbit for codec timing
};

class Viewer {
 public:
  Viewer(ViewerSpec spec, Phases* phases) : spec_(std::move(spec)), phases_(phases) {}

  // Thread body: connect, stream one warm-up orbit (reporting its first
  // frame), report in, then stream orbits through the window (finishing the
  // one in progress at its end).
  void run() {
    std::string err;
    bool ok = client_.connect("127.0.0.1", spec_.port, &err);
    if (!ok) {
      tally.error = "viewer connect: " + err;
      ++tally.failed;
    }
    ok = ok && stream_orbit(Window{});
    if (!first_reported_) phases_->first_frame();  // failed before a frame
    phases_->arrive();
    const bool run_window = phases_->wait_decision();
    if (ok && run_window) {
      Window w{true, phases_->start(), phases_->end()};
      while (Clock::now() < w.end && stream_orbit(w)) {
      }
    }
    if (client_.connected()) client_.send_bye(nullptr);
  }

  ClientTally tally;
  std::vector<uint64_t> ref_hash = std::vector<uint64_t>(kOrbit, 0);  // warm-up orbit
  std::vector<psw::ImageU8> warm_images;

 private:
  // Streams one full orbit; false (with tally.error) on any protocol or
  // accounting failure. Frames are checked against the warm-up orbit.
  bool stream_orbit(const Window& w) {
    const bool warm_up = !w.open;
    psw::net::StreamRequestMsg req;
    req.stream_id = ++next_stream_;
    req.session_id = spec_.session;
    req.volume = spec_.key;
    req.start_yaw = spec_.start_yaw;
    req.pitch = kPitch;
    req.step_deg = kStepDeg;
    req.frames = kOrbit;
    std::string err;
    const Clock::time_point opened = Clock::now();
    if (!client_.open_stream(req, &err)) return fail("open_stream: " + err);
    ++tally.streams_total;
    uint32_t received = 0, dropped_in_headers = 0;
    Clock::time_point prev = opened;
    for (;;) {
      const uint64_t bytes0 = client_.bytes_received();
      psw::net::NetClient::Event ev;
      if (!client_.next_event(&ev, &err)) return fail("next_event: " + err);
      const Clock::time_point t = Clock::now();
      using Kind = psw::net::NetClient::Event::Kind;
      if (ev.kind == Kind::kError) {
        ++tally.failed;
        return fail("server error: " + ev.error.message);
      }
      if (ev.kind == Kind::kStreamEnd) {
        // Reconcile: every requested frame was either delivered or reported
        // dropped, and the server's count matches what arrived.
        if (ev.end.stream_id != req.stream_id || ev.end.frames_sent != received ||
            ev.end.frames_sent + ev.end.frames_dropped != kOrbit ||
            ev.end.frames_dropped < dropped_in_headers) {
          return fail("stream accounting does not reconcile");
        }
        if (w.contains(t)) tally.failed += ev.end.frames_dropped - dropped_in_headers;
        return true;
      }
      const psw::net::FrameMsg& meta = ev.frame;
      if (meta.stream_id != req.stream_id || meta.seq >= kOrbit) {
        return fail("frame for an unknown stream or sequence number");
      }
      const uint64_t h = hash_image(ev.image);
      if (warm_up) {
        ref_hash[meta.seq] = h;
        if (spec_.keep_images) warm_images.push_back(ev.image);
      } else if (h != ref_hash[meta.seq]) {
        ++tally.mismatches;
      }
      book_frame(&tally, w, t, meta, ev.image, client_.bytes_received() - bytes0,
                 ms_between(received == 0 ? opened : prev, t), received == 0);
      if (warm_up && received == 0) {
        first_reported_ = true;
        phases_->first_frame();
      }
      prev = t;
      ++received;
      ++tally.frames_total;
      dropped_in_headers += meta.dropped_before;
    }
  }

  bool fail(const std::string& message) {
    if (tally.error.empty()) tally.error = message;
    return false;
  }

  ViewerSpec spec_;
  Phases* phases_;
  psw::net::NetClient client_;
  uint64_t next_stream_ = 0;
  bool first_reported_ = false;
};

// One viewer per spec, each on its own thread. start() returns once every
// viewer has its first frame (the end of a set-up), wait_warm() once every
// viewer has finished its warm-up orbit; phases then opens the window or
// dismisses them.
struct StreamRig {
  std::vector<std::unique_ptr<Viewer>> viewers;
  std::vector<std::thread> threads;
  Phases phases;

  StreamRig() = default;
  StreamRig(const StreamRig&) = delete;
  StreamRig& operator=(const StreamRig&) = delete;
  ~StreamRig() {
    if (threads.empty()) return;
    phases.decide(false, 0.0);  // no-op for viewers already released
    join();
  }

  void start(const std::vector<ViewerSpec>& specs) {
    for (const ViewerSpec& s : specs) viewers.push_back(std::make_unique<Viewer>(s, &phases));
    for (auto& v : viewers) threads.emplace_back([p = v.get()] { p->run(); });
    phases.wait_first_frames(static_cast<int>(viewers.size()));
  }
  void wait_warm() { phases.wait_arrivals(static_cast<int>(viewers.size())); }
  void join() {
    for (auto& t : threads) t.join();
    threads.clear();
  }
  ClientTally tally() const {
    ClientTally all;
    for (const auto& v : viewers) all.add(v->tally);
    return all;
  }
};

// Service metrics document of one netserve, fetched over the wire.
struct CacheReading {
  uint64_t hits = 0, misses = 0, evictions = 0;
};
bool fetch_cache(uint16_t port, CacheReading* out, std::string* err) {
  psw::net::NetClient client;
  std::string json;
  if (!client.connect("127.0.0.1", port, err) || !client.fetch_metrics(&json, err)) return false;
  client.send_bye(nullptr);
  psw::JsonValue doc;
  if (!psw::json_parse(json, &doc, err)) return false;
  const psw::JsonValue* service = doc.find("service");
  const psw::JsonValue* cache = service ? service->find("volume_cache") : nullptr;
  if (!cache) {
    *err = "metrics document has no service.volume_cache";
    return false;
  }
  out->hits = cache->find("hits") ? cache->find("hits")->as_u64() : 0;
  out->misses = cache->find("misses") ? cache->find("misses")->as_u64() : 0;
  out->evictions = cache->find("evictions") ? cache->find("evictions")->as_u64() : 0;
  return true;
}

// Every set-up's warm-up orbits must equal the first set-up's, view for
// view (viewer-major, kOrbit hashes per viewer).
void check_warm_orbits(const StreamRig& rig, std::vector<uint64_t>* ref, Report* report) {
  std::vector<uint64_t> now;
  for (const auto& v : rig.viewers) now.insert(now.end(), v->ref_hash.begin(), v->ref_hash.end());
  if (ref->empty()) {
    *ref = std::move(now);
  } else if (*ref != now) {
    report->error("a set-up's warm-up orbit differs from the first set-up's");
  }
}

// Pins a sample of the warm-up orbits to SerialRenderer on serially
// prepared reference volumes.
void verify_viewers(const std::vector<uint64_t>& ref_hash, const std::vector<ViewerSpec>& specs,
                    const VolumeInputs& inputs, Report* report) {
  psw::SerialRenderer serial;
  psw::ImageU8 image;
  for (size_t v = 0; v < specs.size(); ++v) {
    const psw::EncodedVolume ref = inputs.prepare_reference(specs[v].key);
    for (uint32_t seq = 0; seq < kOrbit; seq += kVerifyEvery) {
      serial.render(ref, view(specs[v].key, specs[v].start_yaw, seq), &image);
      if (hash_image(image) != ref_hash[v * kOrbit + seq]) {
        report->error("viewer " + std::to_string(v) + " frame " + std::to_string(seq) +
                      " differs from SerialRenderer");
      }
    }
  }
}

// Figures accumulated over the set-up repetitions; each set-up is followed
// by its own window of seconds / kSetupReps, so one run samples several
// independent starts of the servers and threads.
struct Totals {
  ClientTally viewers;
  ClientTally side;  // churners (churn-mixed)
  Samples setup_s, setup_wall_s;  // per set-up: process CPU s, wall s
  double cpu_s = 0.0;
  double window_s = 0.0;
  uint64_t allocs = 0;  // counted by the traced binary only
  // Peak RSS through the first set-up and window: later set-ups restart the
  // servers in the same process, on memory the allocator kept.
  double first_peak_rss_mb = 0.0;
};

// Opens a window of `seconds` on a warmed rig, runs `beside` (the churners)
// on its own thread for the same window, and waits for everyone to finish.
void run_window(StreamRig& rig, double seconds,
                const std::function<ClientTally(const Window&)>& beside, Totals* totals) {
  const double cpu0 = process_cpu_seconds();
  const uint64_t allocs0 = alloc_count();
  rig.phases.decide(true, seconds);
  const Window w{true, rig.phases.start(), rig.phases.end()};
  ClientTally side;
  std::thread side_thread;
  if (beside) side_thread = std::thread([&] { side = beside(w); });
  std::this_thread::sleep_until(w.end);
  totals->cpu_s += process_cpu_seconds() - cpu0;
  totals->allocs += alloc_count() - allocs0;
  if (side_thread.joinable()) side_thread.join();
  rig.join();
  totals->window_s += std::chrono::duration<double>(w.end - w.start).count();
  totals->viewers.add(rig.tally());
  totals->side.add(side);
  if (totals->first_peak_rss_mb == 0.0) totals->first_peak_rss_mb = peak_rss_mb();
}

// End-to-end and per-layer figures shared by both networked workloads.
void report_streams(const RunConfig& cfg, const Totals& totals, const Samples& first_ms,
                    Report* report) {
  ClientTally t = totals.viewers;
  t.add(totals.side);
  if (!t.error.empty()) report->error(t.error);
  if (t.mismatches > 0) {
    report->error(std::to_string(t.mismatches) + " frames differ from the same view's earlier frame");
  }
  const double frames = static_cast<double>(t.frames);
  report->attempted = t.frames + t.failed;
  report->failed = t.failed;
  std::printf("# fps: %llu frames in %.3f s\n", static_cast<unsigned long long>(t.frames),
              totals.window_s);
  report->layer("fps", frames / totals.window_s, "1/s");
  report->percentiles("frame", totals.viewers.frame_gap_ms);
  std::printf("# first_frame: n=%zu\n", first_ms.size());
  report->layer("first_frame_p50_ms", first_ms.median(), "ms");
  report->e2e("cpu_ms_per_frame", totals.cpu_s * 1e3 / frames, "ms");
  report->e2e("wire_bytes_per_frame", static_cast<double>(t.wire_bytes) / frames, "B");
  report->e2e("setup_s", totals.setup_s.median(), "s");
  report->layer("setup_wall_s", totals.setup_wall_s.median(), "s");
  report->e2e("peak_rss_mb", totals.first_peak_rss_mb, "MB");
  if (!cfg.traced) return;
  report->layer("serve.render_ms", t.render_ms.median(), "ms");
  report->layer("serve.wait_ms", t.wait_ms.median(), "ms");
  report->layer("net.delivery_ms", t.delivery_ms.median(), "ms");
  report->layer("net.wire_ratio",
                static_cast<double>(t.wire_bytes) / static_cast<double>(t.raw_bytes), "ratio");
  report->layer("net.frames_dropped", static_cast<double>(t.dropped), "count");
  report->layer("net.allocs_per_frame", static_cast<double>(totals.allocs) / frames, "count");
}

// Encode and decode cost of the frame codec over one delivered orbit.
void report_codec(const std::vector<psw::ImageU8>& orbit, Report* report) {
  Samples encode_us, decode_us;
  psw::net::FrameEncoder encoder;
  std::vector<std::vector<uint8_t>> blobs(orbit.size());
  for (size_t i = 0; i < orbit.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    encoder.encode_append(orbit[i], &blobs[i]);
    encode_us.add(ms_since(t0) * 1e3);
  }
  psw::net::FrameDecoder decoder;
  psw::ImageU8 image;
  for (size_t i = 0; i < blobs.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    const psw::net::CodecStatus status = decoder.decode(blobs[i], &image);
    decode_us.add(ms_since(t0) * 1e3);
    if (status != psw::net::CodecStatus::kOk || hash_image(image) != hash_image(orbit[i])) {
      report->error("frame codec round trip differs at frame " + std::to_string(i));
    }
  }
  report->layer("net.encode_us", encode_us.median(), "us");
  report->layer("net.decode_us", decode_us.median(), "us");
}

// Build-side figures from the benchmark's cache builder.
void report_builds(const std::vector<VolumeInputs::BuildRecord>& builds, Report* report) {
  Samples build_ms, classify_ms, encode_ms;
  for (const auto& b : builds) {
    build_ms.add(b.build_ms);
    classify_ms.add(b.timing.classify_ms);
    encode_ms.add(b.timing.encode_ms);
  }
  report->layer("serve.cache_build_ms", build_ms.median(), "ms");
  report->layer("parallel.classify_ms", classify_ms.median(), "ms");
  report->layer("parallel.encode_ms", encode_ms.median(), "ms");
}

// Time to the first frame of a one-frame stream opened on `port`.
double first_frame_ms(psw::net::NetClient& client, const VolumeKey& key, uint64_t session,
                      uint64_t stream, double yaw, std::string* err) {
  psw::net::StreamRequestMsg req;
  req.stream_id = stream;
  req.session_id = session;
  req.volume = key;
  req.start_yaw = yaw;
  req.frames = 1;
  const Clock::time_point t0 = Clock::now();
  if (!client.open_stream(req, err)) return -1.0;
  double first = -1.0;
  for (;;) {
    psw::net::NetClient::Event ev;
    if (!client.next_event(&ev, err)) return -1.0;
    if (ev.kind == psw::net::NetClient::Event::Kind::kFrame && first < 0) first = ms_since(t0);
    if (ev.kind == psw::net::NetClient::Event::Kind::kError) {
      *err = ev.error.message;
      return -1.0;
    }
    if (ev.kind == psw::net::NetClient::Event::Kind::kStreamEnd) return first;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// viewers-routed
// ---------------------------------------------------------------------------

void run_viewers_routed(const RunConfig& cfg, Report* report) {
  // Two viewers per shard: viewers = nproc rounded down to even.
  const int viewers = std::min(8, cfg.nproc - cfg.nproc % 2);
  const int shards = viewers / 2;
  LoadBudget budget;
  budget.counts = {{"shards", shards}, {"render_workers_per_shard", 1},
                   {"router_threads", 1}, {"viewers", viewers}};
  budget.client_threads = viewers;
  budget.client_connections = viewers;
  if (viewers < 2 || !check_budget(budget, cfg.nproc)) {
    report->error("viewers-routed needs nproc >= 2 and a budget within nproc");
    return;
  }

  // Inputs: one volume per viewer, alternating MRI and CT, each seeded so
  // the router's consistent-hash ring places it on shard viewer/2 (the same
  // ring the router builds from the same shard ids).
  std::vector<psw::cluster::RingNode> nodes;
  for (int s = 0; s < shards; ++s) nodes.push_back({"shard-" + std::to_string(s), 1});
  psw::cluster::HashRing ring(psw::cluster::RouterOptions{}.vnodes);
  ring.rebuild(nodes);
  std::vector<ViewerSpec> specs(static_cast<size_t>(viewers));
  std::vector<VolumeKey> keys;
  for (int v = 0; v < viewers; ++v) {
    ViewerSpec& s = specs[static_cast<size_t>(v)];
    for (uint64_t attempt = 0;; ++attempt) {
      s.key = make_key(v % 2 == 1, mix_seed(cfg.seed, 1000 + 1000 * static_cast<uint64_t>(v) + attempt));
      if (ring.owner(psw::cluster::HashRing::hash_key(s.key.canonical())) ==
          static_cast<size_t>(v / 2)) {
        break;
      }
    }
    s.session = static_cast<uint64_t>(v) + 1;
    s.start_yaw = static_cast<double>(mix_seed(cfg.seed, 50 + static_cast<uint64_t>(v)) % 360) * kDeg;
    s.keep_images = cfg.traced && v == 0;
    keys.push_back(s.key);
  }
  VolumeInputs inputs;
  inputs.generate(keys, cfg.nproc);

  struct Cluster {
    std::vector<std::unique_ptr<psw::serve::RenderService>> services;
    std::vector<std::unique_ptr<psw::net::NetServer>> servers;
    std::unique_ptr<psw::cluster::Router> router;
    // Front to back: the router, then each server before its service.
    void reset() {
      router.reset();
      servers.clear();
      services.clear();
    }
  };
  auto start_cluster = [&](Cluster* c) {
    std::vector<psw::cluster::ShardSpec> shard_specs;
    for (int s = 0; s < shards; ++s) {
      psw::serve::ServiceOptions sopt;
      sopt.worker_threads = 1;
      c->services.push_back(std::make_unique<psw::serve::RenderService>(sopt, inputs.builder(1)));
      c->servers.push_back(std::make_unique<psw::net::NetServer>(*c->services.back()));
      std::string err;
      if (!c->servers.back()->start(&err)) throw std::runtime_error("shard start: " + err);
      shard_specs.push_back({"shard-" + std::to_string(s), "127.0.0.1", c->servers.back()->port(), 1});
    }
    c->router = std::make_unique<psw::cluster::Router>(shard_specs);
    std::string err;
    if (!c->router->start(&err)) throw std::runtime_error("router start: " + err);
    if (!c->router->wait_healthy(static_cast<size_t>(shards), 10'000.0)) {
      throw std::runtime_error("shards did not become healthy");
    }
  };

  // Set-up (shards, router, connect, and each viewer's first frame, which
  // builds its volume on a cache miss), the rest of the warm-up orbit, then
  // a window; repeated.
  Totals totals;
  Cluster cluster;
  std::unique_ptr<StreamRig> rig;
  std::vector<uint64_t> ref_hash;  // per viewer and view, from the first set-up
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    cluster.reset();
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    start_cluster(&cluster);
    for (auto& s : specs) s.port = cluster.router->port();
    rig = std::make_unique<StreamRig>();
    rig->start(specs);
    totals.setup_s.add(process_cpu_seconds() - cpu0);
    totals.setup_wall_s.add(ms_since(t0) / 1e3);
    rig->wait_warm();
    run_window(*rig, cfg.seconds / kSetupReps, {}, &totals);
    check_warm_orbits(*rig, &ref_hash, report);

    // Routing accounting: every frame the router forwarded reached a
    // viewer, and each shard received exactly its two viewers' streams.
    const psw::cluster::RouterMetrics& rm = cluster.router->metrics();
    const ClientTally t = rig->tally();
    if (rm.frames_forwarded.load() != t.frames_total) {
      report->error("router forwarded " + std::to_string(rm.frames_forwarded.load()) +
                    " frames, viewers received " + std::to_string(t.frames_total));
    }
    for (int s = 0; s < shards; ++s) {
      uint64_t expected = 0;
      for (int v = 2 * s; v < 2 * s + 2; ++v) {
        expected += rig->viewers[static_cast<size_t>(v)]->tally.streams_total;
      }
      if (rm.shards[static_cast<size_t>(s)]->routed_streams.load() != expected) {
        report->error("shard-" + std::to_string(s) + " did not receive exactly its two viewers' streams");
      }
    }
  }
  report_streams(cfg, totals, totals.viewers.first_ms, report);

  if (cfg.traced) {
    // Streams per shard from the router's own counters.
    const psw::cluster::RouterMetrics& rm = cluster.router->metrics();
    uint64_t most = 0, streams = 0;
    for (int s = 0; s < shards; ++s) {
      const uint64_t n = rm.shards[static_cast<size_t>(s)]->routed_streams.load();
      most = std::max(most, n);
      streams += n;
    }
    report->layer("cluster.frames_forwarded", static_cast<double>(rm.frames_forwarded.load()), "count");
    report->layer("cluster.placement_skew",
                  static_cast<double>(most) * shards / static_cast<double>(streams) - 1.0, "ratio");
    report_codec(rig->viewers[0]->warm_images, report);
    report_builds(inputs.builds(), report);
    // The router hop: identical one-frame stream opens through the router
    // and directly to the owning shard, alternated, on the idle cluster.
    psw::net::NetClient via_router, direct;
    std::string err;
    Samples routed_ms, direct_ms;
    uint64_t session = 1'000'000;
    for (int k = 0; k < kHopOpens && err.empty(); ++k) {
      for (int v = 0; v < viewers && err.empty(); ++v) {
        const ViewerSpec& s = specs[static_cast<size_t>(v)];
        const uint16_t shard_port = cluster.servers[static_cast<size_t>(v / 2)]->port();
        if (!via_router.connect("127.0.0.1", cluster.router->port(), &err) ||
            !direct.connect("127.0.0.1", shard_port, &err)) {
          break;
        }
        const double yaw = s.start_yaw + k * kDeg;
        const double r = first_frame_ms(via_router, s.key, ++session, 1, yaw, &err);
        const double d = first_frame_ms(direct, s.key, ++session, 1, yaw, &err);
        via_router.send_bye(nullptr);
        direct.send_bye(nullptr);
        via_router.close();
        direct.close();
        if (r < 0 || d < 0) break;
        routed_ms.add(r);
        direct_ms.add(d);
      }
    }
    if (!err.empty()) report->error("hop measurement: " + err);
    report->layer("cluster.hop_ms", routed_ms.median() - direct_ms.median(), "ms");
    CacheReading total;
    for (const auto& server : cluster.servers) {
      CacheReading c;
      if (!fetch_cache(server->port(), &c, &err)) report->error("fetch_metrics: " + err);
      total.hits += c.hits;
      total.misses += c.misses;
      total.evictions += c.evictions;
    }
    report->layer("serve.cache_hit_ratio",
                  static_cast<double>(total.hits) / static_cast<double>(total.hits + total.misses),
                  "ratio");
    report->layer("serve.evictions", static_cast<double>(total.evictions), "count");
  }
  rig.reset();
  cluster.reset();
  verify_viewers(ref_hash, specs, inputs, report);
}

// ---------------------------------------------------------------------------
// churn-mixed
// ---------------------------------------------------------------------------

namespace {

struct ChurnSpec {
  uint16_t port = 0;
  uint64_t session_base = 0;
  std::vector<VolumeKey> keys;  // cycled round-robin
  double start_yaw = 0.0;
};

// A churner's delivered frames, by (volume index, view index), for the
// repeat and serial checks.
using ChurnFrames = std::map<std::pair<int, uint32_t>, uint64_t>;

// Opens one-shot renders until the window ends or `*next` reaches `limit`.
// `*next` numbers this churner's opens on the current server: it picks the
// session id, volume and view of each.
void run_churner(const ChurnSpec& spec, const Window& w, uint64_t limit, uint64_t* next,
                 ClientTally* out, ChurnFrames* frames) {
  for (; *next < limit && Clock::now() < w.end; ++*next) {
    const uint64_t i = *next;
    // A fresh connection and session per open: a new viewer opening a
    // volume, so the reply is a keyframe.
    psw::net::NetClient client;
    std::string err;
    if (!client.connect("127.0.0.1", spec.port, &err)) {
      ++out->failed;
      out->error = "churn connect: " + err;
      return;
    }
    const int vol = static_cast<int>(i % spec.keys.size());
    const uint32_t seq = static_cast<uint32_t>(i % kOrbit);
    psw::net::RenderRequestMsg req;
    req.request_id = 1;
    req.session_id = spec.session_base + i;
    req.volume = spec.keys[static_cast<size_t>(vol)];
    req.camera = view(req.volume, spec.start_yaw, seq);
    psw::ImageU8 image;
    psw::net::FrameMsg meta;
    const Clock::time_point t0 = Clock::now();
    if (!client.render(req, &image, &meta, &err)) {
      ++out->failed;
      out->error = "churn render: " + err;
      return;
    }
    const Clock::time_point t1 = Clock::now();
    ++out->opens_total;
    ++out->frames_total;
    if (meta.cache_hit != 0) out->error = "a churn open hit the cache";
    const uint64_t h = hash_image(image);
    const auto [it, inserted] = frames->emplace(std::make_pair(vol, seq), h);
    if (!inserted && it->second != h) ++out->mismatches;
    // Every byte of this connection belongs to its one frame (hello-ack
    // included): the cost of a cold open.
    book_frame(out, w, t1, meta, image, client.bytes_received(), ms_between(t0, t1), true);
    client.send_bye(nullptr);
  }
}

}  // namespace

void run_churn_mixed(const RunConfig& cfg, Report* report) {
  const int half = std::max(1, cfg.nproc / 2);
  const int viewers = half, churners = half, workers = half, prepare_threads = half;
  const int cache_shards = viewers + churners;
  LoadBudget budget;
  budget.counts = {{"render_workers", workers}, {"prepare_threads", prepare_threads},
                   {"viewers", viewers}, {"churners", churners}, {"cache_shards", cache_shards}};
  budget.client_threads = viewers + churners;
  budget.client_connections = viewers + churners;
  if (!check_budget(budget, cfg.nproc)) {
    report->error("load budget exceeds nproc");
    return;
  }

  // Inputs. Each client owns one cache shard (VolumeCache places a key on
  // shard std::hash(canonical) % shards): viewer v's volume on shard v,
  // churner c's volumes on shard viewers + c. Seeds are searched until the
  // keys land there, so every seed gives the same cache layout: viewers
  // never share a shard with a churn build, and a churn shard holds one
  // volume at a time, so every churn open misses and evicts exactly one.
  auto shard_of = [&](const VolumeKey& k) {
    return static_cast<int>(std::hash<std::string>{}(k.canonical()) % static_cast<size_t>(cache_shards));
  };
  auto seeded_key = [&](bool ct, int shard, uint64_t stream) {
    for (uint64_t attempt = 0;; ++attempt) {
      const VolumeKey k = make_key(ct, mix_seed(cfg.seed, stream + attempt));
      if (shard_of(k) == shard) return k;
    }
  };
  std::vector<ViewerSpec> vspecs(static_cast<size_t>(viewers));
  std::vector<ChurnSpec> cspecs(static_cast<size_t>(churners));
  std::vector<VolumeKey> keys;
  for (int v = 0; v < viewers; ++v) {
    ViewerSpec& s = vspecs[static_cast<size_t>(v)];
    s.key = seeded_key(v % 2 == 1, v, 1000 + 1000 * static_cast<uint64_t>(v));
    s.session = static_cast<uint64_t>(v) + 1;
    s.start_yaw = static_cast<double>(mix_seed(cfg.seed, 50 + static_cast<uint64_t>(v)) % 360) * kDeg;
    s.keep_images = cfg.traced && v == 0;
    keys.push_back(s.key);
  }
  for (int c = 0; c < churners; ++c) {
    ChurnSpec& s = cspecs[static_cast<size_t>(c)];
    for (int k = 0; k < kChurnSet; ++k) {
      s.keys.push_back(seeded_key(k % 2 == 1, viewers + c,
                                  100'000 + 10'000 * static_cast<uint64_t>(c) + 1000 * static_cast<uint64_t>(k)));
      keys.push_back(s.keys.back());
    }
    s.session_base = 1'000'000 * (static_cast<uint64_t>(c) + 1);
    s.start_yaw = static_cast<double>(mix_seed(cfg.seed, 80 + static_cast<uint64_t>(c)) % 360) * kDeg;
  }
  VolumeInputs inputs;
  inputs.generate(keys, cfg.nproc);
  // Cache budget: one viewer volume per shard. Churn volumes must be large
  // enough that two never fit a shard, so each churn miss evicts one.
  uint64_t shard_budget = 0, min_churn = UINT64_MAX;
  for (const ViewerSpec& s : vspecs) {
    shard_budget = std::max<uint64_t>(shard_budget, inputs.prepare_reference(s.key).storage_bytes());
  }
  for (const ChurnSpec& s : cspecs) {
    for (const VolumeKey& k : s.keys) {
      min_churn = std::min<uint64_t>(min_churn, inputs.prepare_reference(k).storage_bytes());
    }
  }
  if (2 * min_churn <= shard_budget) {
    report->error("churn volumes too small for the one-volume-per-shard cache layout");
    return;
  }
  std::printf("# cache: %d shards x %llu B\n", cache_shards,
              static_cast<unsigned long long>(shard_budget));

  struct Server {
    std::unique_ptr<psw::serve::RenderService> service;
    std::unique_ptr<psw::net::NetServer> server;
    void reset() {
      server.reset();
      service.reset();
    }
  };
  // Set-up (netserve start, connect, and each viewer's first frame, which
  // builds its volume), the rest of the warm-up orbit, then a window with
  // the churners running beside the viewers; repeated.
  Totals totals;
  Server srv;
  std::unique_ptr<StreamRig> rig;
  std::vector<uint64_t> ref_hash;
  std::vector<ChurnFrames> churn_frames(static_cast<size_t>(churners));
  std::vector<VolumeInputs::BuildRecord> churn_builds;
  CacheReading cache;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    srv.reset();
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    psw::serve::ServiceOptions sopt;
    sopt.worker_threads = workers;
    sopt.cache_bytes = shard_budget * static_cast<uint64_t>(cache_shards);
    sopt.cache_shards = cache_shards;
    srv.service = std::make_unique<psw::serve::RenderService>(sopt, inputs.builder(prepare_threads));
    srv.server = std::make_unique<psw::net::NetServer>(*srv.service);
    std::string err;
    if (!srv.server->start(&err)) throw std::runtime_error("netserve start: " + err);
    for (auto& s : vspecs) s.port = srv.server->port();
    for (auto& s : cspecs) s.port = srv.server->port();
    rig = std::make_unique<StreamRig>();
    rig->start(vspecs);
    totals.setup_s.add(process_cpu_seconds() - cpu0);
    totals.setup_wall_s.add(ms_since(t0) / 1e3);
    rig->wait_warm();
    inputs.clear_builds();  // per-layer build figures: churn misses only

    // Churner 0 runs on the calling thread, the rest on their own: one
    // thread per churner.
    std::vector<uint64_t> next(static_cast<size_t>(churners), 0);
    auto churn = [&](const Window& w, uint64_t limit) {
      std::vector<ClientTally> tally(static_cast<size_t>(churners));
      std::vector<std::thread> threads;
      for (int c = 1; c < churners; ++c) {
        const size_t i = static_cast<size_t>(c);
        threads.emplace_back(
            [&, i] { run_churner(cspecs[i], w, limit, &next[i], &tally[i], &churn_frames[i]); });
      }
      run_churner(cspecs[0], w, limit, &next[0], &tally[0], &churn_frames[0]);
      for (auto& t : threads) t.join();
      ClientTally all;
      for (const ClientTally& t : tally) all.add(t);
      return all;
    };
    if (rep == 0) {
      // Every churn open leaves a session behind, and a session keeps its
      // volume alive after the cache evicts it. Untimed opens fill the
      // service's session table first, so the first window, through which
      // peak_rss_mb is read, runs at that steady state however fast the
      // host lets the churners go.
      const uint64_t fill = static_cast<uint64_t>((sopt.max_sessions + churners - 1) / churners);
      totals.side.add(churn(Window{false, Clock::now(), Clock::time_point::max()}, fill));
    }
    run_window(*rig, cfg.seconds / kSetupReps,
               [&](const Window& w) { return churn(w, UINT64_MAX); }, &totals);
    check_warm_orbits(*rig, &ref_hash, report);
    const auto builds = inputs.builds();
    churn_builds.insert(churn_builds.end(), builds.begin(), builds.end());

    // Deterministic churn: every churn open missed, and each miss after a
    // churn shard's first evicted exactly one volume.
    uint64_t opens = 0, active = 0;
    for (const uint64_t n : next) {
      opens += n;
      active += n > 0 ? 1 : 0;
    }
    if (!fetch_cache(srv.server->port(), &cache, &err)) {
      report->error("fetch_metrics: " + err);
    } else if (cache.misses != static_cast<uint64_t>(viewers) + opens ||
               cache.evictions != opens - active) {
      report->error("cache misses/evictions " + std::to_string(cache.misses) + "/" +
                    std::to_string(cache.evictions) + ", expected " +
                    std::to_string(viewers + opens) + "/" + std::to_string(opens - active));
    }
  }
  report_streams(cfg, totals, totals.side.first_ms, report);
  std::printf("# churn opens: %llu\n", static_cast<unsigned long long>(totals.side.opens_total));
  if (cfg.traced) {
    report->layer("serve.cache_hit_ratio",
                  static_cast<double>(cache.hits) / static_cast<double>(cache.hits + cache.misses),
                  "ratio");
    report->layer("serve.evictions", static_cast<double>(cache.evictions), "count");
    report_codec(rig->viewers[0]->warm_images, report);
    report_builds(churn_builds, report);
  }
  rig.reset();
  srv.reset();

  verify_viewers(ref_hash, vspecs, inputs, report);
  psw::SerialRenderer serial;
  psw::ImageU8 image;
  size_t checked = 0;
  for (int c = 0; c < churners; ++c) {
    const ChurnSpec& s = cspecs[static_cast<size_t>(c)];
    const size_t stride = std::max<size_t>(1, churn_frames[static_cast<size_t>(c)].size() * churners / kChurnVerify);
    size_t n = 0;
    int ref_vol = -1;  // frames are ordered by volume: one reference at a time
    psw::EncodedVolume ref;
    for (const auto& [where, h] : churn_frames[static_cast<size_t>(c)]) {
      if (n++ % stride != 0) continue;
      const VolumeKey& k = s.keys[static_cast<size_t>(where.first)];
      if (where.first != ref_vol) {
        ref = inputs.prepare_reference(k);
        ref_vol = where.first;
      }
      serial.render(ref, view(k, s.start_yaw, where.second), &image);
      ++checked;
      if (hash_image(image) != h) report->error("a churn frame differs from SerialRenderer");
    }
  }
  std::printf("# serial checks: %zu churn frames\n", checked);
}

}  // namespace perfbench
