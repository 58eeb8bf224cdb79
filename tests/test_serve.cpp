// Frame-serving subsystem tests: served frames are bit-identical to direct
// renderer output, the volume cache's LRU honours its byte budget,
// deadline and queue-full degradation is typed, and the telemetry counters
// reconcile under a multi-threaded smoke load.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/classify.hpp"
#include "parallel/new_renderer.hpp"
#include "phantom/phantom.hpp"
#include "serve/service.hpp"
#include "util/json_parse.hpp"

namespace psw::serve {
namespace {

uint64_t pixel_hash(const ImageU8& img) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto* bytes = reinterpret_cast<const uint8_t*>(img.data());
  for (size_t i = 0; i < img.pixel_count() * sizeof(Pixel8); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h ^ (static_cast<uint64_t>(img.width()) << 32) ^
         static_cast<uint64_t>(img.height());
}

VolumeKey small_key(int n = 40) {
  VolumeKey key;
  key.kind = "mri";
  key.nx = key.ny = key.nz = n;
  return key;
}

// The unsigned integer at a dotted path of the service's metrics document
// (`def` when absent).
uint64_t metric_u64(const RenderService& service, const std::string& path,
                    uint64_t def = ~0ull) {
  JsonValue doc;
  EXPECT_TRUE(json_parse(service.metrics_json(), &doc));
  const JsonValue* v = doc.find_path(path);
  return v != nullptr ? v->as_u64(def) : def;
}

Camera orbit_frame(const VolumeKey& key, int frame) {
  return Camera::orbit({key.nx, key.ny, key.nz}, 0.4 + 0.05 * frame, 0.3);
}

TEST(Serve, FramesBitIdenticalToDirectRenderer) {
  const VolumeKey key = small_key();
  const int kFrames = 6;

  ServiceOptions opt;
  opt.worker_threads = 3;
  opt.parallel.profile_every = 3;
  RenderService service(opt);

  std::vector<uint64_t> served;
  for (int f = 0; f < kFrames; ++f) {
    RenderRequest req;
    req.session_id = 7;
    req.volume = key;
    req.camera = orbit_frame(key, f);
    Ticket t = service.submit(req);
    ASSERT_TRUE(t.accepted());
    FrameResult r = t.result.get();
    ASSERT_EQ(r.status, ServeStatus::kOk);
    served.push_back(pixel_hash(r.image));
  }

  // Direct path: same options, same frame sequence, own renderer instance.
  const DensityVolume density = make_mri_brain(key.nx, key.ny, key.nz);
  const ClassifiedVolume classified =
      classify(density, TransferFunction::mri_preset(), key.classify);
  const EncodedVolume volume =
      EncodedVolume::build(classified, key.classify.alpha_threshold);
  NewParallelRenderer renderer(opt.parallel);
  ThreadedExecutor exec(opt.worker_threads);
  ImageU8 direct;
  ParallelRenderStats stats;
  for (int f = 0; f < kFrames; ++f) {
    renderer.render(volume, orbit_frame(key, f), exec, &direct, &stats);
    EXPECT_EQ(pixel_hash(direct), served[f]) << "frame " << f;
  }
}

// Builder producing volumes with a controllable encoded footprint: n^3
// phantoms so distinct sizes give distinct (monotone) byte counts.
VolumeCache::Builder counting_builder(std::atomic<int>* builds) {
  return [builds](const VolumeKey& key, PrepareTiming*) {
    builds->fetch_add(1);
    const DensityVolume density = make_mri_brain(key.nx, key.ny, key.nz);
    const ClassifiedVolume classified =
        classify(density, TransferFunction::mri_preset(), key.classify);
    return std::make_shared<const EncodedVolume>(
        EncodedVolume::build(classified, key.classify.alpha_threshold));
  };
}

TEST(VolumeCacheTest, LruEvictionRespectsByteBudget) {
  std::atomic<int> builds{0};
  // Budget sized to hold roughly two 24^3 encodings but not three.
  const VolumeKey a = small_key(24);
  VolumeKey b = small_key(24);
  b.seed = 2;
  VolumeKey c = small_key(24);
  c.seed = 3;

  VolumeCache probe(1u << 30, 1, counting_builder(&builds));
  const uint64_t one = probe.get(a)->storage_bytes();
  ASSERT_GT(one, 0u);
  builds = 0;

  VolumeCache cache(2 * one + one / 2, 1, counting_builder(&builds));
  cache.get(a);
  cache.get(b);
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.get(c);  // exceeds the budget -> evicts LRU (a)
  const CacheStats after = cache.stats();
  EXPECT_GE(after.evictions, 1u);
  EXPECT_LE(after.bytes, cache.byte_budget());
  EXPECT_EQ(builds.load(), 3);

  // b and c stayed resident; a was the LRU victim and rebuilds.
  cache.get(b);
  cache.get(c);
  EXPECT_EQ(builds.load(), 3);
  cache.get(a);
  EXPECT_EQ(builds.load(), 4);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(VolumeCacheTest, SecondGetIsASharedHit) {
  std::atomic<int> builds{0};
  VolumeCache cache(1u << 30, 4, counting_builder(&builds));
  double ms = -1.0;
  auto v1 = cache.get(small_key(20), &ms);
  EXPECT_GT(ms, 0.0);  // miss: built
  auto v2 = cache.get(small_key(20), &ms);
  EXPECT_EQ(ms, 0.0);  // hit
  EXPECT_EQ(v1.get(), v2.get());
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Serve, DeadlineAlreadyPassedIsTypedRejection) {
  ServiceOptions opt;
  opt.worker_threads = 1;
  RenderService service(opt);
  RenderRequest req;
  req.session_id = 1;
  req.volume = small_key(16);
  req.camera = orbit_frame(req.volume, 0);
  req.deadline = Clock::now() - std::chrono::milliseconds(5);
  Ticket t = service.submit(req);
  EXPECT_FALSE(t.accepted());
  EXPECT_EQ(t.admission, ServeStatus::kDeadlineMissed);
  EXPECT_EQ(service.metrics().rejected_deadline.load(), 1u);
  EXPECT_EQ(service.metrics().accepted.load(), 0u);
}

TEST(Serve, DeadlineExpiringInQueueIsShedWithTypedError) {
  // A slow builder keeps the scheduler busy on the first request while the
  // second request's deadline expires in the queue.
  std::atomic<int> builds{0};
  auto slow = [&](const VolumeKey& key, PrepareTiming* t) {
    if (builds.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    return VolumeCache::phantom_builder()(key, t);
  };
  ServiceOptions opt;
  opt.worker_threads = 1;
  RenderService service(opt, slow);

  RenderRequest first;
  first.session_id = 1;
  first.volume = small_key(16);
  first.camera = orbit_frame(first.volume, 0);
  Ticket t1 = service.submit(first);
  ASSERT_TRUE(t1.accepted());

  RenderRequest second = first;
  second.session_id = 2;  // different session: not batched behind first
  second.deadline = Clock::now() + std::chrono::milliseconds(20);
  Ticket t2 = service.submit(second);
  ASSERT_TRUE(t2.accepted());

  EXPECT_EQ(t1.result.get().status, ServeStatus::kOk);
  const FrameResult shed = t2.result.get();
  EXPECT_EQ(shed.status, ServeStatus::kDeadlineMissed);
  EXPECT_TRUE(shed.image.empty());
  EXPECT_EQ(service.metrics().shed_deadline.load(), 1u);
}

TEST(Serve, QueueFullIsTypedRejection) {
  // Stall the scheduler with a slow first build, then overfill the queue.
  auto slow = [](const VolumeKey& key, PrepareTiming* t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return VolumeCache::phantom_builder()(key, t);
  };
  ServiceOptions opt;
  opt.worker_threads = 1;
  opt.queue_capacity = 3;
  RenderService service(opt, slow);

  std::vector<Ticket> accepted;
  int queue_full = 0;
  for (int i = 0; i < 8; ++i) {
    RenderRequest req;
    req.session_id = 1 + static_cast<uint64_t>(i);
    req.volume = small_key(16);
    req.camera = orbit_frame(req.volume, i);
    Ticket t = service.submit(req);
    if (t.accepted()) {
      accepted.push_back(std::move(t));
    } else {
      EXPECT_EQ(t.admission, ServeStatus::kQueueFull);
      ++queue_full;
    }
  }
  EXPECT_GT(queue_full, 0);
  EXPECT_EQ(service.metrics().rejected_queue_full.load(),
            static_cast<uint64_t>(queue_full));
  for (Ticket& t : accepted) {
    EXPECT_EQ(t.result.get().status, ServeStatus::kOk);
  }
  service.drain();
  EXPECT_TRUE(service.metrics().reconciles());
}

TEST(Serve, StopShedsQueuedRequestsWithShutdownStatus) {
  auto slow = [](const VolumeKey& key, PrepareTiming* t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return VolumeCache::phantom_builder()(key, t);
  };
  ServiceOptions opt;
  opt.worker_threads = 1;
  opt.queue_capacity = 16;
  auto service = std::make_unique<RenderService>(opt, slow);
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    RenderRequest req;
    req.session_id = 1 + static_cast<uint64_t>(i);
    req.volume = small_key(16);
    req.camera = orbit_frame(req.volume, i);
    tickets.push_back(service->submit(req));
    ASSERT_TRUE(tickets.back().accepted());
  }
  service->stop();
  int ok = 0, shutdown = 0;
  for (Ticket& t : tickets) {
    const ServeStatus s = t.result.get().status;
    (s == ServeStatus::kOk ? ok : shutdown) += 1;
    if (s != ServeStatus::kOk) {
      EXPECT_EQ(s, ServeStatus::kShutdown);
    }
  }
  EXPECT_EQ(ok + shutdown, 4);
  EXPECT_GT(shutdown, 0);  // at most one batch ran before the stop landed
  EXPECT_TRUE(service->metrics().reconciles());
  // Submitting after stop is a typed rejection, not a hang.
  RenderRequest late;
  late.session_id = 99;
  late.volume = small_key(16);
  late.camera = orbit_frame(late.volume, 0);
  EXPECT_EQ(service->submit(late).admission, ServeStatus::kShutdown);
}

TEST(Serve, MetricsReconcileUnderConcurrentLoad) {
  ServiceOptions opt;
  opt.worker_threads = 2;
  opt.queue_capacity = 8;  // small: force queue-full rejections
  opt.batch_max = 3;
  RenderService service(opt);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<uint64_t> ok{0}, rejected{0}, shed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RenderRequest req;
        req.session_id = 1 + static_cast<uint64_t>(t);
        req.volume = small_key(24);
        req.camera = orbit_frame(req.volume, i);
        if (i % 3 == 2) {
          // A mix of tight deadlines: some will be shed in the queue.
          req.deadline = Clock::now() + std::chrono::microseconds(500);
        }
        Ticket ticket = service.submit(req);
        if (!ticket.accepted()) {
          rejected.fetch_add(1);
          continue;
        }
        const FrameResult r = ticket.result.get();
        (r.status == ServeStatus::kOk ? ok : shed).fetch_add(1);
      }
    });
  }
  for (auto& s : submitters) s.join();
  service.drain();

  const ServiceMetrics& m = service.metrics();
  EXPECT_EQ(m.submitted.load(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(m.submitted.load(),
            m.accepted.load() + m.rejected_queue_full.load() +
                m.rejected_deadline.load() + m.rejected_shutdown.load());
  EXPECT_EQ(m.accepted.load(), m.completed.load() + m.shed_deadline.load() +
                                   m.shed_shutdown.load() + m.failed.load());
  EXPECT_EQ(m.completed.load(), ok.load());
  EXPECT_EQ(m.shed_deadline.load() + m.shed_shutdown.load(), shed.load());
  EXPECT_EQ(m.rejected_queue_full.load() + m.rejected_deadline.load(),
            rejected.load());
  EXPECT_EQ(m.failed.load(), 0u);
  EXPECT_TRUE(m.reconciles());
  EXPECT_EQ(m.queue_depth.load(), 0);
  EXPECT_GE(m.queue_depth_max.load(), 1);
  EXPECT_EQ(m.total.count(), m.completed.load());

  // The JSON export round-trips the key counters.
  EXPECT_EQ(metric_u64(service, "admission.submitted"), m.submitted.load());
  EXPECT_EQ(metric_u64(service, "latency_ms.total.count"), m.total.count());
}

TEST(Serve, FramePoolRecyclesStorageAndCountersConserve) {
  ServiceOptions opt;
  opt.worker_threads = 2;
  RenderService service(opt);
  const VolumeKey key = small_key(32);

  const int kFrames = 10;
  for (int f = 0; f < kFrames; ++f) {
    RenderRequest req;
    req.session_id = 4;
    req.volume = key;
    req.camera = orbit_frame(key, f);
    Ticket t = service.submit(req);
    ASSERT_TRUE(t.accepted());
    FrameResult r = t.result.get();
    ASSERT_EQ(r.status, ServeStatus::kOk);
    EXPECT_GT(r.image.pixel_count(), 0u);
    service.recycle_frame(std::move(r.image));
  }
  service.drain();

  const PoolStats pool = service.frame_pool_stats();
  // Conservation: every rendered frame was acquired from the pool, every
  // consumer handed it back, and after the first miss the same pixel
  // storage serves the whole same-size sequence.
  EXPECT_TRUE(pool.conserves());
  EXPECT_EQ(pool.acquires, static_cast<uint64_t>(kFrames));
  EXPECT_EQ(pool.releases, static_cast<uint64_t>(kFrames));
  EXPECT_EQ(pool.outstanding, 0u);
  EXPECT_EQ(pool.misses, 1u);
  EXPECT_EQ(pool.hits, static_cast<uint64_t>(kFrames) - 1);

  // The pool's counters are part of the service telemetry document.
  EXPECT_EQ(metric_u64(service, "frame_pool.acquires"), pool.acquires);
  EXPECT_EQ(metric_u64(service, "frame_pool.hits"), pool.hits);
}

TEST(Serve, PreparePoolConservesUnderConcurrentMissLoad) {
  // Four submitter threads, each with its own session and a distinct volume
  // size: every first-touch is a cache miss, so the prepare-scratch pool
  // cycles acquire/release while renders from other sessions overlap. Run
  // under TSan in CI, this covers the pooled build buffers under real
  // concurrent serve load, and the closed-loop session shape end to end:
  // no failures, one cold start per volume, and every frame handed back.
  ServiceOptions opt;
  opt.worker_threads = 4;
  opt.queue_capacity = 64;
  opt.prepare_threads = 2;
  RenderService service(opt);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 5;
  std::atomic<int> ok{0}, cold{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int f = 0; f < kPerThread; ++f) {
        RenderRequest req;
        req.session_id = 100 + static_cast<uint64_t>(t);
        req.volume = small_key(20 + 4 * t);
        req.camera = orbit_frame(req.volume, f);
        Ticket ticket = service.submit(req);
        ASSERT_TRUE(ticket.accepted());
        FrameResult r = ticket.result.get();
        if (r.status == ServeStatus::kOk) {
          ok.fetch_add(1);
          if (!r.timing.cache_hit) cold.fetch_add(1);
          service.recycle_frame(std::move(r.image));
        }
      }
    });
  }
  for (auto& s : submitters) s.join();
  service.drain();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(service.metrics().failed.load(), 0u);
  EXPECT_EQ(cold.load(), kThreads);
  const PoolStats frames = service.frame_pool_stats();
  EXPECT_TRUE(frames.conserves());
  EXPECT_EQ(frames.outstanding, 0u);

  // One scratch acquisition per cache miss (one per distinct volume, built
  // on the scheduler thread), every one returned; after the first miss the
  // pool serves every later build from its retained scratch.
  const PoolStats prep = service.prepare_pool_stats();
  EXPECT_TRUE(prep.conserves());
  EXPECT_EQ(prep.acquires, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(prep.releases, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(prep.outstanding, 0u);
  EXPECT_EQ(prep.misses, 1u);
  EXPECT_EQ(prep.hits, static_cast<uint64_t>(kThreads) - 1);
  EXPECT_GT(prep.retained_bytes, 0u);

  // The prepare pool is part of the telemetry document, same shape as the
  // frame pool.
  EXPECT_EQ(metric_u64(service, "prepare_pool.acquires"), prep.acquires);
  EXPECT_EQ(metric_u64(service, "prepare_pool.misses"), 1u);
}

TEST(Serve, SameSessionFramesBatchAndReuseProfile) {
  ServiceOptions opt;
  opt.worker_threads = 2;
  opt.batch_max = 4;
  opt.parallel.profile_every = 100;  // profile only when invalid
  RenderService service(opt);

  // Submit a burst for one session; the first frame profiles, later frames
  // ride the profile (no re-profiling within the burst).
  std::vector<Ticket> tickets;
  for (int f = 0; f < 8; ++f) {
    RenderRequest req;
    req.session_id = 5;
    req.volume = small_key(32);
    req.camera = orbit_frame(req.volume, f);
    tickets.push_back(service.submit(req));
    ASSERT_TRUE(tickets.back().accepted());
  }
  int profiled = 0;
  for (Ticket& t : tickets) {
    const FrameResult r = t.result.get();
    ASSERT_EQ(r.status, ServeStatus::kOk);
    profiled += r.timing.profiled ? 1 : 0;
  }
  EXPECT_EQ(profiled, 1);
  EXPECT_GE(service.metrics().batched_frames.load(), 1u);

  // A second session on the same key shares the cached volume: no rebuild.
  const CacheStats before = service.cache_stats();
  RenderRequest other;
  other.session_id = 6;
  other.volume = small_key(32);
  other.camera = orbit_frame(other.volume, 0);
  Ticket t = service.submit(other);
  ASSERT_TRUE(t.accepted());
  const FrameResult r = t.result.get();
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_TRUE(r.timing.cache_hit);
  EXPECT_EQ(service.cache_stats().misses, before.misses);
}

// Sessions keep only their profile between frames: once a frame is done,
// the volumes still alive are exactly the cache's entries, even with twice
// as many one-shot sessions on distinct volumes as the session table holds.
TEST(Serve, EvictedVolumesAreFreedWithTheirFrame) {
  constexpr int kMaxSessions = 4;
  constexpr int kShards = 2;
  std::vector<VolumeKey> keys;
  for (int i = 0; i < 2 * kMaxSessions; ++i) {
    VolumeKey key = small_key(24);
    key.seed = static_cast<uint64_t>(i + 1);
    keys.push_back(key);
  }
  // A budget of one volume per shard: 1.5× the largest, under 2× the smallest.
  const VolumeCache::Builder phantom = VolumeCache::phantom_builder();
  uint64_t lo = ~0ull, hi = 0;
  for (const VolumeKey& key : keys) {
    const uint64_t bytes = phantom(key, nullptr)->storage_bytes();
    lo = std::min(lo, bytes);
    hi = std::max(hi, bytes);
  }
  const uint64_t shard_budget = hi + hi / 2;
  ASSERT_LT(shard_budget, 2 * lo);

  // Written by the scheduler thread during builds; read here after drain().
  std::vector<std::weak_ptr<const EncodedVolume>> built;
  ServiceOptions opt;
  opt.worker_threads = 2;
  opt.max_sessions = kMaxSessions;
  opt.cache_shards = kShards;
  opt.cache_bytes = kShards * shard_budget;
  RenderService service(opt, [&built, phantom](const VolumeKey& key, PrepareTiming* t) {
    std::shared_ptr<const EncodedVolume> volume = phantom(key, t);
    built.push_back(volume);
    return volume;
  });

  for (size_t i = 0; i < keys.size(); ++i) {
    RenderRequest req;
    req.session_id = 100 + i;
    req.volume = keys[i];
    req.camera = orbit_frame(req.volume, 0);
    Ticket t = service.submit(req);
    ASSERT_TRUE(t.accepted());
    ASSERT_EQ(t.result.get().status, ServeStatus::kOk);
    service.drain();  // the scheduler has finished with the frame

    // Every cache entry is alive, so equal byte totals mean nothing else is.
    uint64_t live_bytes = 0;
    int live = 0;
    for (const auto& weak : built) {
      if (const auto volume = weak.lock()) {
        live_bytes += volume->storage_bytes();
        ++live;
      }
    }
    const CacheStats cache = service.cache_stats();
    EXPECT_EQ(live_bytes, cache.bytes) << "after frame " << i;
    EXPECT_LE(live, kShards) << "after frame " << i;
  }
  EXPECT_EQ(built.size(), keys.size());
  EXPECT_GT(service.cache_stats().evictions, 0u);
  EXPECT_EQ(service.metrics().sessions_evicted.load(),
            static_cast<uint64_t>(keys.size() - kMaxSessions));
}

// Every session renders through the table's one workspace. Interleaved
// frame by frame, sessions whose intermediate images differ in size still
// match a direct renderer with its own workspace bit for bit, and each
// keeps its own §4.2 profile cadence.
TEST(Serve, SessionsSharingOneWorkspaceStayBitIdentical) {
  VolumeKey ct = small_key(48);
  ct.kind = "ct";
  ct.tf_preset = 1;
  const std::vector<VolumeKey> keys = {small_key(32), ct, small_key(40)};
  constexpr int kFrames = 7;

  ServiceOptions opt;
  opt.worker_threads = 3;
  opt.batch_max = 1;
  opt.parallel.profile_every = 3;
  RenderService service(opt);

  std::vector<std::vector<uint64_t>> served(keys.size());
  std::vector<int> served_profiled(keys.size(), 0);
  for (int f = 0; f < kFrames; ++f) {
    for (size_t s = 0; s < keys.size(); ++s) {
      RenderRequest req;
      req.session_id = 20 + s;
      req.volume = keys[s];
      req.camera = orbit_frame(keys[s], f);
      Ticket t = service.submit(req);
      ASSERT_TRUE(t.accepted());
      const FrameResult r = t.result.get();
      ASSERT_EQ(r.status, ServeStatus::kOk);
      served[s].push_back(pixel_hash(r.image));
      served_profiled[s] += r.timing.profiled ? 1 : 0;
    }
  }

  const VolumeCache::Builder phantom = VolumeCache::phantom_builder();
  ThreadedExecutor exec(opt.worker_threads);
  for (size_t s = 0; s < keys.size(); ++s) {
    const std::shared_ptr<const EncodedVolume> volume = phantom(keys[s], nullptr);
    NewParallelRenderer renderer(opt.parallel);
    ImageU8 direct;
    ParallelRenderStats stats;
    int profiled = 0;
    for (int f = 0; f < kFrames; ++f) {
      renderer.render(*volume, orbit_frame(keys[s], f), exec, &direct, &stats);
      profiled += stats.profiled ? 1 : 0;
      EXPECT_EQ(pixel_hash(direct), served[s][f]) << "session " << s << " frame " << f;
    }
    EXPECT_EQ(served_profiled[s], profiled) << "session " << s;
    EXPECT_LT(profiled, kFrames) << "session " << s;
  }
}

TEST(Serve, SubmitAsyncDeliversCallbackOnSchedulerThread) {
  ServiceOptions opt;
  opt.worker_threads = 2;
  RenderService service(opt);

  std::promise<FrameResult> got;
  RenderRequest req;
  req.session_id = 3;
  req.volume = small_key(24);
  req.camera = orbit_frame(req.volume, 0);
  const ServeStatus admission = service.submit_async(
      req, [&](FrameResult r) { got.set_value(std::move(r)); });
  ASSERT_EQ(admission, ServeStatus::kOk);
  const FrameResult r = got.get_future().get();
  EXPECT_EQ(r.status, ServeStatus::kOk);
  EXPECT_FALSE(r.image.empty());
  EXPECT_EQ(service.metrics().async_submitted.load(), 1u);

  // The callback result is bit-identical to the future-based path.
  Ticket t = service.submit(req);
  ASSERT_TRUE(t.accepted());
  EXPECT_EQ(pixel_hash(t.result.get().image), pixel_hash(r.image));
}

TEST(Serve, SubmitAsyncShedsWithTypedStatusOnStop) {
  auto slow = [](const VolumeKey& key, PrepareTiming* t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return VolumeCache::phantom_builder()(key, t);
  };
  ServiceOptions opt;
  opt.worker_threads = 1;
  auto service = std::make_unique<RenderService>(opt, slow);
  std::atomic<int> callbacks{0};
  std::atomic<int> shutdown_results{0};
  for (int i = 0; i < 4; ++i) {
    RenderRequest req;
    req.session_id = 1 + static_cast<uint64_t>(i);
    req.volume = small_key(16);
    req.camera = orbit_frame(req.volume, i);
    ASSERT_EQ(service->submit_async(req,
                                    [&](FrameResult r) {
                                      callbacks.fetch_add(1);
                                      if (r.status == ServeStatus::kShutdown) {
                                        shutdown_results.fetch_add(1);
                                      }
                                    }),
              ServeStatus::kOk);
  }
  service->stop();
  // Every accepted async request got exactly one callback, rendered or shed.
  EXPECT_EQ(callbacks.load(), 4);
  EXPECT_GT(shutdown_results.load(), 0);
  EXPECT_TRUE(service->metrics().reconciles());
  // After stop, admission is a synchronous typed rejection; the callback
  // must never fire.
  RenderRequest late;
  late.session_id = 9;
  late.volume = small_key(16);
  late.camera = orbit_frame(late.volume, 0);
  EXPECT_EQ(service->submit_async(late, [&](FrameResult) { ADD_FAILURE(); }),
            ServeStatus::kShutdown);
}

TEST(SessionTableTest, EvictsLeastRecentlyUsed) {
  SessionTable table(2, ParallelOptions{});
  table.acquire(1);
  table.acquire(2);
  table.acquire(1);  // touch 1 -> LRU order: 1, 2
  table.acquire(3);  // evicts 2
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.created(), 3u);
  EXPECT_EQ(table.evicted(), 1u);
  table.acquire(2);  // re-created
  EXPECT_EQ(table.created(), 4u);
}

TEST(SessionTableTest, SessionsRenderThroughOneWorkspace) {
  SessionTable table(4, ParallelOptions{});
  const IntermediateImage* first = &table.acquire(1).renderer.intermediate();
  EXPECT_EQ(&table.acquire(2).renderer.intermediate(), first);
  EXPECT_EQ(&table.acquire(3).renderer.intermediate(), first);
}

}  // namespace
}  // namespace psw::serve
