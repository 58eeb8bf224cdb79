#include "serve/service.hpp"

#include <algorithm>
#include <utility>

#include "obs/metric_sink.hpp"
#include "util/timer.hpp"

namespace psw::serve {

namespace {
double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Span timestamps share Clock's (steady_clock) epoch, so scheduler time
// points convert directly to recorder nanoseconds.
int64_t to_ns(Clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}
}  // namespace

namespace {
// Resolves the cache builder: a caller-supplied builder wins; otherwise the
// phantom builder prepares misses with prepare_threads threads (0 = match
// the render pool size).
VolumeCache::Builder resolve_builder(const ServiceOptions& options,
                                     VolumeCache::Builder builder,
                                     PrepareScratchPool* scratch_pool) {
  if (builder) return builder;
  PrepareOptions prep;
  prep.threads = options.prepare_threads > 0 ? options.prepare_threads
                                             : std::max(1, options.worker_threads);
  return VolumeCache::phantom_builder(prep, scratch_pool);
}
}  // namespace

RenderService::RenderService(ServiceOptions options, VolumeCache::Builder builder)
    : options_(options),
      frame_pool_(FramePool::Options{
          static_cast<size_t>(std::max(0, options.frame_pool_frames)),
          FramePool::Options{}.max_retained_bytes}),
      cache_(options.cache_bytes, options.cache_shards,
             resolve_builder(options, std::move(builder), &prepare_pool_)),
      sessions_(options.max_sessions, options.parallel),
      exec_(std::max(1, options.worker_threads)) {
  options_.worker_threads = exec_.procs();
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

RenderService::~RenderService() { stop(); }

Ticket RenderService::submit(RenderRequest request) {
  return admit(std::move(request), {});
}

ServeStatus RenderService::submit_async(RenderRequest request, Completion done) {
  metrics_.async_submitted.fetch_add(1);
  return admit(std::move(request), std::move(done)).admission;
}

Ticket RenderService::admit(RenderRequest request, Completion done) {
  Ticket ticket;
  metrics_.submitted.fetch_add(1);
  const Clock::time_point now = Clock::now();
  if (request.has_deadline() && now > request.deadline) {
    metrics_.rejected_deadline.fetch_add(1);
    ticket.admission = ServeStatus::kDeadlineMissed;
    return ticket;
  }
  Pending pending;
  pending.request = std::move(request);
  pending.done = std::move(done);
  pending.enqueued = now;
  {
    MutexLock lock(mutex_);
    if (stopping_) {
      metrics_.rejected_shutdown.fetch_add(1);
      ticket.admission = ServeStatus::kShutdown;
      return ticket;
    }
    if (total_queued_ >= options_.queue_capacity) {
      metrics_.rejected_queue_full.fetch_add(1);
      ticket.admission = ServeStatus::kQueueFull;
      return ticket;
    }
    if (!pending.done) ticket.result = pending.promise.emplace().get_future();
    auto& q = queues_[pending.request.session_id];
    if (q.empty()) rotation_.push_back(pending.request.session_id);
    q.push_back(std::move(pending));
    ++total_queued_;
    metrics_.accepted.fetch_add(1);
    metrics_.queue_depth.fetch_add(1);
    metrics_.note_queue_depth(total_queued_);
  }
  work_cv_.notify_one();
  return ticket;
}

void RenderService::deliver(Pending& p, FrameResult&& result) {
  if (p.done) {
    p.done(std::move(result));
  } else if (p.promise) {
    p.promise->set_value(std::move(result));
  }
}

void RenderService::recycle_frame(ImageU8&& image) {
  frame_pool_.release(std::move(image));
}

void RenderService::shed(Pending& p, ServeStatus status) {
  if (status == ServeStatus::kDeadlineMissed) {
    metrics_.shed_deadline.fetch_add(1);
  } else {
    metrics_.shed_shutdown.fetch_add(1);
  }
  FrameResult result;
  result.status = status;
  result.trace = p.request.trace;  // correlate the typed shed with its trace
  result.timing.queue_wait_ms = ms_between(p.enqueued, Clock::now());
  deliver(p, std::move(result));
}

void RenderService::process(Pending& p) {
  const Clock::time_point dispatched = Clock::now();
  if (p.request.has_deadline() && dispatched > p.request.deadline) {
    shed(p, ServeStatus::kDeadlineMissed);
    return;
  }
  try {
    render_one(p, dispatched);
  } catch (...) {
    // The scheduler thread must survive a failing request (a throwing
    // builder, allocation failure): answer with the typed error.
    metrics_.failed.fetch_add(1);
    FrameResult result;
    result.status = ServeStatus::kError;
    result.trace = p.request.trace;
    result.timing.queue_wait_ms = ms_between(p.enqueued, dispatched);
    deliver(p, std::move(result));
  }
}

void RenderService::render_one(Pending& p, Clock::time_point dispatched) {
  FrameResult result;
  // Render into a recycled frame when one is available: the warp writes
  // every pixel, so reuse is invisible to output, and a warm pool makes the
  // per-frame image allocation disappear.
  result.image = frame_pool_.acquire(
      static_cast<size_t>(p.request.camera.image_width) *
      static_cast<size_t>(p.request.camera.image_height));
  result.timing.queue_wait_ms = ms_between(p.enqueued, dispatched);
  metrics_.queue_wait.record_ms(result.timing.queue_wait_ms);

  // Sampled requests get a server-side request span; every stage span below
  // parents to it. The unsampled path takes none of these branches beyond
  // one boolean test — no allocation, no recorder traffic.
  const bool traced = p.request.trace.sampled();
  const obs::TraceContext& ctx = p.request.trace;
  uint64_t request_span = 0;
  auto add_span = [&](obs::SpanKind kind, uint64_t parent, int64_t start_ns,
                      int64_t end_ns) {
    obs::SpanRecord s;
    s.trace_hi = ctx.trace_hi;
    s.trace_lo = ctx.trace_lo;
    s.span_id = obs::next_span_id();
    s.parent_id = parent;
    s.kind = kind;
    s.t_start_ns = start_ns;
    s.t_end_ns = end_ns;
    s.tag = p.request.trace_tag;
    result.spans.push_back(s);
    return s.span_id;
  };
  if (traced) {
    result.trace = ctx;
    request_span = obs::next_span_id();
    add_span(obs::SpanKind::kQueueWait, request_span, to_ns(p.enqueued),
             to_ns(dispatched));
  }

  SessionState& session = sessions_.acquire(p.request.session_id);
  metrics_.sessions_created.store(sessions_.created());
  metrics_.sessions_evicted.store(sessions_.evicted());

  // Consult the cache every frame: the LRU must see which volumes are live,
  // and the hit/miss counters then measure per-frame sharing, not just
  // first-touch binding. The session keeps no reference once the frame is
  // done, so a volume the cache has evicted is freed with this frame.
  double build_ms = 0.0;
  PrepareTiming prep;
  p.request.volume.canonical_into(&canonical_scratch_);
  const Clock::time_point build_start = Clock::now();
  std::shared_ptr<const EncodedVolume> volume =
      cache_.get(p.request.volume, canonical_scratch_, &build_ms, &prep);
  const Clock::time_point build_end = Clock::now();
  result.timing.cache_hit = build_ms == 0.0;
  result.timing.classify_ms = build_ms;
  if (build_ms > 0.0) metrics_.cache_miss_build.record_ms(build_ms);
  if (traced && build_ms > 0.0) {
    // Child spans are reconstructed from the builder's stage durations:
    // classify leads the build, encoding finishes it (the gap between them
    // is phantom generation + bookkeeping).
    const uint64_t build_span =
        add_span(obs::SpanKind::kCacheBuild, request_span, to_ns(build_start),
                 to_ns(build_end));
    const int64_t classify_ns = static_cast<int64_t>(prep.classify_ms * 1e6);
    const int64_t encode_ns = static_cast<int64_t>(prep.encode_ms * 1e6);
    if (prep.classify_ms > 0.0) {
      add_span(obs::SpanKind::kClassify, build_span,
               to_ns(build_end) - encode_ns - classify_ns,
               to_ns(build_end) - encode_ns);
    }
    if (prep.encode_ms > 0.0) {
      add_span(obs::SpanKind::kEncodeVolume, build_span,
               to_ns(build_end) - encode_ns, to_ns(build_end));
    }
  }
  if (session.volume_key != canonical_scratch_) {
    // New volume for this session: the old profile describes a different
    // dataset (or transfer function), so partition prediction restarts.
    session.renderer.reset();
    session.volume_key = canonical_scratch_;
  }

  const Clock::time_point render_start = Clock::now();
  session.renderer.render(*volume, p.request.camera, exec_, &result.image,
                          &stats_scratch_);
  const ParallelRenderStats& stats = stats_scratch_;
  const Clock::time_point render_end = Clock::now();
  ++session.frames_rendered;

  result.timing.composite_ms = stats.composite_ms;
  result.timing.warp_ms = stats.warp_ms;
  result.timing.profiled = stats.profiled;
  result.timing.total_ms = ms_between(p.enqueued, Clock::now());
  metrics_.composite.record_ms(stats.composite_ms);
  metrics_.warp.record_ms(stats.warp_ms);
  metrics_.total.record_ms(result.timing.total_ms);
  if (stats.profiled) metrics_.profiled_frames.fetch_add(1);
  if (traced) {
    // The paper's phase split, live: composite leads the render interval,
    // warp ends it (with fused phases the boundary is approximate — each
    // processor's warp overlaps its neighbours' compositing).
    add_span(obs::SpanKind::kComposite, request_span, to_ns(render_start),
             to_ns(render_start) + static_cast<int64_t>(stats.composite_ms * 1e6));
    add_span(obs::SpanKind::kWarp, request_span,
             to_ns(render_end) - static_cast<int64_t>(stats.warp_ms * 1e6),
             to_ns(render_end));
    // The request span closes here (delivery to the wire is traced by the
    // network layer as frame-encode/send spans under the same parent).
    obs::SpanRecord req;
    req.trace_hi = ctx.trace_hi;
    req.trace_lo = ctx.trace_lo;
    req.span_id = request_span;
    req.parent_id = ctx.parent_span;
    req.kind = obs::SpanKind::kRequest;
    req.t_start_ns = to_ns(p.enqueued);
    req.t_end_ns = to_ns(Clock::now());
    req.tag = p.request.trace_tag;
    result.spans.push_back(req);
    if (options_.recorder != nullptr) {
      for (const obs::SpanRecord& s : result.spans) {
        options_.recorder->record(ctx, s);
      }
      options_.recorder->note_request(ctx, result.spans, result.timing.total_ms);
    }
  }
  result.status = ServeStatus::kOk;
  result.frame_seq = metrics_.completed.fetch_add(1) + 1;
  deliver(p, std::move(result));
}

void RenderService::scheduler_loop() {
  // batch_ is scheduler-confined and reused across iterations; clear()
  // keeps its capacity so steady-state dispatch never allocates.
  std::vector<Pending>& batch = batch_;
  for (;;) {
    batch.clear();
    {
      MutexLock lock(mutex_);
      while (!stopping_ && total_queued_ == 0) work_cv_.wait(mutex_);
      if (stopping_) {
        // Shed everything still queued with the typed shutdown status.
        for (auto& [sid, q] : queues_) {
          for (size_t i = q.head; i < q.items.size(); ++i) {
            shed(q.items[i], ServeStatus::kShutdown);
          }
          metrics_.queue_depth.fetch_sub(static_cast<int64_t>(q.size()));
          total_queued_ -= static_cast<int64_t>(q.size());
        }
        queues_.clear();
        rotation_.clear();
        drain_cv_.notify_all();
        return;
      }
      // Round-robin: serve the session at the head of the rotation, taking
      // up to batch_max of its consecutive frames so its renderer's profile
      // carries across them, then move it to the back.
      const uint64_t sid = rotation_.front();
      rotation_.pop_front();
      auto it = queues_.find(sid);
      auto& q = it->second;
      const int take =
          std::min<int>(std::max(1, options_.batch_max), static_cast<int>(q.size()));
      batch.reserve(static_cast<size_t>(take));
      for (int i = 0; i < take; ++i) {
        batch.push_back(std::move(q.front()));
        q.pop_front();
      }
      if (q.empty()) {
        // Retain the emptied FIFO (map node + vector capacity) for the
        // session's next frame — per-frame erase/reinsert churn is exactly
        // the allocator traffic this path must avoid. A bounded sweep
        // erases on drain only once the table has grown well past the
        // session capacity (many one-shot session ids).
        if (queues_.size() >
            static_cast<size_t>(2 * std::max(1, options_.max_sessions))) {
          queues_.erase(it);
        }
      } else {
        rotation_.push_back(sid);
      }
      total_queued_ -= take;
      in_flight_ = take;
      metrics_.queue_depth.fetch_sub(take);
    }
    metrics_.batches.fetch_add(1);
    metrics_.batched_frames.fetch_add(batch.size() - 1);
    for (Pending& p : batch) process(p);
    {
      MutexLock lock(mutex_);
      in_flight_ = 0;
      if (total_queued_ == 0) drain_cv_.notify_all();
    }
  }
}

void RenderService::drain() {
  MutexLock lock(mutex_);
  while (total_queued_ != 0 || in_flight_ != 0) drain_cv_.wait(mutex_);
}

bool RenderService::drain_for(int64_t timeout_ms) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
  MutexLock lock(mutex_);
  while (total_queued_ != 0 || in_flight_ != 0) {
    const auto now = Clock::now();
    if (now >= deadline) return false;
    drain_cv_.wait_for(mutex_, std::chrono::duration_cast<std::chrono::milliseconds>(
                                   deadline - now));
  }
  return true;
}

void RenderService::stop() {
  MutexLock stop_lock(stop_mutex_);
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
}

std::string RenderService::metrics_json() const {
  return obs::render_json([this](obs::MetricSink& sink) { describe(sink); });
}

}  // namespace psw::serve
