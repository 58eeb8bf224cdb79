#include "serve/metrics.hpp"

#include "obs/metric_sink.hpp"

namespace psw::serve {

const char* to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kQueueFull: return "queue-full";
    case ServeStatus::kDeadlineMissed: return "deadline-missed";
    case ServeStatus::kShutdown: return "shutdown";
    case ServeStatus::kError: return "error";
    case ServeStatus::kUnavailable: return "unavailable";
  }
  return "?";
}

void ServiceMetrics::note_queue_depth(int64_t depth) {
  // relaxed: monotonic high-watermark statistic — the CAS loop retries on
  // races, and no reader infers ordering of other memory from it.
  int64_t prev = queue_depth_max.load(std::memory_order_relaxed);
  while (depth > prev && !queue_depth_max.compare_exchange_weak(
                             prev, depth, std::memory_order_relaxed)) {
  }
}

bool ServiceMetrics::reconciles() const {
  const uint64_t sub = submitted.load();
  const uint64_t acc = accepted.load();
  const uint64_t rej = rejected_queue_full.load() + rejected_deadline.load() +
                       rejected_shutdown.load();
  const uint64_t done = completed.load() + shed_deadline.load() + shed_shutdown.load() +
                        failed.load();
  return sub == acc + rej && acc == done && queue_depth.load() == 0;
}

void ServiceMetrics::describe(obs::MetricSink& sink, const CacheStats& cache,
                              const PoolStats& frame_pool, const PoolStats& prepare_pool) const {
  sink.counter({"admission", "submitted", "Render requests submitted"}, submitted.load());
  sink.counter({"admission", "accepted", "Render requests admitted"}, accepted.load());
  sink.counter({"admission", "rejected_queue_full", "Queue full"}, rejected_queue_full.load());
  sink.counter({"admission", "rejected_deadline", "Deadline passed"}, rejected_deadline.load());
  sink.counter({"admission", "rejected_shutdown", "Service stopping"}, rejected_shutdown.load());
  sink.counter({"admission", "async_submitted", "Via submit_async"}, async_submitted.load());
  sink.counter({"completion", "completed", "Frames rendered"}, completed.load());
  sink.counter({"completion", "shed_deadline", "Shed at the deadline"}, shed_deadline.load());
  sink.counter({"completion", "shed_shutdown", "Shed at shutdown"}, shed_shutdown.load());
  sink.counter({"completion", "failed", "Render failures"}, failed.load());
  sink.counter({"scheduler", "batches", "Dispatch batches drained"}, batches.load());
  sink.counter({"scheduler", "batched_frames", "Frames riding a batch"}, batched_frames.load());
  sink.counter({"scheduler", "profiled_frames", "Frames re-profiled"}, profiled_frames.load());
  sink.counter({"scheduler", "sessions_created", "Sessions created"}, sessions_created.load());
  sink.counter({"scheduler", "sessions_evicted", "Sessions evicted"}, sessions_evicted.load());
  sink.gauge({"scheduler", "queue_depth", "Admission queue depth"}, queue_depth.load());
  sink.gauge({"scheduler", "queue_depth_max", "Queue high-water mark"}, queue_depth_max.load());
  sink.summary({"latency_ms", "queue_wait", "Admission queue residency"}, queue_wait);
  sink.summary({"latency_ms", "cache_miss_build", "Cache-miss preparation"}, cache_miss_build);
  sink.summary({"latency_ms", "composite", "Compositing stage"}, composite);
  sink.summary({"latency_ms", "warp", "Warp stage"}, warp);
  sink.summary({"latency_ms", "total", "Submit-to-completion latency"}, total);
  sink.counter({"volume_cache", "hits", "Volume cache hits"}, cache.hits);
  sink.counter({"volume_cache", "misses", "Volume cache misses"}, cache.misses);
  sink.counter({"volume_cache", "evictions", "Volume cache evictions"}, cache.evictions);
  sink.gauge({"volume_cache", "resident_bytes", "Resident encoded bytes"}, cache.bytes);
  sink.gauge({"volume_cache", "budget_bytes", "Cache byte budget"}, cache.budget_bytes);
  sink.gauge({"volume_cache", "hit_rate", "Hits per lookup"}, cache.hit_rate());
  obs::describe_pool(sink, "frame_pool", frame_pool);
  obs::describe_pool(sink, "prepare_pool", prepare_pool);
}

}  // namespace psw::serve
