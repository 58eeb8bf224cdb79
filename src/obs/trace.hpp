// End-to-end request tracing: trace/span identity and the allocation-
// disciplined span sink.
//
// A TraceContext (128-bit trace id + parent span id + flags) rides inside
// the PSWN wire payloads, is forwarded verbatim by the cluster router, and
// names one logical render request across processes. Each instrumented
// stage (queue wait, cache build, composite, warp, encode, send, router
// proxy) records a SpanRecord into a SpanRecorder — striped fixed-capacity
// ring buffers of seqlocked atomic slots. The discipline mirrors the
// serving hot path's zero-alloc contract: when a request is unsampled the
// record call is a single branch (no allocation, no lock, no atomic RMW),
// and when a ring wraps the oldest spans are overwritten in place rather
// than grown. Only the rare export paths (metrics endpoint, shutdown dump,
// slow-request flight recorder) take locks or allocate.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.hpp"
#include "util/timer.hpp"

namespace psw::obs {

class MetricSink;

// Fixed span taxonomy. The wire format and the dump carry the enum value,
// so names stay consistent across router, shards and tools.
enum class SpanKind : uint8_t {
  kClient = 0,     // client-side root: request sent -> frame decoded
  kRequest,        // server-side whole-request span (admission -> delivery)
  kQueueWait,      // admission queue residency (enqueue -> dispatch)
  kCacheBuild,     // VolumeCache miss build (classify + RLE encode)
  kClassify,       // classification stage of a cache build
  kEncodeVolume,   // per-axis RLE encoding stage of a cache build
  kComposite,      // paper phase 1: intermediate-image compositing
  kWarp,           // paper phase 2: warp to the final image
  kFrameEncode,    // frame codec encode into the pooled wire payload
  kSend,           // sendq residency: queued -> last byte handed to kernel
  kRouterProxy,    // router: request forwarded -> frame received upstream
  kCount,
};

const char* to_string(SpanKind k);
// Reverse mapping for the dump/tool side; returns kCount for unknown names.
SpanKind span_kind_from(const std::string& name);

struct TraceContext {
  static constexpr uint8_t kSampledFlag = 0x01;

  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t parent_span = 0;  // span id of the caller's span, 0 at the root
  uint8_t flags = 0;

  bool valid() const { return (trace_hi | trace_lo) != 0; }
  bool sampled() const { return valid() && (flags & kSampledFlag) != 0; }
};

// Process-unique nonzero span id.
uint64_t next_span_id();

// Fresh sampled trace rooted at a new 128-bit id. `root_span` (if non-null)
// receives the id of the implicit root span callers should parent their
// stage spans to.
TraceContext make_sampled_trace(uint64_t* root_span = nullptr);

// Hex formatting shared by the dump, the errors and the tools: 32 hex
// digits for a trace id, 16 for a span id.
std::string trace_id_hex(uint64_t hi, uint64_t lo);
std::string trace_id_hex(const TraceContext& ctx);
std::string span_id_hex(uint64_t id);
bool parse_hex_u64(const std::string& s, uint64_t* out);
// Parses a 32-digit trace id into (hi, lo); accepts shorter strings as lo.
bool parse_trace_id(const std::string& s, uint64_t* hi, uint64_t* lo);

struct SpanRecord {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  SpanKind kind = SpanKind::kRequest;
  int64_t t_start_ns = 0;  // steady ns inside the recorder, wall ns on export
  int64_t t_end_ns = 0;
  uint64_t tag = 0;  // request/stream correlator (request_id, or seq for streams)

  double duration_ms() const {
    return static_cast<double>(t_end_ns - t_start_ns) / 1e6;
  }
};

// A trace retained by the slow-request flight recorder.
struct RetainedTrace {
  TraceContext ctx;
  double total_ms = 0.0;
  std::vector<SpanRecord> spans;
};

class SpanRecorder {
 public:
  struct Options {
    int rings = 16;          // stripes; threads hash onto them by ordinal
    int ring_capacity = 512; // spans per ring before overwrite
    double slow_ms = 0.0;    // flight-recorder threshold; <= 0 disables
    int slow_capacity = 32;  // retained slow traces (oldest evicted)
  };

  SpanRecorder() : SpanRecorder(Options()) {}
  explicit SpanRecorder(Options opt);

  // Records one finished span. When `ctx` is unsampled this is a single
  // branch: no allocation, no lock, no shared-cacheline write. When
  // sampled, the owning thread claims a slot in its ring with one relaxed
  // fetch_add and fills it with release stores behind a seqlock word — a
  // full ring overwrites its oldest slot, it never grows.
  void record(const TraceContext& ctx, const SpanRecord& span);

  // Copies every stable slot out of the rings (export path; skips slots
  // caught mid-write). Timestamps stay on the steady clock.
  std::vector<SpanRecord> snapshot() const;

  // Slow-request flight recorder: called once per completed request on the
  // sampled path; retains the trace when total_ms clears the threshold.
  void note_request(const TraceContext& ctx, const std::vector<SpanRecord>& spans,
                    double total_ms);
  std::vector<RetainedTrace> slow_traces() const;

  uint64_t recorded() const;     // spans written (including overwritten)
  uint64_t overwritten() const;  // spans lost to ring wrap
  // The two counters above as metric rows, group "trace".
  void describe(MetricSink& sink) const;

  double slow_threshold_ms() const { return opt_.slow_ms; }

  // Structured-JSON trace dump: rings + flight recorder, timestamps
  // converted steady -> wall ns through the process ClockAnchor so dumps
  // from different processes share one time axis. `node` labels the
  // emitting process ("router", "shard-0", ...).
  std::string dump_json(const std::string& node) const;

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  // seqlock: odd while a writer is inside
    std::atomic<uint64_t> trace_hi{0};
    std::atomic<uint64_t> trace_lo{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_id{0};
    std::atomic<uint64_t> kind{0};
    std::atomic<int64_t> t_start_ns{0};
    std::atomic<int64_t> t_end_ns{0};
    std::atomic<uint64_t> tag{0};
  };
  struct Ring {
    std::atomic<uint64_t> head{0};  // total spans ever written to this ring
    std::unique_ptr<Slot[]> slots;
  };

  Options opt_;
  std::vector<Ring> rings_;

  mutable Mutex slow_mutex_;
  std::deque<RetainedTrace> slow_ PSW_GUARDED_BY(slow_mutex_);
};

// The span dump a front end serves for kMetricsSelectorTrace: `recorder`'s
// dump_json, or — with no recorder attached — an empty but well-formed
// dump, so tools can aggregate without special-casing.
std::string trace_dump_json(const SpanRecorder* recorder, const std::string& node);

}  // namespace psw::obs
