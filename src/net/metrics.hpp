// Telemetry for the network front end. All counters are atomics: the poll
// thread is the only writer for most of them, but exporters (netserve's
// metrics endpoint, tests) read concurrently, and the
// orphaned-completion path writes from the render scheduler thread. The
// codec's effectiveness is tracked as bytes-on-the-wire vs the raw RGBA
// bytes of every frame actually sent — the headline number the frame codec
// exists to shrink.
#pragma once

#include <atomic>
#include <cstdint>

namespace psw::obs {
class MetricSink;
}

namespace psw::net {

struct NetMetrics {
  // Connection lifecycle.
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> connections_rejected{0};  // at max_connections
  std::atomic<uint64_t> idle_timeouts{0};
  std::atomic<uint64_t> protocol_errors{0};  // framing/decode failures

  // Request traffic.
  std::atomic<uint64_t> requests_received{0};  // one-shot render requests
  std::atomic<uint64_t> streams_opened{0};
  std::atomic<uint64_t> streams_completed{0};
  std::atomic<uint64_t> errors_sent{0};  // kError replies

  // Frame delivery and the streaming backpressure policy.
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> frames_dropped{0};  // drop-oldest-undelivered sheds
  std::atomic<uint64_t> orphaned_completions{0};  // conn gone before completion

  // Raw socket traffic.
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};

  // Codec effectiveness over sent frames only.
  std::atomic<uint64_t> frame_raw_bytes{0};   // width*height*4 per sent frame
  std::atomic<uint64_t> frame_wire_bytes{0};  // encoded blob bytes

  // Wire bytes per raw byte for sent frames (1.0 when nothing was sent,
  // i.e. "no savings yet", so thresholds compare conservatively).
  double wire_ratio() const {
    // relaxed: advisory ratio over two independently exact counters; a read
    // between a frame's raw and wire increments skews one frame at most.
    const uint64_t raw = frame_raw_bytes.load(std::memory_order_relaxed);
    const uint64_t wire = frame_wire_bytes.load(std::memory_order_relaxed);
    return raw == 0 ? 1.0 : static_cast<double>(wire) / static_cast<double>(raw);
  }

  // Every counter above as one row each (obs/metric_sink.hpp).
  void describe(obs::MetricSink& sink) const;
};

}  // namespace psw::net
