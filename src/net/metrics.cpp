#include "net/metrics.hpp"

#include "obs/metric_sink.hpp"

namespace psw::net {

void NetMetrics::describe(obs::MetricSink& sink) const {
  sink.counter({"connections", "accepted", "Connections accepted"}, connections_accepted.load());
  sink.counter({"connections", "closed", "Connections closed"}, connections_closed.load());
  sink.counter({"connections", "rejected", "Closed at the cap"}, connections_rejected.load());
  sink.counter({"connections", "idle_timeouts", "Idle harvests"}, idle_timeouts.load());
  sink.counter({"connections", "protocol_errors", "Framing errors"}, protocol_errors.load());
  sink.counter({"traffic", "requests_received", "One-shot requests"}, requests_received.load());
  sink.counter({"traffic", "streams_opened", "Streams opened"}, streams_opened.load());
  sink.counter({"traffic", "streams_completed", "Streams ended"}, streams_completed.load());
  sink.counter({"traffic", "errors_sent", "kError replies"}, errors_sent.load());
  sink.counter({"traffic", "bytes_in", "Bytes received"}, bytes_in.load());
  sink.counter({"traffic", "bytes_out", "Bytes sent"}, bytes_out.load());
  sink.counter({"frames", "sent", "Frames delivered"}, frames_sent.load());
  sink.counter({"frames", "dropped", "Frames shed by backpressure"}, frames_dropped.load());
  sink.counter({"frames", "orphaned_completions", "Completions for closed connections"},
               orphaned_completions.load());
  sink.counter({"frames", "raw_bytes", "Raw RGBA bytes sent"}, frame_raw_bytes.load());
  sink.counter({"frames", "wire_bytes", "Encoded bytes sent"}, frame_wire_bytes.load());
  sink.gauge({"frames", "wire_ratio", "Wire bytes per raw byte"}, wire_ratio());
}

}  // namespace psw::net
