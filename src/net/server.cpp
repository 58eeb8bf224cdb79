#include "net/server.hpp"

#include "obs/metric_sink.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace psw::net {

namespace {

constexpr double kDeg = 3.14159265358979323846 / 180.0;
constexpr size_t kMaxStreamsPerConnection = 16;
// Codec blob header bytes (u16 w, u16 h, u8 codec, u8 reserved); the raw
// fallback bounds the blob at this plus width*height*4.
constexpr size_t kCodecHeader = 6;

}  // namespace

// Callbacks capture this by shared_ptr: a completion firing after stop()
// (or after ~NetServer) lands in a closed queue, never in freed memory.
struct NetServer::CompletionQueue {
  // Lock protocol: one mutex covers the item deque and the closed flag
  // (checked before every push, so items never land after close). The
  // self-pipe the pushers signal is the loop's WakePipe, whose write end is
  // published and retired under its own lock: that is what makes the fd
  // handoff in NetServer::start()/stop() safe against concurrent pushers,
  // and holding it by shared_ptr keeps it alive for callbacks that outlive
  // the server.
  explicit CompletionQueue(std::shared_ptr<WakePipe> pipe) : wake(std::move(pipe)) {}

  Mutex mutex;
  std::deque<CompletionItem> items PSW_GUARDED_BY(mutex);
  bool closed PSW_GUARDED_BY(mutex) = false;
  const std::shared_ptr<WakePipe> wake;

  void push(CompletionItem&& item) {
    {
      MutexLock lock(mutex);
      if (closed) return;
      items.push_back(std::move(item));
    }
    wake->wake();
  }

  void close_and_clear() {
    MutexLock lock(mutex);
    closed = true;
    items.clear();
  }
};

NetServer::NetServer(serve::RenderService& service, NetServerOptions options)
    : service_(service),
      options_(options),
      pool_(BufferPool::Options{options.pool_buffers_per_class,
                                options.pool_retained_bytes,
                                options.pool_poison}),
      loop_(*this) {
  options_.stream_window = std::max(1, options_.stream_window);
  options_.max_pending_frames = std::max<size_t>(1, options_.max_pending_frames);
  queue_ = std::make_shared<CompletionQueue>(loop_.wake_pipe());
}

NetServer::~NetServer() { stop(); }

NetServer::Connection::~Connection() {
  // Rendered-but-unsent frames still hold pool-born images; hand them back
  // so a churn of short-lived streams doesn't bleed the frame pool.
  for (auto& [sid, stream] : streams) {
    for (CompletionItem& item : stream.ready) {
      if (!item.result.image.empty()) service.recycle_frame(std::move(item.result.image));
    }
  }
}

bool NetServer::start(std::string* error) {
  if (running()) {
    if (error) *error = "server already started";
    return false;
  }
  // A restart after stop() needs a live queue: the old one was closed for
  // good in stop() (completion callbacks from the previous run may still
  // hold references to it, and must keep landing in a *closed* queue), so
  // each start gets a fresh queue rather than reopening the retired one.
  queue_ = std::make_shared<CompletionQueue>(loop_.wake_pipe());
  // A rejected hello counts as a protocol error here (the router counts it
  // apart), and every typed error the loop queues counts as sent.
  return loop_.start(
      {options_, options_.socket_send_buffer_bytes, "pswvr-netserve",
       {&pool_, &metrics_.bytes_in, &metrics_.bytes_out, options_.recorder},
       {&metrics_.connections_accepted, &metrics_.connections_rejected,
        &metrics_.connections_closed, &metrics_.idle_timeouts, &metrics_.protocol_errors,
        &metrics_.protocol_errors, &metrics_.errors_sent}},
      error);
}

void NetServer::stop() {
  queue_->close_and_clear();
  loop_.stop();
}

void NetServer::describe(obs::MetricSink& sink) const {
  sink.begin("service");
  service_.describe(sink);
  sink.end();
  sink.begin("net");
  metrics_.describe(sink);
  sink.end();
  obs::describe_pool(sink, "net_pool", pool_.stats());
  if (options_.recorder != nullptr) options_.recorder->describe(sink);
}

std::string NetServer::metrics_json() const {
  return obs::render_json([this](obs::MetricSink& sink) { describe(sink); });
}

std::string NetServer::prometheus_text() const {
  return obs::render_prometheus([this](obs::MetricSink& sink) { describe(sink); });
}

std::string NetServer::trace_dump_json() const {
  return obs::trace_dump_json(options_.recorder, options_.trace_node);
}

void NetServer::flushed(Peer& peer) {
  if (!peer.io.has_outbound()) pump_streams(static_cast<Connection&>(peer));
}

bool NetServer::busy(const Peer& peer) const {
  const Connection& conn = static_cast<const Connection&>(peer);
  return !conn.streams.empty() || conn.outstanding_requests > 0;
}

bool NetServer::on_message(Peer& peer, InMessage& msg) {
  Connection& conn = static_cast<Connection&>(peer);
  switch (msg.type) {
    case MsgType::kRenderRequest: {
      RenderRequestMsg req;
      if (!RenderRequestMsg::decode(msg.bytes(), &req)) break;
      handle_render_request(conn, req);
      return true;
    }
    case MsgType::kStreamRequest: {
      StreamRequestMsg req;
      if (!StreamRequestMsg::decode(msg.bytes(), &req)) break;
      handle_stream_request(conn, req);
      return true;
    }
    case MsgType::kMetricsRequest: {
      MetricsReplyMsg reply;
      reply.json = metrics_document(*this, msg.bytes());
      conn.io.queue_msg(MsgType::kMetricsReply, reply);
      return true;
    }
    default:
      break;  // server-to-client types arriving here are protocol errors
  }
  return loop_.reject(conn, std::string("bad message: ") + to_string(msg.type));
}

void NetServer::handle_render_request(Connection& conn, const RenderRequestMsg& req) {
  metrics_.requests_received.fetch_add(1);
  serve::RenderRequest render;
  render.session_id = req.session_id;
  render.volume = req.volume;
  render.camera = req.camera;
  render.trace = req.trace;
  maybe_head_sample(&render.trace);
  render.trace_tag = req.request_id;
  if (req.deadline_ms > 0) {
    render.deadline = serve::Clock::now() + std::chrono::microseconds(static_cast<int64_t>(
                                                req.deadline_ms * 1e3));
  }
  const obs::TraceContext trace = render.trace;  // survives the move below
  const serve::ServeStatus admission =
      submit(std::move(render), {conn.id, 0, req.request_id, req.session_id, 0, {}});
  if (admission != serve::ServeStatus::kOk) {
    send_error(conn, req.request_id, admission, to_string(admission), trace);
    return;
  }
  ++conn.outstanding_requests;
}

serve::ServeStatus NetServer::submit(serve::RenderRequest&& render,
                                     CompletionItem origin) {
  return service_.submit_async(
      std::move(render),
      [queue = queue_, item = std::move(origin)](serve::FrameResult r) mutable {
        item.result = std::move(r);
        queue->push(std::move(item));
      });
}

void NetServer::handle_stream_request(Connection& conn, const StreamRequestMsg& req) {
  if (conn.streams.size() >= kMaxStreamsPerConnection ||
      conn.streams.count(req.stream_id) != 0) {
    metrics_.protocol_errors.fetch_add(1);
    send_error(conn, req.stream_id, serve::ServeStatus::kError,
               conn.streams.count(req.stream_id) ? "duplicate stream id"
                                                 : "too many streams");
    return;
  }
  metrics_.streams_opened.fetch_add(1);
  Stream stream;
  stream.request = req;
  // A head-sampled stream traces every pushed frame under one trace id,
  // exactly as a client-sampled stream would.
  maybe_head_sample(&stream.request.trace);
  auto [it, inserted] = conn.streams.emplace(req.stream_id, std::move(stream));
  pump_one_stream(conn, it->second);
  if (it->second.ended) conn.streams.erase(it);
}

void NetServer::drain_completions() {
  {
    MutexLock lock(queue_->mutex);
    completions_.swap(queue_->items);
  }
  for (CompletionItem& item : completions_) apply_completion(std::move(item));
  completions_.clear();  // keeps its storage for the next swap
}

void NetServer::apply_completion(CompletionItem&& item) {
  Connection* conn = static_cast<Connection*>(loop_.find(item.conn_id));
  const auto sit = conn != nullptr ? conn->streams.find(item.stream_id)
                                   : std::map<uint64_t, Stream>::iterator();
  if (conn == nullptr || (item.stream_id != 0 && sit == conn->streams.end())) {
    // Its connection or stream went away while the frame rendered.
    metrics_.orphaned_completions.fetch_add(1);
    if (!item.result.image.empty()) {
      service_.recycle_frame(std::move(item.result.image));
    }
    return;
  }

  if (item.stream_id == 0) {
    // One-shot request/reply.
    --conn->outstanding_requests;
    if (item.result.status != serve::ServeStatus::kOk) {
      send_error(*conn, item.request_id, item.result.status,
                 to_string(item.result.status), item.result.trace);
      return;
    }
    FrameMsg frame;
    frame.request_id = item.request_id;
    send_frame(*conn, frame, conn->session_encoders[item.session_id], item);
    return;
  }

  Stream& stream = sit->second;
  --stream.in_flight;
  if (item.result.status == serve::ServeStatus::kOk) {
    stream.ready.push_back(std::move(item));
    // Backpressure: a slow consumer gets the newest frames; the oldest
    // rendered-but-undelivered frame is shed, before it ever reaches the
    // encoder (so the delta chain only contains delivered frames). Its
    // image goes straight back to the render service's frame pool.
    while (stream.ready.size() > options_.max_pending_frames) {
      service_.recycle_frame(std::move(stream.ready.front().result.image));
      stream.ready.pop_front();
      ++stream.dropped;
      ++stream.pending_dropped;
      metrics_.frames_dropped.fetch_add(1);
    }
  } else {
    // The service shed or failed this frame: it will never be delivered.
    ++stream.dropped;
    ++stream.pending_dropped;
    metrics_.frames_dropped.fetch_add(1);
  }
  pump_one_stream(*conn, stream);
  if (stream.ended) conn->streams.erase(sit);
}

void NetServer::pump_streams(Connection& conn) {
  for (auto it = conn.streams.begin(); it != conn.streams.end();) {
    pump_one_stream(conn, it->second);
    it = it->second.ended ? conn.streams.erase(it) : std::next(it);
  }
}

void NetServer::pump_one_stream(Connection& conn, Stream& stream) {
  if (stream.ended) return;
  const StreamRequestMsg& req = stream.request;

  // Keep up to stream_window frames inside the render service. kQueueFull
  // is transient (retried on the next pump); any other admission failure
  // (shutdown) means the remaining frames will never render.
  while (stream.in_flight < static_cast<uint32_t>(options_.stream_window) &&
         stream.next_submit < req.frames) {
    serve::RenderRequest render;
    render.session_id = req.session_id;
    render.volume = req.volume;
    render.trace = req.trace;
    render.trace_tag = stream.next_submit;  // frame seq correlates the spans
    render.camera = Camera::orbit(
        {req.volume.nx, req.volume.ny, req.volume.nz},
        req.start_yaw + stream.next_submit * req.step_deg * kDeg, req.pitch);
    const serve::ServeStatus admission =
        submit(std::move(render),
               {conn.id, req.stream_id, 0, req.session_id, stream.next_submit, {}});
    if (admission == serve::ServeStatus::kOk) {
      ++stream.in_flight;
      ++stream.next_submit;
      continue;
    }
    if (admission == serve::ServeStatus::kQueueFull) break;
    const uint32_t remaining = req.frames - stream.next_submit;
    stream.dropped += remaining;
    stream.pending_dropped += remaining;
    metrics_.frames_dropped.fetch_add(remaining);
    stream.next_submit = req.frames;
    break;
  }

  // Encode and enqueue ready frames while the send buffer has room.
  while (!stream.ready.empty() && !send_buffer_full(conn)) {
    CompletionItem item = std::move(stream.ready.front());
    stream.ready.pop_front();
    FrameMsg frame;
    frame.stream_id = req.stream_id;
    frame.seq = item.seq;
    frame.dropped_before = stream.pending_dropped;
    stream.pending_dropped = 0;
    send_frame(conn, frame, stream.encoder, item);
    ++stream.sent;
  }

  if (stream.next_submit >= req.frames && stream.in_flight == 0 &&
      stream.ready.empty()) {
    StreamEndMsg end;
    end.stream_id = req.stream_id;
    end.frames_sent = stream.sent;
    end.frames_dropped = stream.dropped;
    conn.io.queue_msg(MsgType::kStreamEnd, end);
    metrics_.streams_completed.fetch_add(1);
    stream.ended = true;
  }
}

void NetServer::send_frame(Connection& conn, FrameMsg& frame,
                           FrameEncoder& encoder, CompletionItem& item) {
  // Single-buffer frame path: metadata, a blob-length placeholder, then the
  // codec encoding appended in place and the length patched — the blob never
  // exists outside the wire payload, and the payload buffer is pooled. The
  // acquire hint covers the raw-fallback worst case so a warm pool means no
  // allocation and no mid-encode regrowth.
  frame.render_ms = item.result.timing.composite_ms + item.result.timing.warp_ms;
  frame.total_ms = item.result.timing.total_ms;
  frame.cache_hit = item.result.timing.cache_hit ? 1 : 0;
  const bool traced = item.result.trace.sampled();
  const size_t raw_bytes = item.result.image.pixel_count() * 4;
  size_t acquire_hint = FrameMsg::kMetaSize + 4 + kCodecHeader + raw_bytes;
  if (traced) {
    // Sampled frames carry their stage spans in the trace tail; covering
    // the tail (plus the encode span added below) in the acquire hint keeps
    // even the sampled path free of mid-append regrowth.
    frame.trace = item.result.trace;
    frame.spans = std::move(item.result.spans);
    acquire_hint +=
        kTraceTailHeaderSize + (frame.spans.size() + 1) * kWireSpanSize;
  }
  PooledBuffer payload = pool_.acquire(acquire_hint);
  frame.encode_meta(&payload.vec());
  const size_t blob_len_at = payload.vec().size();
  put_u32(&payload.vec(), 0);  // patched once the blob size is known
  const int64_t encode_start = traced ? steady_now_ns() : 0;
  encoder.encode_append(item.result.image, &payload.vec());
  const size_t blob_bytes = payload.vec().size() - blob_len_at - 4;
  put_u32_at(&payload.vec(), blob_len_at, static_cast<uint32_t>(blob_bytes));
  uint64_t request_span = 0;
  if (traced) {
    // The codec encode gets its own span under the whole-request span the
    // scheduler recorded (the wire parent when the scheduler recorded none).
    for (const obs::SpanRecord& s : frame.spans) {
      if (s.kind == obs::SpanKind::kRequest) request_span = s.span_id;
    }
    if (request_span == 0) request_span = frame.trace.parent_span;
    obs::SpanRecord enc;
    enc.trace_hi = frame.trace.trace_hi;
    enc.trace_lo = frame.trace.trace_lo;
    enc.span_id = obs::next_span_id();
    enc.parent_id = request_span;
    enc.kind = obs::SpanKind::kFrameEncode;
    enc.t_start_ns = encode_start;
    enc.t_end_ns = steady_now_ns();
    enc.tag = blob_bytes;
    if (options_.recorder != nullptr) options_.recorder->record(frame.trace, enc);
    frame.spans.push_back(enc);
    // The tail travels wall-anchored so router- and shard-side dumps share
    // one time axis with the client.
    for (obs::SpanRecord& s : frame.spans) {
      s.t_start_ns = steady_to_wall_ns(s.t_start_ns);
      s.t_end_ns = steady_to_wall_ns(s.t_end_ns);
    }
    frame.encode_trace_tail(&payload.vec());
  }
  metrics_.frames_sent.fetch_add(1);
  metrics_.frame_raw_bytes.fetch_add(raw_bytes);
  metrics_.frame_wire_bytes.fetch_add(blob_bytes);
  service_.recycle_frame(std::move(item.result.image));
  conn.io.queue(MsgType::kFrame, std::move(payload), frame.trace, request_span);
}

void NetServer::send_error(Connection& conn, uint64_t request_id,
                           serve::ServeStatus status, const std::string& message,
                           const obs::TraceContext& trace) {
  conn.io.queue_error(request_id, status, message, trace);
  metrics_.errors_sent.fetch_add(1);
}

void NetServer::maybe_head_sample(obs::TraceContext* trace) {
  if (trace->sampled() || options_.trace_sample == 0) return;
  if (++trace_candidates_ % options_.trace_sample != 0) return;
  *trace = obs::make_sampled_trace();
}

}  // namespace psw::net
