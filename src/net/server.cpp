#include "net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/export.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace psw::net {

namespace {

constexpr double kDeg = 3.14159265358979323846 / 180.0;
constexpr size_t kMaxStreamsPerConnection = 16;
// Codec blob header bytes (u16 w, u16 h, u8 codec, u8 reserved); the raw
// fallback bounds the blob at this plus width*height*4.
constexpr size_t kCodecHeader = 6;

double ms_since(serve::Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(serve::Clock::now() - t).count();
}

}  // namespace

// Callbacks capture this by shared_ptr: a completion firing after stop()
// (or after ~NetServer) lands in a closed queue, never in freed memory.
struct NetServer::CompletionQueue {
  // Lock protocol: one mutex covers the item deque and the closed flag
  // (checked before every push, so items never land after close). The
  // self-pipe the pushers signal is a WakePipe, whose write end is published
  // and retired under its own lock: that is what makes the fd handoff in
  // NetServer::start()/stop() safe against concurrent pushers.
  Mutex mutex;
  std::deque<CompletionItem> items PSW_GUARDED_BY(mutex);
  bool closed PSW_GUARDED_BY(mutex) = false;
  WakePipe wake;

  void push(CompletionItem&& item) {
    {
      MutexLock lock(mutex);
      if (closed) return;
      items.push_back(std::move(item));
    }
    wake.wake();
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
      queue_(std::make_shared<CompletionQueue>()) {
  options_.stream_window = std::max(1, options_.stream_window);
  options_.max_pending_frames = std::max<size_t>(1, options_.max_pending_frames);
}

NetServer::~NetServer() { stop(); }

bool NetServer::start(std::string* error) {
  if (thread_.joinable()) {
    if (error) *error = "server already started";
    return false;
  }
  listener_ = tcp_listen(options_.bind_address, options_.port, options_.backlog, error);
  if (!listener_.valid()) return false;
  port_ = local_port(listener_.get());
  set_nonblocking(listener_.get(), true);

  // A restart after stop() needs a live queue: the old one was closed for
  // good in stop() (completion callbacks from the previous run may still
  // hold references to it, and must keep landing in a *closed* queue), so
  // each start gets a fresh queue rather than reopening the retired one.
  auto queue = std::make_shared<CompletionQueue>();
  if (!queue->wake.open(error)) {
    listener_.reset();
    return false;
  }
  queue_ = std::move(queue);

  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { poll_loop(); });
  return true;
}

void NetServer::stop() {
  queue_->close_and_clear();
  stopping_.store(true, std::memory_order_release);
  queue_->wake.wake();
  if (thread_.joinable()) thread_.join();
  queue_->wake.close();  // retires the write end before the read end
  conns_.clear();
  listener_.reset();
}

std::string NetServer::prometheus_text() const {
  obs::PromText p;
  const serve::ServiceMetrics& sm = service_.metrics();
  p.counter("psw_requests_submitted_total", "Render requests submitted",
            sm.submitted.load());
  p.counter("psw_requests_accepted_total", "Render requests accepted",
            sm.accepted.load());
  p.counter("psw_requests_rejected_total", "Admission rejections by reason",
            sm.rejected_queue_full.load(), "reason=\"queue_full\"");
  p.counter("psw_requests_rejected_total", "Admission rejections by reason",
            sm.rejected_deadline.load(), "reason=\"deadline\"");
  p.counter("psw_requests_rejected_total", "Admission rejections by reason",
            sm.rejected_shutdown.load(), "reason=\"shutdown\"");
  p.counter("psw_requests_completed_total", "Frames rendered to completion",
            sm.completed.load());
  p.counter("psw_requests_shed_total", "Accepted requests shed by reason",
            sm.shed_deadline.load(), "reason=\"deadline\"");
  p.counter("psw_requests_shed_total", "Accepted requests shed by reason",
            sm.shed_shutdown.load(), "reason=\"shutdown\"");
  p.counter("psw_requests_failed_total", "Render failures", sm.failed.load());
  p.gauge("psw_queue_depth", "Admission queue depth",
          static_cast<double>(sm.queue_depth.load()));
  p.summary_ms("psw_queue_wait_ms", "Admission queue residency",
               sm.queue_wait);
  p.summary_ms("psw_cache_build_ms", "Cache-miss volume preparation",
               sm.cache_miss_build);
  p.summary_ms("psw_composite_ms", "Compositing stage", sm.composite);
  p.summary_ms("psw_warp_ms", "Warp stage", sm.warp);
  p.summary_ms("psw_request_total_ms", "Submit-to-completion latency",
               sm.total);
  const serve::CacheStats cache = service_.cache_stats();
  p.counter("psw_volume_cache_hits_total", "Volume cache hits", cache.hits);
  p.counter("psw_volume_cache_misses_total", "Volume cache misses",
            cache.misses);
  p.counter("psw_volume_cache_evictions_total", "Volume cache evictions",
            cache.evictions);
  p.gauge("psw_volume_cache_bytes", "Resident encoded-volume bytes",
          static_cast<double>(cache.bytes));
  p.counter("psw_net_connections_accepted_total", "Connections accepted",
            metrics_.connections_accepted.load());
  p.counter("psw_net_connections_closed_total", "Connections closed",
            metrics_.connections_closed.load());
  p.counter("psw_net_protocol_errors_total", "Framing/decode failures",
            metrics_.protocol_errors.load());
  p.counter("psw_net_requests_received_total", "One-shot render requests",
            metrics_.requests_received.load());
  p.counter("psw_net_streams_opened_total", "Streams opened",
            metrics_.streams_opened.load());
  p.counter("psw_net_streams_completed_total", "Streams completed",
            metrics_.streams_completed.load());
  p.counter("psw_net_frames_sent_total", "Frames delivered",
            metrics_.frames_sent.load());
  p.counter("psw_net_frames_dropped_total", "Frames shed by backpressure",
            metrics_.frames_dropped.load());
  p.counter("psw_net_errors_sent_total", "kError replies",
            metrics_.errors_sent.load());
  p.counter("psw_net_bytes_in_total", "Bytes received",
            metrics_.bytes_in.load());
  p.counter("psw_net_bytes_out_total", "Bytes sent", metrics_.bytes_out.load());
  p.counter("psw_net_frame_raw_bytes_total", "Raw RGBA bytes of sent frames",
            metrics_.frame_raw_bytes.load());
  p.counter("psw_net_frame_wire_bytes_total", "Encoded blob bytes sent",
            metrics_.frame_wire_bytes.load());
  p.counter("psw_net_frame_copy_bytes_total",
            "Post-encode bytes copied (0 on the zero-copy path)",
            metrics_.frame_copy_bytes.load());
  p.trace_counters(options_.recorder);
  return p.str();
}

std::string NetServer::trace_dump_json() const {
  return obs::trace_dump_json(options_.recorder, options_.trace_node);
}

std::string NetServer::metrics_json() const {
  std::string out = "{\n\"service\": ";
  out += service_.metrics_json();
  out += ",\n\"net\": ";
  out += metrics_.to_json();
  out += ",\n\"net_pool\": ";
  JsonWriter w;
  serve::write_pool_json(w, pool_.stats());
  out += w.str();
  out += "\n}";
  return out;
}

void NetServer::poll_loop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> ids;
  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    ids.clear();
    fds.push_back({listener_.get(), POLLIN, 0});
    fds.push_back({queue_->wake.read_fd(), POLLIN, 0});
    for (auto& [id, conn] : conns_) {
      fds.push_back({conn.io.fd(), conn.io.poll_events(), 0});
      ids.push_back(id);
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    if (stopping_.load(std::memory_order_acquire)) break;

    if (fds[1].revents & POLLIN) queue_->wake.drain();
    drain_completions();
    if (fds[0].revents & POLLIN) accept_ready();

    for (size_t i = 0; i < ids.size(); ++i) {
      const auto it = conns_.find(ids[i]);
      if (it == conns_.end()) continue;
      Connection& conn = it->second;
      const short revents = fds[i + 2].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        conn.closing = true;
        conn.io.discard_outbound();
        continue;
      }
      if (revents & (POLLIN | POLLHUP)) read_ready(conn);
    }

    // Opportunistic flush for every connection with queued bytes (replies
    // generated this iteration go out without waiting for the next poll),
    // then finish connections that have flushed their goodbye.
    std::vector<uint64_t> done;
    for (auto& [id, conn] : conns_) {
      write_ready(conn);
      if (conn.closing && !conn.io.has_outbound()) done.push_back(id);
    }
    for (const uint64_t id : done) close_connection(id);
    harvest_idle();
  }
  // Poll thread owns the connections; drop them on the way out so their
  // fds close on this thread.
  conns_.clear();
}

void NetServer::accept_ready() {
  for (;;) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: back to poll
    if (conns_.size() >= static_cast<size_t>(options_.max_connections)) {
      metrics_.connections_rejected.fetch_add(1);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd, true);
    if (options_.socket_send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.socket_send_buffer_bytes,
                   sizeof(options_.socket_send_buffer_bytes));
    }
    Connection conn;
    conn.id = next_conn_id_++;
    conn.io = Conn(UniqueFd(fd), {&pool_, &metrics_.bytes_in,
                                  &metrics_.bytes_out, options_.recorder});
    metrics_.connections_accepted.fetch_add(1);
    conns_.emplace(conn.id, std::move(conn));
  }
}

void NetServer::read_ready(Connection& conn) {
  if (!conn.io.read_some()) {
    // EOF or hard error: nothing more will arrive; flush what we owe and go.
    conn.closing = true;
    return;
  }
  const WireStatus status = conn.io.dispatch(
      [&](const InMessage& msg) { return handle_message(conn, msg); });
  if (status == WireStatus::kNeedMore) return;
  if (status != WireStatus::kOk) {
    // A framing error loses message boundaries; the only safe answer is a
    // typed goodbye and a close.
    metrics_.protocol_errors.fetch_add(1);
    send_error(conn, 0, serve::ServeStatus::kError,
               std::string("wire error: ") + to_string(status));
  }
  conn.closing = true;
}

void NetServer::write_ready(Connection& conn) {
  if (!conn.io.flush()) {
    conn.closing = true;  // peer gone, backlog dropped: the cleanup pass reaps us
    return;
  }
  if (!conn.io.has_outbound()) {
    // Sending drained the queue: streams gated on the buffer bound can
    // encode again.
    pump_streams(conn);
  }
}

bool NetServer::handle_message(Connection& conn, const InMessage& msg) {
  if (!conn.got_hello && msg.type != MsgType::kHello) {
    metrics_.protocol_errors.fetch_add(1);
    send_error(conn, 0, serve::ServeStatus::kError, "expected hello first");
    return false;
  }
  switch (msg.type) {
    case MsgType::kHello: {
      HelloMsg hello;
      if (!HelloMsg::decode(msg.bytes(), &hello)) break;
      conn.got_hello = conn.io.answer_hello(hello, "pswvr-netserve");
      if (!conn.got_hello) {
        metrics_.protocol_errors.fetch_add(1);
        metrics_.errors_sent.fetch_add(1);
      }
      return conn.got_hello;  // a rejection flushes its typed error, then closes
    }
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
    case MsgType::kBye:
      return false;  // flush pending output, then close
    default:
      break;  // server-to-client types arriving here are protocol errors
  }
  metrics_.protocol_errors.fetch_add(1);
  send_error(conn, 0, serve::ServeStatus::kError,
             std::string("bad message: ") + to_string(msg.type));
  return false;
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
  auto queue = queue_;
  const uint64_t conn_id = conn.id;
  const uint64_t request_id = req.request_id;
  const uint64_t session_id = req.session_id;
  const serve::ServeStatus admission = service_.submit_async(
      std::move(render), [queue, conn_id, request_id, session_id](serve::FrameResult r) {
        CompletionItem item;
        item.conn_id = conn_id;
        item.request_id = request_id;
        item.session_id = session_id;
        item.result = std::move(r);
        queue->push(std::move(item));
      });
  if (admission != serve::ServeStatus::kOk) {
    send_error(conn, request_id, admission, to_string(admission), trace);
    return;
  }
  ++conn.outstanding_requests;
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
  std::deque<CompletionItem> items;
  {
    MutexLock lock(queue_->mutex);
    items.swap(queue_->items);
  }
  for (CompletionItem& item : items) apply_completion(std::move(item));
}

void NetServer::apply_completion(CompletionItem&& item) {
  const auto cit = conns_.find(item.conn_id);
  if (cit == conns_.end()) {
    metrics_.orphaned_completions.fetch_add(1);
    if (!item.result.image.empty()) {
      service_.recycle_frame(std::move(item.result.image));
    }
    return;
  }
  Connection& conn = cit->second;

  if (item.stream_id == 0) {
    // One-shot request/reply.
    --conn.outstanding_requests;
    if (item.result.status != serve::ServeStatus::kOk) {
      send_error(conn, item.request_id, item.result.status,
                 to_string(item.result.status), item.result.trace);
      return;
    }
    FrameMsg frame;
    frame.request_id = item.request_id;
    frame.render_ms = item.result.timing.composite_ms + item.result.timing.warp_ms;
    frame.total_ms = item.result.timing.total_ms;
    frame.cache_hit = item.result.timing.cache_hit ? 1 : 0;
    send_frame(conn, frame, conn.session_encoders[item.session_id], item);
    return;
  }

  const auto sit = conn.streams.find(item.stream_id);
  if (sit == conn.streams.end()) {
    metrics_.orphaned_completions.fetch_add(1);
    if (!item.result.image.empty()) {
      service_.recycle_frame(std::move(item.result.image));
    }
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
  pump_one_stream(conn, stream);
  if (stream.ended) conn.streams.erase(sit);
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
    auto queue = queue_;
    const uint64_t conn_id = conn.id;
    const uint64_t stream_id = req.stream_id;
    const uint64_t session_id = req.session_id;
    const uint32_t seq = stream.next_submit;
    const serve::ServeStatus admission = service_.submit_async(
        std::move(render),
        [queue, conn_id, stream_id, session_id, seq](serve::FrameResult r) {
          CompletionItem item;
          item.conn_id = conn_id;
          item.stream_id = stream_id;
          item.session_id = session_id;
          item.seq = seq;
          item.result = std::move(r);
          queue->push(std::move(item));
        });
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
    frame.render_ms = item.result.timing.composite_ms + item.result.timing.warp_ms;
    frame.total_ms = item.result.timing.total_ms;
    frame.cache_hit = item.result.timing.cache_hit ? 1 : 0;
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

void NetServer::close_connection(uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // Rendered-but-unsent frames still hold pool-born images; hand them back
  // so a churn of short-lived streams doesn't bleed the frame pool.
  for (auto& [sid, stream] : it->second.streams) {
    for (CompletionItem& item : stream.ready) {
      if (!item.result.image.empty()) {
        service_.recycle_frame(std::move(item.result.image));
      }
    }
  }
  conns_.erase(it);
  metrics_.connections_closed.fetch_add(1);
}

void NetServer::harvest_idle() {
  if (options_.idle_timeout_ms <= 0) return;
  std::vector<uint64_t> idle;
  for (auto& [id, conn] : conns_) {
    const bool quiet = conn.streams.empty() && conn.outstanding_requests == 0 &&
                       !conn.io.has_outbound();
    if (quiet && ms_since(conn.io.last_activity()) > options_.idle_timeout_ms) {
      idle.push_back(id);
    }
  }
  for (const uint64_t id : idle) {
    metrics_.idle_timeouts.fetch_add(1);
    close_connection(id);
  }
}

}  // namespace psw::net
