// TCP front end over RenderService: the layer that lets frames leave the
// process. A net::Loop (net/loop.hpp) runs the one poll thread over every
// client connection (non-blocking sockets, no thread per connection), with
// the accept path, hello gate, flush and idle harvest it shares with the
// router; this class adds the message handling. Render work is bridged onto
// the service with submit_async completion callbacks, which hand finished
// frames back to the poll thread through a wakeup-pipe-signalled completion
// queue. The poll thread is the only code that touches connection state, so
// the server needs no locks beyond that queue. Framing, the pooled
// scatter-gather send queue and byte accounting live in net::Conn.
//
// Backpressure is explicit and counted: each streaming session keeps at
// most `max_pending_frames` rendered-but-unsent frames — when a new frame
// completes against a full queue the *oldest undelivered* frame is dropped
// (the client wants the newest view, not a growing backlog of stale ones)
// and the drop is reported in the next delivered frame's `dropped_before`.
// Dropping happens before encoding, so the delta codec's
// previous-frame chain only ever contains frames that were actually sent.
// Encoded bytes per connection are bounded by `max_send_buffer_bytes`;
// connections with nothing outstanding are closed after `idle_timeout_ms`.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/conn.hpp"
#include "net/frame_codec.hpp"
#include "net/loop.hpp"
#include "net/metrics.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"
#include "util/buffer_pool.hpp"

namespace psw::net {

// Listening address, connection cap and idle timeout come from
// ListenOptions (net/loop.hpp), shared with the router.
struct NetServerOptions : ListenOptions {
  // Stream flow control: frames of one stream concurrently inside the
  // render service, and rendered frames queued per stream awaiting encode
  // before drop-oldest kicks in.
  int stream_window = 4;
  size_t max_pending_frames = 4;
  // Encoded-bytes bound per connection; encoding pauses (and the pending
  // queue starts shedding) when a slow reader lets this fill up.
  size_t max_send_buffer_bytes = 8u << 20;
  // Kernel SO_SNDBUF per accepted connection; 0 keeps the OS default.
  // Tests shrink it so loopback can't hide a slow consumer.
  int socket_send_buffer_bytes = 0;
  // Payload buffer pool (codec blobs + wire payloads): buffers retained per
  // size class, total retained-byte budget, and the 0xDD poison-on-release
  // debug mode (see util/buffer_pool.hpp).
  size_t pool_buffers_per_class = 8;
  size_t pool_retained_bytes = 64u << 20;
  bool pool_poison = false;
  // Distributed tracing. `recorder` (not owned; must outlive the server)
  // receives the stage spans of sampled requests — null records nothing
  // locally, but client-sampled traces still travel in the frame tail.
  // `trace_sample` head-samples every Nth request/stream that arrives
  // without a sampled context (0 disables); `trace_node` labels this
  // process in trace dumps.
  obs::SpanRecorder* recorder = nullptr;
  uint32_t trace_sample = 0;
  std::string trace_node = "netserve";
};

class NetServer : private Loop::Handler {
 public:
  // The service must outlive the server. The server stops itself (and
  // waits out in-flight completion callbacks) on destruction.
  NetServer(serve::RenderService& service, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, listens and starts the poll thread. False (with *error) when the
  // address is unavailable.
  bool start(std::string* error = nullptr);

  // Closes the acceptor and every connection and joins the poll thread.
  // Completion callbacks still in flight inside the render service remain
  // safe after stop(): they land in the (now closed) queue and are counted
  // as orphaned. Idempotent.
  void stop();

  bool running() const { return loop_.running(); }
  uint16_t port() const { return loop_.port(); }
  const NetServerOptions& options() const { return options_; }
  const NetMetrics& metrics() const { return metrics_; }
  PoolStats pool_stats() const { return pool_.stats(); }

  // The server's metrics (describe() below) as one JSON object (the
  // document netserve flushes on shutdown) and as Prometheus text (the
  // kMetricsSelectorPrometheus document).
  std::string metrics_json() const;
  std::string prometheus_text() const;

  // Span-dump JSON from the configured recorder (kMetricsSelectorTrace);
  // an empty-but-well-formed document when no recorder is attached.
  std::string trace_dump_json() const;

 private:
  // Every metric row of the server: the render service's (section
  // "service"), the network layer's ("net"), the payload pool ("net_pool")
  // and, with a recorder, its span counters ("trace").
  void describe(obs::MetricSink& sink) const;

  struct CompletionItem {
    uint64_t conn_id = 0;
    uint64_t stream_id = 0;   // 0 for one-shot requests
    uint64_t request_id = 0;  // 0 for stream frames
    uint64_t session_id = 0;
    uint32_t seq = 0;
    serve::FrameResult result;
  };

  // Callbacks capture this queue by shared_ptr, so a callback firing after
  // stop() (or even after the server is destroyed) writes into a closed
  // queue instead of freed memory. stop() closes a queue permanently;
  // start() installs a fresh one, which is what lets a stopped server be
  // started again. It shares the loop's WakePipe. Its mutex/guarded members
  // carry thread-safety annotations (util/sync.hpp) — the definition lives
  // in server.cpp.
  struct CompletionQueue;

  struct Stream {
    StreamRequestMsg request;
    uint32_t next_submit = 0;
    uint32_t in_flight = 0;
    uint32_t sent = 0;
    uint32_t dropped = 0;
    uint32_t pending_dropped = 0;  // reported in the next frame's header
    bool ended = false;
    std::deque<CompletionItem> ready;  // rendered, awaiting encode+send
    FrameEncoder encoder;
  };

  struct Connection : Peer {
    explicit Connection(serve::RenderService& s) : service(s) {}
    // Hands rendered-but-unsent frames back to the frame pool.
    ~Connection() override;

    serve::RenderService& service;
    int outstanding_requests = 0;
    std::map<uint64_t, Stream> streams;
    // One-shot requests from one connection share a per-session delta chain
    // (replies for a session are sent in submit order, so the chain is
    // well-defined on the client too).
    std::map<uint64_t, FrameEncoder> session_encoders;
  };

  // Loop::Handler: the completion drain is the server's one timer.
  std::unique_ptr<Peer> make_peer() override {
    return std::make_unique<Connection>(service_);
  }
  void tick() override { drain_completions(); }
  bool on_message(Peer& peer, InMessage& msg) override;
  // Sending drained the queue: streams gated on the buffer bound can encode.
  void flushed(Peer& peer) override;
  bool busy(const Peer& peer) const override;

  void handle_render_request(Connection& conn, const RenderRequestMsg& req);
  void handle_stream_request(Connection& conn, const StreamRequestMsg& req);
  // Submits one render; its completion reaches the poll thread as `origin`
  // (the ids that route it back) with the result filled in.
  serve::ServeStatus submit(serve::RenderRequest&& render, CompletionItem origin);
  void drain_completions();
  void apply_completion(CompletionItem&& item);
  // Submits due stream frames and encodes ready frames into pooled payloads.
  void pump_streams(Connection& conn);
  void pump_one_stream(Connection& conn, Stream& stream);
  // Fills in the frame's timing, encodes it straight into a pooled wire
  // payload (meta, blob-length placeholder, codec output, patched length)
  // and queues it. Recycles the frame's image back to the render service.
  void send_frame(Connection& conn, FrameMsg& frame, FrameEncoder& encoder,
                  CompletionItem& item);
  void send_error(Connection& conn, uint64_t request_id, serve::ServeStatus status,
                  const std::string& message,
                  const obs::TraceContext& trace = {});
  // Head sampling: promotes every trace_sample-th unsampled context to a
  // fresh sampled trace rooted at this server. Poll thread only.
  void maybe_head_sample(obs::TraceContext* trace);
  bool send_buffer_full(const Connection& conn) const {
    return conn.io.sendq_bytes() >= options_.max_send_buffer_bytes;
  }

  serve::RenderService& service_;
  NetServerOptions options_;
  NetMetrics metrics_;
  BufferPool pool_;

  std::shared_ptr<CompletionQueue> queue_;
  // Poll thread only: the drained completions, kept so that their storage
  // is reused instead of reallocated on every iteration.
  std::deque<CompletionItem> completions_;
  uint64_t trace_candidates_ = 0;  // head-sampling counter; poll thread only
  Loop loop_;
};

}  // namespace psw::net
