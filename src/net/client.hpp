// Blocking client for the psw wire protocol. One connection, one thread:
// connect() performs the hello handshake, render() is a synchronous
// request/reply, open_stream()+next_event() consume an animation stream.
// The connection is a non-blocking net::Conn (the framing core the servers
// use) reading into pooled payloads; the client blocks in a timed poll()
// on its one socket whenever the Conn needs more bytes or more room.
// The client owns the decode side of the frame codec — a FrameDecoder per
// stream and per one-shot session, mirroring the server's encoder chains,
// so delta frames always decode against the right previous frame.
//
// Used by tools/netclient, tools/clusterctl, perfbench and the net and
// cluster tests; the library never prints or exits — failures come back as
// false + *error, and server-sent kError replies surface as
// FrameEvent::kError with the typed ServeStatus preserved.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "net/conn.hpp"
#include "net/frame_codec.hpp"
#include "net/wire.hpp"
#include "util/buffer_pool.hpp"
#include "util/image.hpp"

namespace psw::net {

struct NetClientOptions {
  // How long one wait for the socket may block; a server that goes quiet
  // longer than this fails the read instead of hanging the caller. 0
  // disables the timeout.
  double recv_timeout_ms = 30'000.0;
  // Kernel SO_RCVBUF (set before connect); 0 keeps the OS default.
  int recv_buffer_bytes = 0;
  // Bounded connect retry: a refused/unreachable connect (the server not
  // up yet — routine at shard startup) is retried up to this many extra
  // times with exponential backoff before connect() gives up with
  // ConnectStatus::kUnavailable. Non-transient failures (bad address,
  // handshake rejection) never retry. 0 restores fail-on-first-refusal.
  int connect_retries = 4;
  // First retry delay; each subsequent retry doubles it.
  int connect_backoff_ms = 25;
};

// Typed outcome of the last connect() attempt.
enum class ConnectStatus {
  kOk = 0,
  kUnavailable,  // transient refusals persisted through every retry
  kError,        // non-retryable failure (bad address, handshake, protocol)
};

class NetClient {
 public:
  // One decoded server-to-client message.
  struct Event {
    enum class Kind { kFrame, kStreamEnd, kError };
    Kind kind = Kind::kFrame;
    FrameMsg frame;   // kFrame: header fields (encoded blob already consumed)
    ImageU8 image;    // kFrame: the decoded image
    StreamEndMsg end;    // kStreamEnd
    ErrorMsg error;      // kError
  };

  explicit NetClient(NetClientOptions options = {}) : options_(options) {}

  // Connects and completes the hello handshake, retrying transient
  // refusals per NetClientOptions. On failure connect_status() tells
  // whether the target was unavailable (kUnavailable: every retry was
  // refused) or broken (kError).
  bool connect(const std::string& host, uint16_t port, std::string* error);
  ConnectStatus connect_status() const { return connect_status_; }
  // Connect attempts made by the last connect() call (1 = first try).
  int connect_attempts() const { return connect_attempts_; }
  void close();
  bool connected() const { return conn_.valid(); }

  // Synchronous one-shot render: sends the request and reads until the
  // matching frame (or error reply) arrives. Frames for other requests
  // arriving in between are decoded and discarded.
  bool render(const RenderRequestMsg& request, ImageU8* image, FrameMsg* meta,
              std::string* error);

  bool open_stream(const StreamRequestMsg& request, std::string* error);

  // Blocks for the next frame / stream-end / error event.
  bool next_event(Event* out, std::string* error);

  // Server metrics document. `selector` picks the exposition
  // (kMetricsSelectorJson / Prometheus / Trace); the JSON default sends an
  // empty payload, byte-identical to pre-selector clients.
  bool fetch_metrics(std::string* json, std::string* error,
                     uint8_t selector = kMetricsSelectorJson);

  // Polite goodbye; the server flushes pending output and closes.
  bool send_bye(std::string* error);

  // Bytes written to and read from the socket.
  uint64_t bytes_sent() const { return bytes_sent_.load(); }
  uint64_t bytes_received() const { return bytes_received_.load(); }
  const std::string& server_name() const { return server_name_; }
  // One-shot requests sent whose frame or error has not been decoded yet.
  size_t pending_requests() const { return request_sessions_.size(); }

 private:
  template <typename Msg>
  PooledBuffer encode(const Msg& msg) {
    PooledBuffer payload = pool_.acquire(msg.encoded_size());
    msg.encode(&payload.vec());
    return payload;
  }
  // Queues one message and blocks until the kernel has all of it.
  bool write_message(MsgType type, PooledBuffer&& payload, std::string* error);
  // Blocks for the next complete message.
  bool read_message(InMessage* msg, std::string* error);
  // Blocks in poll() until the socket reports `events`, up to
  // recv_timeout_ms; on timeout fails with `timeout_text`.
  bool wait(short events, const char* timeout_text, std::string* error);
  // Sets *error, closes the connection and returns false.
  bool fail(std::string* error, const std::string& what);
  bool decode_event(const InMessage& msg, Event* out, std::string* error);

  NetClientOptions options_;
  ConnectStatus connect_status_ = ConnectStatus::kOk;
  int connect_attempts_ = 0;
  BufferPool pool_;
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  Conn conn_;
  std::string server_name_;
  std::map<uint64_t, FrameDecoder> stream_decoders_;   // by stream_id
  std::map<uint64_t, FrameDecoder> session_decoders_;  // one-shot, by request session
  std::map<uint64_t, uint64_t> request_sessions_;      // request_id -> session_id
};

}  // namespace psw::net
