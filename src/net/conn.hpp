// One framed, non-blocking wire connection: the connection core shared by
// netserve's client connections, all three of the router's connection
// kinds (client, upstream, shard control) and NetClient.
//
// Inbound, bytes land in a linear receive buffer that only grows when one
// message outsizes it; each complete message is validated in place (header
// fields, length bound, CRC — once) and copied once into a pooled payload.
// The 16-byte header it arrived with travels alongside, so a proxy can
// forward the message without re-encoding or re-checksumming it.
//
// Outbound, each queued message is its 16-byte header inline plus its
// payload still in the pooled buffer it was encoded (or received) into;
// flush() hands both to sendmsg as separate iovecs, resumes partial writes
// mid-header or mid-payload, and returns each payload to its pool once the
// kernel has all of it. Nothing is ever copied into a flat send buffer.
//
// A Conn is owned and driven by one thread; it takes no locks.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"
#include "util/buffer_pool.hpp"

namespace psw::net {

// What every connection of one front end shares. `pool` is required; the
// byte counters (process-wide traffic totals) and the span recorder (kSend
// spans of sampled outbound messages) may be null.
struct ConnShared {
  BufferPool* pool = nullptr;
  std::atomic<uint64_t>* bytes_in = nullptr;
  std::atomic<uint64_t>* bytes_out = nullptr;
  obs::SpanRecorder* recorder = nullptr;
};

// One validated inbound message: its payload in a pooled buffer and the
// header it arrived with.
struct InMessage {
  MsgType type = MsgType::kBye;
  std::array<uint8_t, kHeaderSize> header{};
  PooledBuffer payload;

  const std::vector<uint8_t>& bytes() const { return payload.vec(); }
};

class Conn {
 public:
  Conn() = default;
  // Takes a non-blocking socket. `connecting` marks a non-blocking connect
  // still in flight: messages queue up but nothing is sent until
  // finish_connect() succeeds.
  Conn(UniqueFd fd, const ConnShared& shared, bool connecting = false);

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }
  bool connecting() const { return connecting_; }
  // POLLOUT while connecting; otherwise POLLIN, plus POLLOUT with output queued.
  short poll_events() const;
  // Completes a pending connect once poll reports on it (a no-op
  // otherwise). False when the connect failed.
  bool finish_connect(short revents);

  // --- inbound ---
  // Reads everything the socket has into the receive buffer. False on EOF
  // or a hard error: nothing more will arrive.
  bool read_some();
  // Takes the next complete message off the receive buffer. kNeedMore when
  // none is buffered; any other non-kOk status is a framing error (message
  // boundaries are lost and the connection cannot continue).
  WireStatus next(InMessage* msg);
  // Hands each buffered message to handler(InMessage&) until the handler
  // returns false (-> kOk) or the buffer runs dry (-> kNeedMore); a framing
  // error stops the loop and is returned.
  template <typename Handler>
  WireStatus dispatch(Handler&& handler) {
    InMessage msg;
    for (;;) {
      const WireStatus status = next(&msg);
      if (status != WireStatus::kOk) return status;
      if (!handler(msg)) return WireStatus::kOk;
    }
  }

  // --- outbound ---
  // Stamps the header (CRC over the payload) and queues the message. A
  // sampled `trace` records a kSend span under `send_parent` when the
  // message has fully reached the kernel.
  void queue(MsgType type, PooledBuffer&& payload,
             const obs::TraceContext& trace = {}, uint64_t send_parent = 0);
  // Encodes a message struct into a pooled buffer sized by encoded_size().
  template <typename Msg>
  void queue_msg(MsgType type, const Msg& msg) {
    PooledBuffer payload = shared_.pool->acquire(msg.encoded_size());
    msg.encode(&payload.vec());
    queue(type, std::move(payload));
  }
  // Queues a typed kError for one request (0 = the connection itself); a
  // sampled trace correlates the client-visible error with its trace.
  void queue_error(uint64_t request_id, serve::ServeStatus status,
                   const std::string& message, const obs::TraceContext& trace = {});
  // Queues a received message as it arrived: its own header, its pooled
  // payload. No copy, no re-encode, no second CRC.
  void forward(InMessage&& msg);
  // Sends as much queued output as the kernel takes. False on a hard write
  // error, after discarding the backlog.
  bool flush();
  void discard_outbound();
  bool has_outbound() const { return !sendq_.empty(); }
  size_t sendq_bytes() const { return sendq_bytes_; }  // unsent bytes

  serve::Clock::time_point last_activity() const { return last_activity_; }

 private:
  struct SendItem {
    std::array<uint8_t, kHeaderSize> header;
    PooledBuffer payload;
    size_t sent = 0;  // bytes of header+payload already accepted by the kernel
    // Sampled items record a kSend span (queued -> fully handed to the
    // kernel) when they drain; unsampled items leave these untouched.
    obs::TraceContext trace;
    uint64_t send_parent = 0;  // parent span id for the kSend span
    int64_t queued_ns = 0;     // steady ns at sendq entry
  };

  void push(SendItem&& item);
  void record_send_span(const SendItem& item) const;

  UniqueFd fd_;
  ConnShared shared_;
  bool connecting_ = false;
  // Receive buffer: [in_begin_, in_end_) is received but not yet taken.
  std::vector<uint8_t> in_;
  size_t in_begin_ = 0;
  size_t in_end_ = 0;
  std::deque<SendItem> sendq_;
  size_t sendq_bytes_ = 0;
  serve::Clock::time_point last_activity_ = serve::Clock::now();
};

}  // namespace psw::net
