#include "net/client.hpp"

#include <poll.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

namespace psw::net {

namespace {

void set_error(std::string* error, std::string what) {
  if (error) *error = std::move(what);
}

}  // namespace

bool NetClient::connect(const std::string& host, uint16_t port, std::string* error) {
  close();
  connect_status_ = ConnectStatus::kError;
  connect_attempts_ = 0;
  int backoff_ms = options_.connect_backoff_ms > 0 ? options_.connect_backoff_ms : 1;
  for (int attempt = 0;; ++attempt) {
    ++connect_attempts_;
    int connect_errno = 0;
    UniqueFd fd = tcp_connect_errno(host, port, error, &connect_errno,
                                    options_.recv_buffer_bytes);
    if (fd.valid()) {
      set_nonblocking(fd.get(), true);
      conn_ = Conn(std::move(fd), {&pool_, &bytes_received_, &bytes_sent_});
      break;
    }
    if (!retryable_connect_errno(connect_errno)) return false;
    if (attempt >= options_.connect_retries) {
      connect_status_ = ConnectStatus::kUnavailable;
      set_error(error, "connect to " + host + ":" + std::to_string(port) +
                           ": unavailable after " +
                           std::to_string(connect_attempts_) + " attempt(s): " +
                           (error ? *error : std::string()));
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms *= 2;
  }

  HelloMsg hello;
  hello.version = kProtocolVersion;
  hello.name = "pswvr-netclient";
  if (!write_message(MsgType::kHello, encode(hello), error)) return false;

  InMessage msg;
  if (!read_message(&msg, error)) return false;
  HelloMsg ack;
  if (msg.type != MsgType::kHelloAck || !HelloMsg::decode(msg.bytes(), &ack)) {
    return fail(error, "handshake failed: unexpected reply");
  }
  server_name_ = ack.name;
  connect_status_ = ConnectStatus::kOk;
  return true;
}

void NetClient::close() {
  conn_ = Conn();
  server_name_.clear();
  stream_decoders_.clear();
  session_decoders_.clear();
  request_sessions_.clear();
}

bool NetClient::render(const RenderRequestMsg& request, ImageU8* image,
                       FrameMsg* meta, std::string* error) {
  if (!write_message(MsgType::kRenderRequest, encode(request), error)) return false;
  request_sessions_[request.request_id] = request.session_id;

  for (;;) {
    Event event;
    if (!next_event(&event, error)) return false;
    switch (event.kind) {
      case Event::Kind::kFrame:
        if (event.frame.request_id != request.request_id) continue;
        if (image) *image = std::move(event.image);
        if (meta) *meta = event.frame;
        return true;
      case Event::Kind::kError:
        if (event.error.request_id != 0 &&
            event.error.request_id != request.request_id) {
          continue;
        }
        set_error(error, "server error (" +
                             std::to_string(event.error.status) +
                             "): " + event.error.message);
        return false;
      case Event::Kind::kStreamEnd:
        continue;  // not ours; a concurrent stream finishing is fine
    }
  }
}

bool NetClient::open_stream(const StreamRequestMsg& request, std::string* error) {
  if (!write_message(MsgType::kStreamRequest, encode(request), error)) return false;
  stream_decoders_[request.stream_id].reset();
  return true;
}

bool NetClient::next_event(Event* out, std::string* error) {
  InMessage msg;
  if (!read_message(&msg, error)) return false;
  return decode_event(msg, out, error);
}

bool NetClient::decode_event(const InMessage& msg, Event* out, std::string* error) {
  switch (msg.type) {
    case MsgType::kFrame: {
      FrameMsg frame;
      if (!FrameMsg::decode(msg.bytes(), &frame)) {
        set_error(error, "malformed frame message");
        return false;
      }
      // A one-shot reply ends its request: its session's chain decodes it,
      // and the request's entry goes.
      uint64_t session = 0;
      if (frame.stream_id == 0) {
        const auto it = request_sessions_.find(frame.request_id);
        if (it != request_sessions_.end()) {
          session = it->second;
          request_sessions_.erase(it);
        }
      }
      FrameDecoder& decoder = frame.stream_id != 0 ? stream_decoders_[frame.stream_id]
                                                   : session_decoders_[session];
      out->kind = Event::Kind::kFrame;
      const CodecStatus status =
          decoder.decode(frame.encoded.data(), frame.encoded.size(), &out->image);
      if (status != CodecStatus::kOk) {
        set_error(error, std::string("frame decode failed: ") + to_string(status));
        return false;
      }
      frame.encoded.clear();
      out->frame = std::move(frame);
      return true;
    }
    case MsgType::kStreamEnd: {
      StreamEndMsg end;
      if (!StreamEndMsg::decode(msg.bytes(), &end)) {
        set_error(error, "malformed stream-end message");
        return false;
      }
      stream_decoders_.erase(end.stream_id);
      out->kind = Event::Kind::kStreamEnd;
      out->end = end;
      return true;
    }
    case MsgType::kError: {
      ErrorMsg err;
      if (!ErrorMsg::decode(msg.bytes(), &err)) {
        set_error(error, "malformed error message");
        return false;
      }
      if (err.request_id != 0) request_sessions_.erase(err.request_id);
      out->kind = Event::Kind::kError;
      out->error = std::move(err);
      return true;
    }
    default:
      set_error(error, std::string("unexpected message: ") + to_string(msg.type));
      return false;
  }
}

bool NetClient::fetch_metrics(std::string* json, std::string* error,
                              uint8_t selector) {
  PooledBuffer payload = pool_.acquire(1);
  // The JSON default stays an empty payload so pre-selector servers (and
  // the router's probe contract) see unchanged bytes.
  if (selector != kMetricsSelectorJson) payload.vec().push_back(selector);
  if (!write_message(MsgType::kMetricsRequest, std::move(payload), error)) return false;
  // Frames from concurrent streams may be interleaved ahead of the reply;
  // skip them (their decoders still see every frame, keeping deltas valid).
  for (;;) {
    InMessage msg;
    if (!read_message(&msg, error)) return false;
    if (msg.type == MsgType::kMetricsReply) {
      MetricsReplyMsg reply;
      if (!MetricsReplyMsg::decode(msg.bytes(), &reply)) {
        set_error(error, "malformed metrics reply");
        return false;
      }
      if (json) *json = std::move(reply.json);
      return true;
    }
    Event event;
    if (!decode_event(msg, &event, error)) return false;
  }
}

bool NetClient::send_bye(std::string* error) {
  return write_message(MsgType::kBye, PooledBuffer(), error);
}

bool NetClient::write_message(MsgType type, PooledBuffer&& payload, std::string* error) {
  if (!conn_.valid()) {
    set_error(error, "not connected");
    return false;
  }
  conn_.queue(type, std::move(payload));
  for (;;) {
    if (!conn_.flush()) return fail(error, std::string("send: ") + std::strerror(errno));
    if (!conn_.has_outbound()) return true;
    if (!wait(POLLOUT, "send timeout", error)) return false;
  }
}

bool NetClient::read_message(InMessage* msg, std::string* error) {
  if (!conn_.valid()) {
    set_error(error, "not connected");
    return false;
  }
  // A message completed by the read that also saw EOF is still delivered.
  for (bool open = true;;) {
    const WireStatus status = conn_.next(msg);
    if (status == WireStatus::kOk) return true;
    if (status != WireStatus::kNeedMore) {
      return fail(error, std::string("wire error: ") + to_string(status));
    }
    if (!open) return fail(error, "connection closed by server");
    if (!wait(POLLIN, "receive timeout", error)) return false;
    open = conn_.read_some();
  }
}

bool NetClient::wait(short events, const char* timeout_text, std::string* error) {
  pollfd p{conn_.fd(), events, 0};
  const int timeout_ms = options_.recv_timeout_ms > 0
                             ? static_cast<int>(std::ceil(options_.recv_timeout_ms))
                             : -1;
  for (;;) {
    const int n = ::poll(&p, 1, timeout_ms);
    if (n > 0) return true;
    if (n < 0 && errno == EINTR) continue;
    return fail(error, n == 0 ? std::string(timeout_text)
                              : std::string("poll: ") + std::strerror(errno));
  }
}

bool NetClient::fail(std::string* error, const std::string& what) {
  set_error(error, what);
  close();
  return false;
}

}  // namespace psw::net
