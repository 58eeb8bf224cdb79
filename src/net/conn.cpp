#include "net/conn.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cerrno>
#include <cstring>

#include "util/timer.hpp"

namespace psw::net {

namespace {

// Free space the receive buffer offers each recv call.
constexpr size_t kReadChunk = 64 * 1024;
// iovec slots per sendmsg call: 32 queued messages per syscall is plenty —
// a deeper backlog just means the next loop iteration sends more.
constexpr int kMaxIov = 64;

}  // namespace

Conn::Conn(UniqueFd fd, const ConnShared& shared, bool connecting)
    : fd_(std::move(fd)), shared_(shared), connecting_(connecting) {}

short Conn::poll_events() const {
  if (connecting_) return POLLOUT;
  return has_outbound() ? POLLIN | POLLOUT : POLLIN;
}

bool Conn::finish_connect(short revents) {
  if (!connecting_ || !(revents & (POLLOUT | POLLERR | POLLHUP))) return true;
  connecting_ = false;
  return finish_nonblocking_connect(fd_.get()) == 0;
}

bool Conn::read_some() {
  for (;;) {
    if (in_.size() - in_end_ < kReadChunk) {
      // Slide the bytes not yet taken to the front; grow only when that
      // still leaves less than a chunk free, so a warm connection reads
      // without allocating.
      if (in_begin_ > 0) {
        std::memmove(in_.data(), in_.data() + in_begin_, in_end_ - in_begin_);
        in_end_ -= in_begin_;
        in_begin_ = 0;
      }
      if (in_.size() - in_end_ < kReadChunk) in_.resize(in_end_ + kReadChunk);
    }
    const size_t room = in_.size() - in_end_;
    const ssize_t n = ::recv(fd_.get(), in_.data() + in_end_, room, 0);
    if (n > 0) {
      in_end_ += static_cast<size_t>(n);
      if (shared_.bytes_in != nullptr) {
        shared_.bytes_in->fetch_add(static_cast<uint64_t>(n));
      }
      last_activity_ = serve::Clock::now();
      if (static_cast<size_t>(n) < room) return true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

WireStatus Conn::next(InMessage* msg) {
  const uint8_t* at = in_.data() + in_begin_;
  size_t length = 0;
  const WireStatus status = check_message(at, in_end_ - in_begin_, &msg->type, &length);
  if (status != WireStatus::kOk) return status;
  std::memcpy(msg->header.data(), at, kHeaderSize);
  msg->payload = shared_.pool->acquire(length);
  msg->payload.vec().assign(at + kHeaderSize, at + kHeaderSize + length);
  in_begin_ += kHeaderSize + length;
  if (in_begin_ == in_end_) in_begin_ = in_end_ = 0;
  return WireStatus::kOk;
}

void Conn::queue(MsgType type, PooledBuffer&& payload,
                 const obs::TraceContext& trace, uint64_t send_parent) {
  SendItem item;
  encode_header(type, payload.vec().data(), payload.vec().size(),
                item.header.data());
  item.payload = std::move(payload);
  if (trace.sampled()) {
    item.trace = trace;
    item.send_parent = send_parent;
    item.queued_ns = steady_now_ns();
  }
  push(std::move(item));
}

void Conn::queue_error(uint64_t request_id, serve::ServeStatus status,
                       const std::string& message, const obs::TraceContext& trace) {
  ErrorMsg err;
  err.request_id = request_id;
  err.status = static_cast<uint16_t>(status);
  err.message = message;
  err.trace = trace;
  queue_msg(MsgType::kError, err);
}

void Conn::forward(InMessage&& msg) {
  SendItem item;
  item.header = msg.header;
  item.payload = std::move(msg.payload);
  push(std::move(item));
}

void Conn::push(SendItem&& item) {
  sendq_bytes_ += kHeaderSize + item.payload.vec().size();
  sendq_.push_back(std::move(item));
}

bool Conn::flush() {
  if (connecting_) return true;
  // Scatter-gather drain: each queued message contributes its inline header
  // and its pooled payload as separate iovecs, so payloads go from their
  // pooled buffers to the kernel with no intermediate flat-buffer copy.
  // sendmsg (writev with flags) accepts a partial write; `sent` offsets let
  // the next call resume mid-header or mid-payload.
  while (!sendq_.empty()) {
    iovec iov[kMaxIov];
    int niov = 0;
    for (SendItem& s : sendq_) {
      if (niov + 2 > kMaxIov) break;
      std::vector<uint8_t>& body = s.payload.vec();
      if (s.sent < kHeaderSize) {
        iov[niov++] = {s.header.data() + s.sent, kHeaderSize - s.sent};
        if (!body.empty()) iov[niov++] = {body.data(), body.size()};
      } else {
        const size_t body_off = s.sent - kHeaderSize;
        iov[niov++] = {body.data() + body_off, body.size() - body_off};
      }
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = static_cast<decltype(mh.msg_iovlen)>(niov);
    const ssize_t n = ::sendmsg(fd_.get(), &mh, MSG_NOSIGNAL);
    if (n > 0) {
      if (shared_.bytes_out != nullptr) {
        shared_.bytes_out->fetch_add(static_cast<uint64_t>(n));
      }
      sendq_bytes_ -= static_cast<size_t>(n);
      size_t left = static_cast<size_t>(n);
      while (left > 0) {
        SendItem& front = sendq_.front();
        const size_t remaining =
            kHeaderSize + front.payload.vec().size() - front.sent;
        if (left >= remaining) {
          left -= remaining;
          record_send_span(front);
          sendq_.pop_front();  // returns the payload to the pool
        } else {
          front.sent += left;
          left = 0;
        }
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer is gone; drop the backlog so the owner can reap the connection.
    discard_outbound();
    return false;
  }
  return true;
}

void Conn::record_send_span(const SendItem& item) const {
  if (!item.trace.sampled() || shared_.recorder == nullptr) return;
  // Sendq residency: queued -> last byte accepted by the kernel.
  // Recorder-only — the message this measures is already encoded.
  obs::SpanRecord span;
  span.trace_hi = item.trace.trace_hi;
  span.trace_lo = item.trace.trace_lo;
  span.span_id = obs::next_span_id();
  span.parent_id = item.send_parent;
  span.kind = obs::SpanKind::kSend;
  span.t_start_ns = item.queued_ns;
  span.t_end_ns = steady_now_ns();
  span.tag = item.payload.vec().size();
  shared_.recorder->record(item.trace, span);
}

void Conn::discard_outbound() {
  sendq_.clear();  // every pooled payload goes back to the pool
  sendq_bytes_ = 0;
}

}  // namespace psw::net
