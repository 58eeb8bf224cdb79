#include "net/loop.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <chrono>

namespace psw::net {

namespace {

// The longest an idle iteration waits: the resolution of the owners'
// timers (probes, reconnects, the idle harvest).
constexpr int kPollTickMs = 50;

void bump(std::atomic<uint64_t>* counter) {
  if (counter != nullptr) counter->fetch_add(1);
}

}  // namespace

bool Loop::start(Config config, std::string* error) {
  cfg_ = std::move(config);
  const ListenOptions& l = cfg_.listen;
  listener_ = tcp_listen(l.bind_address, l.port, l.backlog, error);
  if (!listener_.valid()) return false;
  set_nonblocking(listener_.get(), true);
  port_ = local_port(listener_.get());
  if (!wake_->open(error)) {
    listener_.reset();
    return false;
  }
  stopping_.store(false, std::memory_order_release);
  wake_->wake();  // the owner's first tick (the router's first dials) runs now
  thread_ = std::thread([this] { run(); });
  return true;
}

void Loop::stop() {
  stopping_.store(true, std::memory_order_release);
  wake_->wake();
  if (thread_.joinable()) thread_.join();
  peers_.clear();
  listener_.reset();
  wake_->close();  // retires the write end before the read end
}

Peer* Loop::find(uint64_t id) {
  const auto it = peers_.find(id);
  return it == peers_.end() ? nullptr : it->second.get();
}

void Loop::add(const WatchKey& key, const Conn& conn) {
  if (!conn.valid()) return;
  fds_.push_back({conn.fd(), conn.poll_events(), 0});
  slots_.push_back({key, false});
}

bool Loop::reject(Peer& peer, const std::string& message) {
  bump(cfg_.counters.protocol_errors);
  bump(cfg_.counters.errors_sent);
  peer.io.queue_error(0, serve::ServeStatus::kError, message);
  return false;
}

void Loop::run() {
  while (!stopping_.load(std::memory_order_acquire)) {
    fds_.clear();
    slots_.clear();
    fds_.push_back({listener_.get(), POLLIN, 0});
    fds_.push_back({wake_->read_fd(), POLLIN, 0});
    for (auto& [id, peer] : peers_) {
      fds_.push_back({peer->io.fd(), peer->io.poll_events(), 0});
      slots_.push_back({{id, 0}, true});
    }
    handler_.watch();

    ::poll(fds_.data(), static_cast<nfds_t>(fds_.size()), kPollTickMs);
    if (stopping_.load(std::memory_order_acquire)) break;

    if (fds_[1].revents & POLLIN) wake_->drain();
    handler_.tick();
    if (fds_[0].revents & POLLIN) accept_ready();
    for (size_t i = 0; i < slots_.size(); ++i) {
      const pollfd& p = fds_[i + 2];
      if (p.revents == 0) continue;
      if (slots_[i].peer) {
        read_peer(slots_[i].key.peer, p.revents);
      } else {
        read_watched(slots_[i].key, p.fd, p.revents);
      }
    }
    sweep();
  }
  // The poll thread owns the peers; their fds close on this thread.
  peers_.clear();
}

void Loop::accept_ready() {
  for (;;) {
    UniqueFd fd(::accept(listener_.get(), nullptr, nullptr));
    if (!fd.valid()) return;  // EAGAIN or transient error: back to poll
    if (peers_.size() >= static_cast<size_t>(cfg_.listen.max_connections)) {
      bump(cfg_.counters.rejected);
      continue;  // closes fd
    }
    set_nonblocking(fd.get(), true);
    // Frames are written whole; batching small messages behind Nagle only
    // adds latency to the request/reply path.
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (cfg_.send_buffer_bytes > 0) {
      ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &cfg_.send_buffer_bytes,
                   sizeof(cfg_.send_buffer_bytes));
    }
    std::unique_ptr<Peer> peer = handler_.make_peer();
    peer->id = next_id_++;
    peer->io = Conn(std::move(fd), cfg_.shared);
    bump(cfg_.counters.accepted);
    peers_.emplace(peer->id, std::move(peer));
  }
}

void Loop::read_peer(uint64_t id, short revents) {
  Peer* peer = find(id);
  if (peer == nullptr) return;
  if (revents & (POLLERR | POLLNVAL)) {
    peer->closing = true;
    peer->io.discard_outbound();
    return;
  }
  if (!(revents & (POLLIN | POLLHUP))) return;
  if (!peer->io.read_some()) {
    // EOF or hard error: nothing more will arrive; flush what we owe and go.
    peer->closing = true;
    return;
  }
  const WireStatus status =
      peer->io.dispatch([&](InMessage& msg) { return gate(*peer, msg); });
  if (status == WireStatus::kNeedMore) return;
  if (status != WireStatus::kOk) {
    // A framing error loses message boundaries; the only safe answer is a
    // typed goodbye and a close.
    reject(*peer, std::string("wire error: ") + to_string(status));
  }
  peer->closing = true;
}

bool Loop::gate(Peer& peer, InMessage& msg) {
  if (msg.type == MsgType::kHello) {
    HelloMsg hello;
    if (!HelloMsg::decode(msg.bytes(), &hello)) return reject(peer, "bad message: hello");
    // The header version was checked with the frame; the hello carries the
    // version the *client* intends to speak, which may legitimately differ
    // on a mixed-version fleet — reject it with a typed error (flushed,
    // then the close) rather than answer in a protocol the peer never
    // claimed.
    if (hello.version != kProtocolVersion) {
      bump(cfg_.counters.hello_rejects);
      bump(cfg_.counters.errors_sent);
      peer.io.queue_error(0, serve::ServeStatus::kError,
                          "unsupported protocol version " + std::to_string(hello.version) +
                              " (want " + std::to_string(kProtocolVersion) + ")");
      return false;
    }
    HelloMsg ack;
    ack.name = cfg_.name;
    peer.io.queue_msg(MsgType::kHelloAck, ack);
    peer.got_hello = true;
    return true;
  }
  if (!peer.got_hello) return reject(peer, "expected hello first");
  if (msg.type == MsgType::kBye) return false;  // flush pending output, then close
  return handler_.on_message(peer, msg);
}

void Loop::read_watched(const WatchKey& key, int fd, short revents) {
  Conn* conn = handler_.watched(key);
  if (conn == nullptr || conn->fd() != fd) return;  // gone or replaced since the poll
  if (!conn->finish_connect(revents)) {
    handler_.watched_lost(key, "connect failed", WireStatus::kOk);
    return;
  }
  if (conn->connecting() || !(revents & (POLLIN | POLLHUP | POLLERR))) return;
  if (!conn->read_some()) {
    handler_.watched_lost(key, "connection closed", WireStatus::kOk);
    return;
  }
  const WireStatus status = conn->dispatch(
      [&](InMessage& msg) { return handler_.on_watched_message(key, msg); });
  if (status != WireStatus::kNeedMore) handler_.watched_lost(key, "protocol error", status);
}

void Loop::sweep() {
  // Flush every connection with queued bytes (replies generated this
  // iteration go out without waiting for the next poll), then close the
  // peers that have flushed their goodbye and harvest the idle ones.
  const serve::Clock::time_point now = serve::Clock::now();
  const double idle_ms = cfg_.listen.idle_timeout_ms;
  done_.clear();
  for (auto& [id, peer] : peers_) {
    if (!peer->io.flush()) {
      peer->closing = true;  // peer gone, backlog dropped
    } else {
      handler_.flushed(*peer);
    }
    if (peer->closing) {
      if (!peer->io.has_outbound()) done_.push_back(id);
    } else if (idle_ms > 0 && !peer->io.has_outbound() && !handler_.busy(*peer) &&
               std::chrono::duration<double, std::milli>(now - peer->io.last_activity())
                       .count() > idle_ms) {
      bump(cfg_.counters.idle_timeouts);
      done_.push_back(id);
    }
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    Conn* conn = slots_[i].peer ? nullptr : handler_.watched(slots_[i].key);
    if (conn != nullptr && conn->fd() == fds_[i + 2].fd && !conn->flush()) {
      handler_.watched_lost(slots_[i].key, "write failed", WireStatus::kOk);
    }
  }
  for (const uint64_t id : done_) {
    peers_.erase(id);
    bump(cfg_.counters.closed);
  }
}

}  // namespace psw::net
